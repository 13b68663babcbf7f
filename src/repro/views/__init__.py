"""STAPL pViews (Ch. III.A, Table II): abstract data types decoupling a
pAlgorithm from the concrete pContainer that stores its data.

A pView is the tuple V = (C, D, F, O): a reference to a collection C, a
domain D of view indices, a mapping function F from indices to container
GIDs, and the ADT operations O.  For parallel execution a view partitions
itself into *base views* (chunks); each location asks for its share via
``local_chunks()`` and the executor processes them task-style.  Views whose
chunks align with the container's distribution run vectorised local sweeps;
misaligned views go through the shared-object interface — remotely if
needed, and in whole-slab bulk transfers when the view supports contiguous
``read_range`` / ``write_range`` accessors (see :mod:`repro.views.base`).

What each view models:

* ``Array1DView`` / ``Array1DROView`` (:mod:`.array_views`) — random
  read/write (resp. read-only) access to an indexed container through an
  integer domain ``[0, n)``; the ``native_view`` helper returns the
  container-aligned flavour that pAlgorithms default to.
* ``BalancedView`` — the data split into #locations equal contiguous
  chunks regardless of the underlying distribution; the alignment ablation
  measures what that flexibility costs in remote traffic.
* ``StridedView`` — every k-th element; ``TransformView`` — reads pass
  through a user function (Table II row O).
* Derived (composed) views (:mod:`.derived_views`) — views over views,
  all sharing the ``DerivedView`` base whose chunk caches are keyed to
  the *composed* distribution epoch: ``OverlapView`` — sliding windows
  with core/left/right overlap (Fig. 2), the stencil idiom, halos riding
  the slab transport; ``SegmentedView`` — contiguous segments as
  elements, each itself a view (``SliceView``) an inner Paragraph can
  recurse into; ``ZipView`` — equal-sized views zipped elementwise.
* ``MatrixRowsView`` / ``MatrixColsView`` / ``MatrixLinearView``
  (:mod:`.matrix_views`) — the same pMatrix viewed as rows-as-elements,
  columns-as-elements, or a linearised 1D array ("the same pMatrix can be
  'viewed' as a row-major or column-major matrix or even as linearized
  vector", Ch. III.A).
* ``ListView`` / ``StaticListView`` (:mod:`.list_views`) — ordered
  traversal of pList segments by stable (bcid, seq) handles.
* ``MapView`` / ``SetView`` (:mod:`.map_views`) — associative views:
  key-addressed chunks over the hash/range-partitioned containers.
* ``GraphView`` plus ``InnerView`` / ``BoundaryView`` / ``RegionView``
  (:mod:`.graph_views`) — vertex-set views for pGraph algorithms,
  separating partition-interior vertices from boundary vertices so
  computation/communication can be overlapped.
"""

from .array_views import (
    Array1DROView,
    Array1DView,
    BalancedView,
    StridedView,
    TransformView,
    native_view,
)
from .derived_views import (
    DerivedView,
    OverlapView,
    SegmentedView,
    SliceView,
    ZipView,
    overlap_view,
    segmented_view,
    slab_read,
    slab_write,
    zip_view,
)
from .base import (
    Chunk,
    GenericChunk,
    NativeChunk,
    PView,
    Workfunction,
    as_wf,
    slab_passthrough,
)
from .graph_views import BoundaryView, GraphView, InnerView, RegionView, VertexChunk
from .list_views import ListChunk, ListView, StaticListView
from .map_views import MapChunk, MapView, SetView
from .matrix_views import MatrixColsView, MatrixLinearView, MatrixRowsView
