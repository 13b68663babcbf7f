"""Derived (composed) pViews: overlap, segmented, zip and slice views.

Table II's view set is closed under composition: a view can be built over
another view instead of directly over a pContainer, and the stack keeps
the V = (C, D, F, O) contract at every level.  :class:`DerivedView` is the
shared base: it records the tuple of underlying views (``bases``), reuses
the plain :class:`~repro.views.base.GenericChunk` machinery for its
bViews, and — crucially — keys any cached chunk metadata to the *composed*
distribution epoch (the tuple of every base's epoch, recursively), so a
migration or rebalance of any container anywhere under the stack
invalidates derived chunk lists exactly like it invalidates native ones.

The concrete views:

* :class:`OverlapView` (Fig. 2) — element *i* is the window
  ``base[c*i, c*i + l + c + r)``.  Windows materialize through the slab
  transport (``read_range``): one bulk RMI per owning location covers all
  the windows a chunk needs, boundary (halo) elements included — never
  one RMI per element.  This is the stencil idiom; the SNIPPETS.md
  exemplar (``vw_overlap.cc``) is exactly this view.
* :class:`SegmentedView` — the base view split into contiguous segments
  by a partitioner; element *i* is the segment itself (a
  :class:`SliceView`), so algorithms can recurse into segments — e.g. an
  outer Paragraph task spawning an inner Paragraph per segment.
* :class:`ZipView` — N equal-sized views elementwise: reads return
  tuples, writes scatter tuples, and the bulk path zips the component
  slabs.
* :class:`SliceView` — a contiguous re-indexed sub-range of a base view;
  the segment element type, also useful standalone.
"""

from __future__ import annotations

import numpy as np

from ..core.domains import RangeDomain
from .base import (
    GenericChunk,
    PView,
    slab_passthrough,
    sync_views,
)


def slab_read(view, lo: int, hi: int):
    """Read view indices ``[lo, hi)`` through the bulk transport when the
    view supports it (one slab per owning location), element-wise
    otherwise.  Returns a plain list — except under a zero-copy
    multiprocessing backend (:func:`~repro.views.base.slab_passthrough`),
    where an ndarray slab stays an ndarray (possibly a read-only view over
    a shared-memory segment): lowering it to a list would copy every
    element and forfeit the zero-copy receive.  Callers treat the result
    as a read-only sequence; mutation goes through ``slab_write``."""
    rr = getattr(view, "read_range", None)
    if (view.container.runtime.config.bulk_transport and rr is not None
            and hi > lo):
        vals = rr(lo, hi)
        if vals is not None:
            if isinstance(vals, np.ndarray) and slab_passthrough(view):
                return vals
            return vals.tolist() if hasattr(vals, "tolist") else list(vals)
    return [view.read(i) for i in range(lo, hi)]


def slab_write(view, lo: int, values) -> None:
    """Write ``values`` at consecutive view indices from ``lo``, bulk if
    possible."""
    wr = getattr(view, "write_range", None)
    if (view.container.runtime.config.bulk_transport and wr is not None
            and len(values)):
        if wr(lo, values):
            return
    for k, v in enumerate(values):
        view.write(lo + k, v)


class DerivedView(PView):
    """A view over one or more underlying views (the composition base).

    ``container``/``group`` default to the first base's, so a derived view
    participates in fences and ``post_execute`` like any other view; the
    closing synchronisation commits *every* distinct container under the
    stack (:meth:`post_execute` syncs the bases too).  The distribution
    epoch of a derived view is the tuple of its bases' epochs, recursively
    — any epoch bump below invalidates chunk caches above."""

    def __init__(self, bases, group=None):
        bases = tuple(bases)
        if not bases:
            raise ValueError("derived view needs at least one base view")
        super().__init__(bases[0].container, group or bases[0].group)
        self.bases = bases

    def _distribution_epoch(self):
        return tuple(b._distribution_epoch() for b in self.bases)

    def post_execute(self) -> None:
        sync_views((self,) + self.bases)

    def _balanced_chunks(self, extra_key=None) -> list:
        """The default bView split: this location's balanced share of the
        derived domain as one GenericChunk, cached keyed to the composed
        epoch (plus the current size, in case a base grows)."""

        def build():
            dom = self.balanced_slices()
            return [GenericChunk(self, dom)] if dom.size() else []

        return self.cached_native_chunks(build, extra_key=(self.size(),
                                                           extra_key))


class SliceView(DerivedView):
    """Contiguous sub-range ``[lo, hi)`` of a base view, re-indexed from 0.

    Writable iff the base is; the slab accessors delegate with the offset
    applied, so bulk transport keeps working through slices."""

    def __init__(self, base_view, lo: int, hi: int, group=None):
        if not 0 <= lo <= hi <= base_view.size():
            raise IndexError(
                f"slice [{lo}, {hi}) outside base of size {base_view.size()}")
        super().__init__((base_view,), group)
        self.lo, self.hi = lo, hi

    @property
    def base(self):
        return self.bases[0]

    def size(self) -> int:
        return self.hi - self.lo

    def _check(self, i: int) -> int:
        if not 0 <= i < self.hi - self.lo:
            raise IndexError(i)
        return self.lo + i

    def read(self, i):
        return self.base.read(self._check(i))

    def write(self, i, value) -> None:
        self.base.write(self._check(i), value)

    def read_range(self, lo: int, hi: int):
        if not 0 <= lo <= hi <= self.size():
            raise IndexError(f"range [{lo}, {hi}) outside slice")
        rr = getattr(self.base, "read_range", None)
        return None if rr is None else rr(self.lo + lo, self.lo + hi)

    def write_range(self, lo: int, values) -> bool:
        if not 0 <= lo <= lo + len(values) <= self.size():
            raise IndexError(
                f"range [{lo}, {lo + len(values)}) outside slice")
        wr = getattr(self.base, "write_range", None)
        return False if wr is None else wr(self.lo + lo, values)

    def whole_chunk(self) -> GenericChunk:
        """The entire slice as one bView — the unit an inner Paragraph
        task processes when this slice is a segment owned by one
        location."""
        return GenericChunk(self, RangeDomain(0, self.size()))

    def local_chunks(self) -> list:
        return self._balanced_chunks(extra_key=("slice", self.lo, self.hi))


class OverlapView(DerivedView):
    """``overlap_pview`` (Fig. 2): element *i* is the window
    ``base[c*i, c*i + l + c + r)`` with core ``c``, left ``l``, right ``r``.

    Reads return the window as a list.  Windows materialize through the
    slab path: one ``read_range`` over the union of base elements a chunk
    of windows covers — halo elements ride the same slab as the cores, so
    a chunk never pays per-element RMIs for its boundaries."""

    def __init__(self, base_view, c: int = 1, l: int = 0, r: int = 0,  # noqa: E741
                 group=None):
        if c < 1 or l < 0 or r < 0:
            raise ValueError("need c >= 1, l >= 0, r >= 0")
        super().__init__((base_view,), group)
        self.c, self.l, self.r = c, l, r
        n = base_view.size()
        w = l + c + r
        self._n = 0 if n < w else (n - w) // c + 1

    @property
    def base(self):
        return self.bases[0]

    @property
    def window(self) -> int:
        return self.l + self.c + self.r

    def size(self) -> int:
        return self._n

    def base_span(self, wlo: int, whi: int) -> RangeDomain:
        """The base index range windows ``[wlo, whi)`` cover (cores plus
        halos)."""
        if whi <= wlo:
            return RangeDomain(0, 0)
        return RangeDomain(self.c * wlo, self.c * (whi - 1) + self.window)

    def materialize(self, wlo: int, whi: int) -> tuple:
        """One slab read of the base span of windows ``[wlo, whi)``;
        returns ``(base_lo, values)``.  This is the halo-materialization
        primitive the stencil rides: boundary elements arrive in the same
        bulk message as the cores."""
        span = self.base_span(wlo, whi)
        vals = slab_read(self.base, span.lo, span.hi)
        if isinstance(vals, np.ndarray) and not vals.flags.writeable:
            # a zero-copy received slab is only valid until this
            # location's next fence, but a materialized halo is held
            # across dependence-ordered neighbour writes (the data-flow
            # stencil consumes it over several iterations) — snapshot it
            vals = vals.copy()
        return span.lo, vals

    def read(self, i) -> list:
        if not 0 <= i < self._n:
            raise IndexError(i)
        lo = self.c * i
        return slab_read(self.base, lo, lo + self.window)

    def read_range(self, wlo: int, whi: int) -> list:
        """All windows ``[wlo, whi)``, cut from a single base slab."""
        if not 0 <= wlo <= whi <= self._n:
            raise IndexError(f"range [{wlo}, {whi}) outside [0, {self._n})")
        base_lo, flat = self.materialize(wlo, whi)
        w = self.window
        out = []
        for i in range(wlo, whi):
            off = self.c * i - base_lo
            out.append(flat[off:off + w])
        return out

    def write(self, i, value) -> None:
        raise TypeError("overlap views are read-only")

    def local_chunks(self) -> list:
        return self._balanced_chunks(extra_key=("overlap", self.c, self.l,
                                                self.r))


class SegmentedView(DerivedView):
    """The base view split into contiguous segments; element *i* is the
    segment itself (a :class:`SliceView`), so a workfunction receives a
    *view* and may recurse — visit it, reduce it, or hand it to an inner
    Paragraph.  ``partitioner`` is either a list of segment lengths
    (summing to the base size) or a list of ``(lo, hi)`` pairs."""

    def __init__(self, base_view, partitioner, group=None):
        super().__init__((base_view,), group)
        self.segments = _normalize_segments(base_view.size(), partitioner)

    @property
    def base(self):
        return self.bases[0]

    def size(self) -> int:
        return len(self.segments)

    def read(self, i) -> SliceView:
        lo, hi = self.segments[i]
        return SliceView(self.base, lo, hi, group=self.group)

    def write(self, i, value) -> None:
        raise TypeError(
            "segmented views are read-only; write through the segments")

    def segment_domain(self, i) -> RangeDomain:
        lo, hi = self.segments[i]
        return RangeDomain(lo, hi)

    def local_chunks(self) -> list:
        return self._balanced_chunks(extra_key=("segmented",
                                                tuple(self.segments)))


def _normalize_segments(base_n: int, partitioner) -> list:
    items = list(partitioner)
    segs = []
    if items and isinstance(items[0], (tuple, list)):
        for lo, hi in items:
            if not 0 <= lo <= hi <= base_n:
                raise ValueError(f"segment [{lo}, {hi}) outside [0, {base_n})")
            segs.append((int(lo), int(hi)))
        return segs
    off = 0
    for ln in items:
        if ln < 0:
            raise ValueError("segment lengths must be >= 0")
        segs.append((off, off + int(ln)))
        off += int(ln)
    if off != base_n:
        raise ValueError(
            f"segment lengths sum to {off}, base view has {base_n} elements")
    return segs


class ZipView(DerivedView):
    """N equal-sized views zipped elementwise: ``read(i)`` returns the
    tuple of base values, ``write(i, tuple)`` scatters it, and the slab
    accessors zip/unzip whole component slabs so the bulk path survives
    composition."""

    def __init__(self, *views, group=None):
        if not views:
            raise ValueError("zip_view needs at least one view")
        n = views[0].size()
        if any(v.size() != n for v in views[1:]):
            raise ValueError("zip_view requires equal-sized views")
        super().__init__(views, group)
        self._n = n

    def size(self) -> int:
        return self._n

    def read(self, i) -> tuple:
        return tuple(b.read(i) for b in self.bases)

    def write(self, i, value) -> None:
        if len(value) != len(self.bases):
            raise ValueError(
                f"zip write needs a {len(self.bases)}-tuple, got {value!r}")
        for b, v in zip(self.bases, value):
            b.write(i, v)

    def read_range(self, lo: int, hi: int) -> list:
        cols = [slab_read(b, lo, hi) for b in self.bases]
        return list(zip(*cols)) if hi > lo else []

    def write_range(self, lo: int, values) -> bool:
        if not len(values):
            return True
        cols = list(zip(*values))
        for b, col in zip(self.bases, cols):
            slab_write(b, lo, list(col))
        return True

    def local_chunks(self) -> list:
        return self._balanced_chunks(extra_key="zip")


# -- factories (the names algorithms use) -----------------------------------

def overlap_view(view, core: int = 1, left: int = 0,
                 right: int = 0, group=None) -> OverlapView:
    """Sliding windows of ``left + core + right`` base elements advancing
    by ``core`` (Fig. 2)."""
    return OverlapView(view, c=core, l=left, r=right, group=group)


def segmented_view(view, partitioner, group=None) -> SegmentedView:
    """Segments of ``view`` as elements; ``partitioner`` is a list of
    lengths or of ``(lo, hi)`` pairs."""
    return SegmentedView(view, partitioner, group=group)


def zip_view(*views, group=None) -> ZipView:
    """Equal-sized views zipped elementwise into a view of tuples."""
    return ZipView(*views, group=group)


__all__ = ["DerivedView", "OverlapView", "SegmentedView", "SliceView",
           "ZipView", "overlap_view", "segmented_view", "slab_read",
           "slab_write", "zip_view"]
