"""Per-layer span recorder for the traced run.

The timing wrappers live here, in the benchmark, not in the program: at
the start of a traced SPMD program every worker installs a wrapper around
the public entry points of each layer (``ENTRY_POINTS``), on the class or
module that defines the entry point and on every loaded subclass that
overrides it, and removes them all again before it returns.

A span is ``(name, layer, start, end, parent)``; the location is the
recorder's own.  ``parent`` is the index of the enclosing span on the same
location, so a layer's *self* time is its spans' duration minus the part
their child spans cover, and the layers plus the time inside no span add
up to the traced rep.  Spans nest within one location only: an RMI's
send -> execute edge across processes needs hooks inside the runtime.
"""

from __future__ import annotations

import functools
import importlib
import types
from time import perf_counter

#: layer names are this repo's packages, in stack order
LAYERS = (
    "algorithms",
    "views",
    "containers",
    "core",
    "runtime.rmi",
    "runtime.comm",
    "runtime.mp.wire",
    "runtime.mp.shm",
    "runtime.fence",
    "runtime.collective",
)

#: layer -> [(module, class or None, attribute names)].  A class entry
#: names the public class; the wrapper goes on whichever class in its MRO
#: defines the attribute, plus every overriding subclass.
ENTRY_POINTS = {
    "algorithms": [
        ("repro.algorithms.generic", None,
         ("p_generate", "p_partial_sum", "p_reduce")),
        ("repro.algorithms.sorting", None, ("p_sample_sort",)),
        ("repro.algorithms.nested", None, ("p_stencil",)),
        ("repro.algorithms.map_reduce", None, ("word_count",)),
        ("repro.algorithms.graph_algorithms", None, ("bfs",)),
    ],
    "views": [
        ("repro.views.base", "PView",
         ("local_chunks", "read_range", "write_range")),
        ("repro.views.base", "Chunk",
         ("map_values", "generate", "reduce_values")),
        ("repro.views.derived_views", "OverlapView", ("materialize",)),
    ],
    "containers": [
        ("repro.core.pcontainer", "PContainerIndexed",
         ("get_element", "set_element", "get_range", "set_range")),
        ("repro.containers.associative", "PHashMap",
         ("__init__", "accumulate", "accumulate_batch")),
        ("repro.containers.pgraph", "PGraph",
         ("__init__", "add_edges_batch", "apply_vertex")),
        ("repro.containers.parray", "PArray", ("__init__",)),
    ],
    "core": [
        ("repro.core.distribution", "DataDistributionManager",
         ("get_info", "execute_at_bcid")),
    ],
    "runtime.rmi": [
        ("repro.runtime.scheduler", "Location",
         ("async_rmi", "sync_rmi", "opaque_rmi", "bulk_get_range",
          "bulk_set_range", "bulk_exchange", "bulk_gather")),
    ],
    "runtime.comm": [
        ("repro.runtime.scheduler", "Location",
         ("combine_rmi", "flush_combining")),
    ],
    "runtime.mp.wire": [
        ("repro.runtime.mp", None, ("wire_dumps", "wire_loads")),
    ],
    "runtime.mp.shm": [
        ("repro.runtime.mp", None, ("pack_payload", "unpack_payload")),
    ],
    "runtime.fence": [
        ("repro.runtime.scheduler", "Location",
         ("rmi_fence", "os_fence", "barrier")),
    ],
    "runtime.collective": [
        ("repro.runtime.scheduler", "Location",
         ("allreduce_rmi", "allgather_rmi", "alltoall_rmi", "scan_rmi",
          "broadcast_rmi")),
    ],
}

#: spans whose self time is time blocked on a remote reply
SYNC_WAIT_SPANS = frozenset({"sync_rmi", "bulk_get_range"})
#: pack/unpack recurse through their module global, once per element of
#: a payload: only the outermost call is a span, and its wrapper puts the
#: original back while it runs so the recursion costs what it costs untraced
_OUTERMOST_ONLY = frozenset({"pack_payload", "unpack_payload"})


class Tracer:
    """In-memory span buffer of one location.  Wrappers record only
    between :meth:`begin` and :meth:`end` — the timed region of one rep."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.recording = False
        self.wire_bytes = 0
        self._patched: list = []

    def begin(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.wire_bytes = 0
        self.recording = True

    def end(self, t0: float, t1: float) -> dict:
        """Stop recording and roll the rep's spans up by layer."""
        self.recording = False
        return rollup(self.spans, t0, t1, self.wire_bytes)

    def _wrap(self, owner, fn, name: str, layer: int):
        spans, stack = self.spans, self.stack
        steps_aside = name in _OUTERMOST_ONLY
        counts_bytes = name == "wire_dumps"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            if steps_aside:
                setattr(owner, name, fn)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if steps_aside:
                    setattr(owner, name, wrapper)
                spans[idx] = (name, layer, t0, t1, parent)
            if counts_bytes:
                self.wire_bytes += len(result)
            return result

        return wrapper

    def install(self) -> None:
        for layer, sites in ENTRY_POINTS.items():
            lid = LAYERS.index(layer)
            for modname, clsname, names in sites:
                mod = importlib.import_module(modname)
                for name in names:
                    owners = ([mod] if clsname is None else
                              _defining_classes(getattr(mod, clsname), name))
                    for owner in owners:
                        fn = vars(owner)[name]
                        if not isinstance(fn, types.FunctionType):
                            continue
                        self._patched.append((owner, name, fn))
                        setattr(owner, name, self._wrap(owner, fn, name, lid))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()
        self.recording = False


def _defining_classes(cls, name: str) -> list:
    """The class in ``cls``'s MRO that defines ``name`` plus every loaded
    subclass of ``cls`` that overrides it."""
    owners = [k for k in cls.__mro__ if name in vars(k)][:1]
    todo = list(cls.__subclasses__())
    while todo:
        k = todo.pop()
        todo.extend(k.__subclasses__())
        if name in vars(k) and k not in owners:
            owners.append(k)
    return owners


def rollup(spans: list, t0: float, t1: float, wire_bytes: int = 0) -> dict:
    """Per-layer self seconds and call counts of one rep's spans, the
    self time of the blocking-wait spans, and ``workload`` — the part of
    ``[t0, t1]`` inside no span.  By construction the layer self times
    plus ``workload`` equal ``t1 - t0``."""
    self_s = [0.0] * len(LAYERS)
    calls = [0] * len(LAYERS)
    own = [end - start for _n, _l, start, end, _p in spans]
    in_spans = 0.0
    for (_name, _layer, start, end, parent) in spans:
        if parent >= 0:
            own[parent] -= end - start
        else:
            in_spans += end - start
    sync_wait = 0.0
    for (name, layer, _s, _e, _p), mine in zip(spans, own):
        self_s[layer] += mine
        calls[layer] += 1
        if name in SYNC_WAIT_SPANS:
            sync_wait += mine
    return {"self_s": self_s, "calls": calls, "sync_wait_s": sync_wait,
            "workload_s": (t1 - t0) - in_spans, "wire_bytes": wire_bytes}


def chrome_trace(spans_by_location: list) -> dict:
    """Chrome/Perfetto trace-event JSON: one track (tid) per location, the
    layer as the event category, timestamps in microseconds from the
    earliest span."""
    starts = [s[2] for spans in spans_by_location for s in spans]
    origin = min(starts) if starts else 0.0
    events = []
    for lid, spans in enumerate(spans_by_location):
        events.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": lid,
                       "args": {"name": f"location {lid}"}})
        for name, layer, start, end, parent in spans:
            events.append({"name": name, "cat": LAYERS[layer], "ph": "X",
                           "pid": 0, "tid": lid,
                           "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6,
                           "args": {"parent": parent}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
