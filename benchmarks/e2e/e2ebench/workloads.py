"""The five workloads, their seeded inputs and sequential references.

Every workload is a closed loop: the P locations are the clients and each
issues its next operation when the previous one returns.  A workload's
inputs are cut into *shards* (one per logical client); location ``p`` of
``P`` works through shards ``p, p+P, ...``, so a P=1 run does the same
total work as a P=2 run and a P=16 run does eight times the per-location
work of neither — ``virtual`` sizes are per location.

The harness drives a workload through ``setup`` (untimed, once), then per
rep ``reset`` (untimed) -> ``body`` (timed, closed by the harness's
fence) -> ``digest`` (untimed) -> ``cleanup`` (untimed).  ``reference``
returns the plain sequential rep the outputs and ``overhead_x`` are
checked against.

Algorithms are called through their defining module (``generic.p_reduce``,
not a ``from`` import) so the traced run's wrappers, installed on those
modules, are what the workload calls.
"""

from __future__ import annotations

import importlib
from collections import deque
from time import perf_counter

import numpy as np

from repro.algorithms import generic, graph_algorithms, nested, sorting
from repro.containers import PArray, PGraph
from repro.core.partitions import balanced_sizes
from repro.views import Array1DView
from repro.workloads.corpus import local_documents
from repro.workloads.meshes import local_mesh_edges, mesh_edges

# the package re-exports the function ``map_reduce`` over its own submodule
map_reduce = importlib.import_module("repro.algorithms.map_reduce")

M64 = (1 << 64) - 1
_VALUE_RANGE = 1 << 20


def digest_pairs(tag: int, idx, vals) -> int:
    """Order-independent 64-bit digest of ``(idx[i], vals[i])`` pairs: the
    sum of a splitmix64 mix of each pair.  Partial digests of disjoint
    pieces add up (mod 2^64) to the digest of the whole, whatever the
    partition, so P locations and the sequential reference agree."""
    x = (np.asarray(idx).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
         + np.asarray(vals).astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
         + np.uint64(tag))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return int(x.sum(dtype=np.uint64))


def _array_digest(tag: int, parray) -> int:
    total = 0
    for bc in parray.local_bcontainers():
        dom = bc.domain
        total += digest_pairs(tag, np.arange(dom.lo, dom.hi), bc.data)
    return total & M64


def _my_shards(ctx, shards: int) -> range:
    return range(ctx.id, shards, ctx.nlocs)


def _seeded_generate(view, data) -> None:
    generic.p_generate(view, lambda i: int(data[i]), vector=lambda g: data[g])


class Workload:
    """Interface the harness drives; see the module docstring."""

    name = ""
    #: names of the timed phases ``body`` splits a rep into (() = one)
    phases: tuple = ()
    #: size parameters by scale; ``virtual_*`` are per location
    sizes: dict = {}

    def params(self, scale: str, seed: int, nlocs: int | None = None) -> dict:
        """Size parameters of a run: the full-size input shared by the
        wall-clock runs (two shards), or — with ``nlocs`` — the fixed
        per-location input of the virtual-time runs."""
        if nlocs is None:
            return dict(self.sizes[scale], shards=2)
        return dict(self.sizes["virtual_" + scale], shards=nlocs)

    def inputs(self, seed: int, p: dict) -> dict:
        raise NotImplementedError

    def setup(self, ctx, inp: dict, p: dict) -> dict:
        raise NotImplementedError

    def reset(self, ctx, st: dict) -> None:
        pass

    def body(self, ctx, st: dict) -> tuple:
        """One timed rep; returns (replicated result scalars, timestamps
        of the phase boundaries inside the rep)."""
        raise NotImplementedError

    def digest(self, ctx, st: dict) -> int:
        raise NotImplementedError

    def cleanup(self, ctx, st: dict) -> None:
        pass

    def reference(self, inp: dict, p: dict):
        """``(run, digest)``: ``run() -> (output, scalars)`` is one timed
        sequential rep, ``digest(output)`` its untimed digest."""
        raise NotImplementedError


class ArrayPipeline(Workload):
    name = "array_pipeline"
    sizes = {"full": {"n": 1 << 18}, "virtual_full": {"n_per_loc": 4096},
             "tiny": {"n": 1 << 10}, "virtual_tiny": {"n_per_loc": 64}}

    def params(self, scale, seed, nlocs=None):
        p = super().params(scale, seed, nlocs)
        if nlocs is not None:
            p["n"] = p.pop("n_per_loc") * nlocs
        return p

    def inputs(self, seed, p):
        rng = np.random.default_rng(seed)
        return {"data": rng.integers(0, _VALUE_RANGE, p["n"])}

    def setup(self, ctx, inp, p):
        pa = PArray(ctx, p["n"], dtype=int)
        pb = PArray(ctx, p["n"], dtype=int)
        return {"data": inp["data"], "pa": pa, "pb": pb,
                "v": Array1DView(pa), "w": Array1DView(pb)}

    def body(self, ctx, st):
        _seeded_generate(st["v"], st["data"])
        generic.p_partial_sum(st["v"], st["w"])
        sorting.p_sample_sort(st["v"])
        return (generic.p_reduce(st["w"]),), ()

    def digest(self, ctx, st):
        return (_array_digest(1, st["pa"]) + _array_digest(2, st["pb"])) & M64

    def reference(self, inp, p):
        data = inp["data"]
        idx = np.arange(len(data))
        # the reference reuses its buffers as the pArrays reuse theirs: a
        # rep that allocates is bimodal in whether malloc has to fault in
        # fresh pages, and the price of the abstraction inherits that noise
        a, w = np.empty_like(data), np.empty_like(data)

        def run():
            np.copyto(a, data)
            np.cumsum(a, out=w)
            a.sort()
            return (a, w), (int(w.sum()),)

        def digest(out):
            return (digest_pairs(1, idx, out[0])
                    + digest_pairs(2, idx, out[1])) & M64

        return run, digest


class StencilHalo(Workload):
    name = "stencil_halo"
    iters = 8
    sizes = {"full": {"n": 1 << 16}, "virtual_full": {"n_per_loc": 2048},
             "tiny": {"n": 1 << 9}, "virtual_tiny": {"n_per_loc": 32}}

    def params(self, scale, seed, nlocs=None):
        p = super().params(scale, seed, nlocs)
        if nlocs is not None:
            # the stencil's virtual time depends on the size only, never
            # on the values: let the seed pick the size within 3 % so the
            # deterministic metric is still a measurement of each run
            per = p.pop("n_per_loc")
            jitter = np.random.default_rng(seed).integers(0, per // 32 + 1)
            p["n"] = (per + int(jitter)) * nlocs
        return p

    def inputs(self, seed, p):
        rng = np.random.default_rng(seed)
        return {"data": rng.integers(0, _VALUE_RANGE, p["n"])}

    def setup(self, ctx, inp, p):
        pa = PArray(ctx, p["n"], dtype=int)
        return {"data": inp["data"], "pa": pa, "v": Array1DView(pa)}

    def reset(self, ctx, st):
        _seeded_generate(st["v"], st["data"])

    def body(self, ctx, st):
        nested.p_stencil(st["v"], iters=self.iters, dataflow=True)
        return (), ()

    def digest(self, ctx, st):
        return _array_digest(1, st["pa"])

    def reference(self, inp, p):
        data = inp["data"]
        idx = np.arange(len(data))
        a, t = np.empty_like(data), np.empty_like(data[2:])

        def run():  # allocation-free, like ArrayPipeline's
            np.copyto(a, data)
            for _ in range(self.iters):
                np.add(a[:-2], a[1:-1], out=t)
                np.add(t, a[2:], out=t)
                np.floor_divide(t, 3, out=a[1:-1])
            return a, ()

        return run, lambda a: digest_pairs(1, idx, a)


class WordCount(Workload):
    name = "wordcount"
    vocab = 2000
    exponent = 1.1
    sizes = {"full": {"tokens": 10000}, "virtual_full": {"tokens": 1200},
             "tiny": {"tokens": 300}, "virtual_tiny": {"tokens": 40}}

    def inputs(self, seed, p):
        return {"docs": [local_documents(s, p["shards"], p["tokens"],
                                         vocab_size=self.vocab,
                                         exponent=self.exponent, seed=seed)
                         for s in range(p["shards"])]}

    def setup(self, ctx, inp, p):
        docs = [d for s in _my_shards(ctx, p["shards"])
                for d in inp["docs"][s]]
        return {"docs": docs, "hm": None}

    def body(self, ctx, st):
        st["hm"] = map_reduce.word_count(ctx, st["docs"],
                                         combine_locally=False)
        return (st["hm"].size(),), ()

    @staticmethod
    def _digest(counts) -> int:
        words = np.fromiter((int(w[1:]) for w in counts), dtype=np.int64,
                            count=len(counts))
        return digest_pairs(1, words, np.fromiter(counts.values(),
                                                  dtype=np.int64,
                                                  count=len(counts)))

    def digest(self, ctx, st):
        return sum(self._digest(bc.data)
                   for bc in st["hm"].local_bcontainers()) & M64

    def cleanup(self, ctx, st):
        st["hm"].destroy()
        st["hm"] = None

    def reference(self, inp, p):
        docs = [d for shard in inp["docs"] for d in shard]

        def run():
            counts: dict = {}
            for doc in docs:
                for w in doc.split():
                    counts[w] = counts.get(w, 0) + 1
            return counts, (len(counts),)

        return run, self._digest


class MethodMix(Workload):
    """Fig. 24 method kernel: three phases of ``ops`` element methods per
    client — async ``set_element``, sync ``get_element``, both interleaved
    — half of each phase's targets remote.

    Writers never race: block ``q``'s GIDs are permuted and cut into one
    *lane* per writer (half the block for its owner, the rest shared by
    the guests); a lane's first half takes the write phase's writes, its
    second half the mixed phase's.  Reads only target first halves, which
    nobody writes while reads are in flight, so every read value and the
    final contents are the same on any backend at any P."""

    name = "method_mix"
    phases = ("write_phase_s", "read_phase_s", "mixed_phase_s")
    sizes = {"full": {"n": 1 << 16, "ops": 700},
             "virtual_full": {"n_per_loc": 1024, "ops": 300},
             "tiny": {"n": 1 << 8, "ops": 20},
             "virtual_tiny": {"n_per_loc": 64, "ops": 6}}

    def params(self, scale, seed, nlocs=None):
        p = super().params(scale, seed, nlocs)
        if nlocs is not None:
            p["n"] = p.pop("n_per_loc") * nlocs
        return p

    def inputs(self, seed, p):
        rng = np.random.default_rng(seed)
        n, L, ops = p["n"], p["shards"], p["ops"]
        init = rng.integers(0, _VALUE_RANGE, n)
        # lanes[q][w]: (write-phase GIDs, mixed-phase GIDs) of writer w in
        # block q; readable[q]: every write-phase GID of block q
        lanes, readable = [], []
        lo = 0
        for q, size in enumerate(balanced_sizes(n, L)):
            perm = lo + rng.permutation(size)
            lo += size
            own, guests = perm[:size // 2], perm[size // 2:]
            cut = np.array_split(guests, max(1, L - 1))
            by_writer = {}
            for w in range(L):
                lane = own if w == q else cut[(w - q - 1) % L]
                by_writer[w] = (lane[:len(lane) // 2], lane[len(lane) // 2:])
            lanes.append(by_writer)
            readable.append(np.concatenate([a for a, _b in by_writer.values()]))

        def blocks(s):  # block of each op: own for a random half of the
            # ops, a random other block for the other half (exactly half:
            # a coin per op would make the remote share itself a variable)
            remote = rng.permutation(ops) < (ops // 2 if L > 1 else 0)
            other = (s + 1 + rng.integers(0, max(1, L - 1), ops)) % L
            return np.where(remote, other, s)

        def pick(pools):
            return [int(pool[rng.integers(len(pool))]) for pool in pools]

        def values():
            return rng.integers(0, _VALUE_RANGE, ops).tolist()

        clients = []
        for s in range(L):
            writes = list(zip(pick([lanes[q][s][0] for q in blocks(s)]),
                              values()))
            reads = pick([readable[q] for q in blocks(s)])
            is_write = rng.random(ops) < 0.5
            mixed = [(g, v) if wr else (r, None) for wr, g, v, r in zip(
                is_write, pick([lanes[q][s][1] for q in blocks(s)]),
                values(), pick([readable[q] for q in blocks(s)]))]
            clients.append((writes, reads, mixed))
        return {"init": init, "clients": clients}

    def setup(self, ctx, inp, p):
        pa = PArray(ctx, p["n"], dtype=int)
        mine = [inp["clients"][s] for s in _my_shards(ctx, p["shards"])]
        return {"init": inp["init"], "pa": pa, "v": Array1DView(pa),
                "clients": mine, "checksum": 0}

    def reset(self, ctx, st):
        _seeded_generate(st["v"], st["init"])

    def body(self, ctx, st):
        pa = st["pa"]
        acc = 0
        for writes, _r, _m in st["clients"]:
            for g, v in writes:
                pa.set_element(g, v)
        ctx.rmi_fence()
        t_written = perf_counter()
        for _w, reads, _m in st["clients"]:
            for i, g in enumerate(reads):
                acc += (i + 1) * pa.get_element(g)
        ctx.rmi_fence()
        t_read = perf_counter()
        for _w, _r, mixed in st["clients"]:
            for i, (g, v) in enumerate(mixed):
                if v is None:
                    acc += (i + 1) * pa.get_element(g)
                else:
                    pa.set_element(g, v)
        st["checksum"] = acc
        return (), (t_written, t_read)

    def digest(self, ctx, st):
        return (_array_digest(1, st["pa"]) + st["checksum"]) & M64

    def reference(self, inp, p):
        init, clients = inp["init"], inp["clients"]
        idx = np.arange(len(init))

        def run():
            a = init.copy()
            acc = 0
            for writes, _r, _m in clients:
                for g, v in writes:
                    a[g] = v
            for _w, reads, _m in clients:
                for i, g in enumerate(reads):
                    acc += (i + 1) * int(a[g])
            for _w, _r, mixed in clients:
                for i, (g, v) in enumerate(mixed):
                    if v is None:
                        acc += (i + 1) * int(a[g])
                    else:
                        a[g] = v
            return (a, acc), ()

        return run, lambda out: (digest_pairs(1, idx, out[0]) + out[1]) & M64


class GraphBfs(Workload):
    """Per rep: build a bidirectional mesh pGraph plus seeded *chords* and
    run level-synchronous BFS from vertex 0.  A chord joins two vertices
    of one anti-diagonal (equal BFS level), so it adds irregular, mostly
    remote visitor traffic that differs with the seed but leaves every
    level — and the number of fences — unchanged."""

    name = "graph_bfs"
    phases = ("build_s", "traverse_s")
    sizes = {"full": {"rows": 32, "cols": 64, "chords": 256},
             "virtual_full": {"rows_per_loc": 4, "cols": 32,
                              "chords_per_loc": 16},
             "tiny": {"rows": 6, "cols": 8, "chords": 8},
             "virtual_tiny": {"rows_per_loc": 1, "cols": 8,
                              "chords_per_loc": 2}}

    def params(self, scale, seed, nlocs=None):
        p = super().params(scale, seed, nlocs)
        if nlocs is not None:
            p["rows"] = p.pop("rows_per_loc") * nlocs
            p["chords"] = p.pop("chords_per_loc") * nlocs
        return p

    def inputs(self, seed, p):
        rng = np.random.default_rng(seed)
        rows, cols = p["rows"], p["cols"]
        chords = []
        for _ in range(p["chords"]):
            r, c = int(rng.integers(rows)), int(rng.integers(cols))
            d = r + c
            r2 = int(rng.integers(max(0, d - cols + 1), min(rows - 1, d) + 1))
            u, v = r * cols + c, r2 * cols + (d - r2)
            if u != v:
                chords += [(u, v), (v, u)]
        return {"chords": chords}

    def setup(self, ctx, inp, p):
        edges = local_mesh_edges(p["rows"], p["cols"], ctx.id, ctx.nlocs)
        for s in _my_shards(ctx, p["shards"]):
            edges += inp["chords"][s::p["shards"]]
        return {"n": p["rows"] * p["cols"], "edges": edges, "g": None}

    def body(self, ctx, st):
        g = st["g"] = PGraph(ctx, st["n"], directed=True)
        g.add_edges_batch(st["edges"])
        ctx.rmi_fence()
        t_built = perf_counter()
        return graph_algorithms.bfs(g, 0), (t_built,)

    @staticmethod
    def _digest(vertices, levels) -> int:
        return digest_pairs(1, np.asarray(vertices, dtype=np.int64),
                            np.asarray(levels, dtype=np.int64))

    def digest(self, ctx, st):
        recs = [rec for bc in st["g"].local_bcontainers()
                for rec in bc.vertex_records()]
        return self._digest([r.vd for r in recs], [r.property for r in recs])

    def cleanup(self, ctx, st):
        st["g"].destroy()
        st["g"] = None

    def reference(self, inp, p):
        edges = mesh_edges(p["rows"], p["cols"]) + inp["chords"]
        n = p["rows"] * p["cols"]

        def run():
            adj: dict = {v: [] for v in range(n)}
            for u, v in edges:
                adj[u].append(v)
            level = {0: 0}
            frontier = deque([0])
            while frontier:
                u = frontier.popleft()
                for v in adj[u]:
                    if v not in level:
                        level[v] = level[u] + 1
                        frontier.append(v)
            return level, (len(level), max(level.values()) + 1)

        return run, lambda level: self._digest(list(level), list(level.values()))


WORKLOADS = {w.name: w for w in (ArrayPipeline(), StencilHalo(), WordCount(),
                                 MethodMix(), GraphBfs())}
