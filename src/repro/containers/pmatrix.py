"""pMatrix: two-dimensional indexed pContainer (Ch. V.F, [15]).

GIDs are (row, col) pairs over a :class:`Range2DDomain`; the default
partition is a near-square processor grid of dense 2D blocks; row-, column-
and linearised views are provided in :mod:`repro.views.matrix_views`.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.base_containers import Matrix2DBC
from ..core.domains import Range2DDomain
from ..core.partitions import Matrix2DPartition
from ..core.pcontainer import SLAB_ACCESS_FACTOR, PContainerIndexed
from ..core.redistribution import RedistributableMixin
from ..core.traits import Traits


def default_grid(p: int) -> tuple:
    """Near-square (pr, pc) grid with pr*pc == p."""
    pr = int(math.sqrt(p))
    while pr > 1 and p % pr:
        pr -= 1
    return pr, p // pr


class PMatrix(RedistributableMixin, PContainerIndexed):
    """Distributed dense matrix."""

    def __init__(self, ctx, rows: int, cols: int, value=0.0, partition=None,
                 traits: Traits | None = None, group=None, dtype=float,
                 order: str = "row"):
        super().__init__(ctx, traits, group)
        domain = Range2DDomain((0, 0), (rows, cols), order=order)
        self._fill_value = value
        self._dtype = dtype
        if partition is None:
            pr, pc = default_grid(len(self.group))
            partition = Matrix2DPartition(pr, pc)
        self.init(domain, partition)
        self._cached_size = domain.size()
        self._ctor_done()

    def _default_bcontainer(self, subdomain, bcid):
        return Matrix2DBC(subdomain, bcid, fill=self._fill_value,
                          dtype=self._dtype)

    # -- shape ------------------------------------------------------------
    @property
    def domain(self) -> Range2DDomain:
        return self._dist.partition.get_domain()

    @property
    def rows(self) -> int:
        return self.domain.rows

    @property
    def cols(self) -> int:
        return self.domain.cols

    # -- bulk block transport (2D range accessors) --------------------------
    def _block_pieces(self, r0, r1, c0, c1):
        """(bcid, rr0, rr1, cc0, cc1) for every sub-block intersecting the
        rectangle ``[r0, r1) x [c0, c1)``."""
        p = self._dist.partition
        pieces = []
        for bcid in range(p.size()):
            sub = p.get_sub_domain(bcid)
            rr0, rr1 = max(r0, sub.r0), min(r1, sub.r1)
            cc0, cc1 = max(c0, sub.c0), min(c1, sub.c1)
            if rr0 < rr1 and cc0 < cc1:
                pieces.append((bcid, rr0, rr1, cc0, cc1))
        return pieces

    def _check_block(self, r0, r1, c0, c1) -> None:
        dom = self.domain
        if r0 < dom.r0 or r1 > dom.r1 or c0 < dom.c0 or c1 > dom.c1:
            raise IndexError(
                f"block [{r0},{r1}) x [{c0},{c1}) outside {dom}")

    def get_block(self, r0, r1, c0, c1) -> np.ndarray:
        """Gather the dense rectangle ``[r0, r1) x [c0, c1)``: one bulk
        round trip per remotely-owned sub-block."""
        if r1 > r0 and c1 > c0:
            self._check_block(r0, r1, c0, c1)
        loc = self.here
        out = np.zeros((max(0, r1 - r0), max(0, c1 - c0)), dtype=self._dtype)
        mapper = self._dist.mapper
        for bcid, rr0, rr1, cc0, cc1 in self._block_pieces(r0, r1, c0, c1):
            owner = mapper.map(bcid)
            n = (rr1 - rr0) * (cc1 - cc0)
            block = self._piece_transfer(
                owner, n,
                lambda: self.location_manager.get_bcontainer(bcid)
                            .get_block(rr0, rr1, cc0, cc1),
                lambda: loc.bulk_get_range(
                    owner, self.handle, "_bulk_get_block",
                    bcid, rr0, rr1, cc0, cc1, nelems=n))
            out[rr0 - r0:rr1 - r0, cc0 - c0:cc1 - c0] = block
        return out

    def set_block(self, r0, c0, block) -> None:
        """Scatter a dense block whose top-left corner is ``(r0, c0)``;
        remote sub-blocks are asynchronous (complete at the next fence)."""
        loc = self.here
        block = np.asarray(block)
        r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
        if block.size:
            self._check_block(r0, r1, c0, c1)
        mapper = self._dist.mapper
        for bcid, rr0, rr1, cc0, cc1 in self._block_pieces(r0, r1, c0, c1):
            owner = mapper.map(bcid)
            piece = block[rr0 - r0:rr1 - r0, cc0 - c0:cc1 - c0]
            self._piece_transfer(
                owner, piece.size,
                lambda: self.location_manager.get_bcontainer(bcid)
                            .set_block(rr0, cc0, piece),
                lambda: loc.bulk_set_range(
                    owner, self.handle, "_bulk_set_block",
                    bcid, rr0, cc0, piece, nelems=piece.size))

    def _bulk_get_block(self, bcid, r0, r1, c0, c1):
        loc = self.here
        loc.charge(loc.machine.t_access * SLAB_ACCESS_FACTOR
                   * (r1 - r0) * (c1 - c0))
        bc = self.location_manager.get_bcontainer(bcid)
        rt = self.runtime
        if not rt.shared_address_space and rt.current_origin != self.here.id:
            # cross-process bulk reply: same zero-copy seam as
            # PContainer._bulk_get_range (see there for the safety rules)
            ref = getattr(bc, "get_block_ref", None)
            if ref is not None:
                return ref(r0, r1, c0, c1)
        return bc.get_block(r0, r1, c0, c1)

    def _bulk_set_block(self, bcid, r0, c0, block) -> None:
        loc = self.here
        loc.charge(loc.machine.t_access * SLAB_ACCESS_FACTOR
                   * np.asarray(block).size)
        self.location_manager.get_bcontainer(bcid).set_block(r0, c0, block)

    # -- row/column access (one slab per owning block) ----------------------
    def get_row(self, r) -> list:
        """Gather row ``r`` (one bulk fetch per owning block)."""
        dom = self.domain
        return self.get_block(r, r + 1, dom.c0, dom.c1).ravel().tolist()

    def get_col(self, c) -> list:
        """Gather column ``c`` (one bulk fetch per owning block)."""
        dom = self.domain
        return self.get_block(dom.r0, dom.r1, c, c + 1).ravel().tolist()

    def to_nested(self) -> list:
        """Gather the full matrix as a list of rows (collective; test aid)."""
        local = []
        for bc in self.local_bcontainers():
            d = bc.domain
            local.append(((d.r0, d.c0), bc.values().tolist()))
        gathered = self.ctx.allgather_rmi(local, group=self.group)
        out = [[None] * self.cols for _ in range(self.rows)]
        for per_loc in gathered:
            for (r0, c0), block in per_loc:
                for i, rowvals in enumerate(block):
                    for j, v in enumerate(rowvals):
                        out[r0 + i][c0 + j] = v
        return out
