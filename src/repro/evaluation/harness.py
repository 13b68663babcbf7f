"""Evaluation harness (Ch. VIII): the method-evaluation kernel of Fig. 24
and utilities shared by every figure driver.

Every driver returns an :class:`ExperimentResult` — a titled table whose
rows are the series the corresponding paper figure plots, measured in
deterministic virtual microseconds from the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime import spmd_run_detailed


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    name: str
    columns: list
    rows: list = field(default_factory=list)
    notes: str = ""

    def add(self, *row) -> None:
        self.rows.append(tuple(row))

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [r[i] for r in self.rows]

    def format_table(self) -> str:
        def fmt(v):
            if isinstance(v, float):
                return f"{v:.2f}"
            return str(v)

        cells = [[fmt(c) for c in self.columns]] + [
            [fmt(v) for v in row] for row in self.rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = [f"== {self.name} =="]
        for j, row in enumerate(cells):
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready form (the ``--out`` stats artifact of the CLI)."""
        return {"name": self.name, "columns": list(self.columns),
                "rows": [list(r) for r in self.rows], "notes": self.notes}

    def show(self) -> None:
        print(self.format_table())


def run_spmd_report(fn, nlocs: int, machine="cray4", args: tuple = (),
                    placement: str = "packed", backend: str = "simulated",
                    config=None, **backend_opts):
    """Run an SPMD program and return the full :class:`SpmdReport`
    (results, virtual clocks, stats, wall-clock seconds, backend name).

    The default is the deterministic simulator; figure drivers pass
    ``backend="multiprocessing"`` to run the same program on real OS
    processes and report wall-clock time next to the virtual clocks, and
    ``config=RuntimeConfig(...)`` for the ablated leg of a comparison."""
    return spmd_run_detailed(fn, nlocs=nlocs, machine=machine, args=args,
                             placement=placement, backend=backend,
                             config=config, **backend_opts)


def run_spmd_timed(fn, nlocs: int, machine="cray4", args: tuple = (),
                   placement: str = "packed", backend: str = "simulated",
                   config=None, **backend_opts):
    """Run an SPMD program and return (per-location results, max virtual
    clock in us, aggregate stats)."""
    rep = run_spmd_report(fn, nlocs, machine, args, placement,
                          backend=backend, config=config, **backend_opts)
    return rep.results, rep.max_clock, rep.stats.total


def method_kernel(container_factory, op, n_per_loc: int):
    """Fig. 24: build the container, then concurrently perform ``n_per_loc``
    method invocations per location inside a timed region closed by a fence.
    ``op(container, ctx, i)`` performs invocation *i*.  Returns the SPMD
    function; run it with :func:`run_spmd_timed`."""

    def prog(ctx):
        container = container_factory(ctx)
        ctx.rmi_fence()
        t0 = ctx.start_timer()
        for i in range(n_per_loc):
            op(container, ctx, i)
        ctx.rmi_fence()
        return ctx.stop_timer(t0)

    return prog


def scaling_columns(p_list, times, weak: bool = False):
    """Derive ``(speedups, efficiencies)`` from a scaling series.

    ``times[i]`` is the measured time at ``p_list[i]`` processors; the
    smallest entry (normally P=1) is the base.  Both columns are normalised
    so the ideal value of efficiency is 1.0 and of speedup is ``P``:

    * strong scaling (fixed total N): ``speedup = T_b/T_P * P_b``,
      ``efficiency = speedup / P``;
    * weak scaling (fixed N per location, ``weak=True``): the work grows
      with P, so ``efficiency = T_b / T_P`` (scaled efficiency) and
      ``speedup = efficiency * P`` (scaled speedup).
    """
    if len(p_list) != len(times):
        raise ValueError("p_list and times must have equal length")
    base_p, base_t = p_list[0], times[0]
    speedups, efficiencies = [], []
    for p, t in zip(p_list, times):
        ratio = base_t / t if t else 0.0
        if weak:
            eff = ratio
            sp = eff * p / base_p
        else:
            sp = ratio * base_p
            eff = sp / p
        speedups.append(round(sp, 3))
        efficiencies.append(round(eff, 3))
    return speedups, efficiencies


def max_time(results) -> float:
    """The paper reports the max time over processors."""
    return max(results)


def per_op_us(results, n_per_loc: int) -> float:
    return max(results) / max(1, n_per_loc)
