"""Per-run runtime configuration.

The paper's RTS decides aggregation/combining, address-resolution caching
and PARAGRAPH execution per run of a ``stapl_main``.  One immutable
:class:`RuntimeConfig` is handed to ``spmd_run(..., config=)``, stored on
the run's runtime (``Runtime.config`` / ``MpRuntime.config`` — it reaches
multiprocessing workers as an ordinary pickled launch argument) and
readable from a program as ``ctx.config``.  There is no process-wide state:
two runs in one process cannot affect each other.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RuntimeConfig:
    """The four per-run switches, all on by default.  The evaluation turns
    one off at a time to measure it head-to-head against the default."""

    #: buffer async container ops named in ``COMBINING_METHODS`` per
    #: destination and ship them as one bulk message per window (Ch. III.B);
    #: off, each op is its own async RMI
    combining: bool = True
    #: consult the per-location GID -> BCID lookup cache before charging a
    #: partition/directory lookup; off, every resolution is charged
    lookup_cache: bool = True
    #: multi-phase algorithms (sample sort, prefix sum, adjacent difference,
    #: SSSP) run as one dependence-driven PARAGRAPH; off, they run their
    #: fence-per-phase forms
    dataflow: bool = True
    #: chunks and slab helpers move contiguous ranges as one slab per owning
    #: location; off, one RMI per element
    bulk_transport: bool = True


__all__ = ["RuntimeConfig"]
