"""Split-phase futures (the paper's ``pc_future``, Ch. V.B / VII.B).

A split-phase method returns immediately with a :class:`Future`.  Invoking
``get()`` returns the value if it is available or blocks in the runtime's
``wait`` until the request has executed — the simulator *forces progress* on
the (src, dst) channel, real processes service traffic until the reply
arrives.  Per the completion
guarantees, the acknowledgment is also received at a fence or when a
subsequent sync method on the same element completes.
"""

from __future__ import annotations


class Future:
    """Handle for the result of a split-phase RMI."""

    __slots__ = ("_runtime", "_src", "_dst", "ready", "value", "ready_time")

    def __init__(self, runtime, src: int, dst: int):
        self._runtime = runtime
        self._src = src
        self._dst = dst
        self.ready = False
        self.value = None
        self.ready_time = 0.0

    def _resolve(self, value, ready_time: float) -> None:
        self.value = value
        self.ready_time = ready_time
        self.ready = True

    def test(self) -> bool:
        """Non-blocking readiness check."""
        return self.ready

    def get(self):
        """Block (force progress) until the result is available.

        The waiting location's virtual clock advances to at least the time
        the reply arrives, so overlapping useful work between issue and
        ``get()`` is rewarded by the cost model — the benefit the paper
        attributes to split-phase execution.
        """
        rt = self._runtime
        if not self.ready:
            rt.wait(self)
        if not self.ready:  # pragma: no cover - defensive
            raise RuntimeError("split-phase request lost: future never resolved")
        loc = rt.current_location
        if loc.clock < self.ready_time:
            loc.clock = self.ready_time
        return self.value


# Alias matching the paper's spelling of the return type.
pc_future = Future
