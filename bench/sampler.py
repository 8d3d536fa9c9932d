"""Sampling profile of where a pass spends its time, by nemosim function.

`Sampler` sets a CPU-time interval timer (`ITIMER_PROF`).  On each tick the
signal handler walks up from the interrupted frame to the first frame of a
nemosim module and counts one sample for that function, so time in stdlib
and C calls counts towards the nemosim function that made them.  Nothing is
wrapped: the pass runs at its normal speed apart from the handler, about a
thousand short calls per second of CPU time.
"""

from __future__ import annotations

import signal

INTERVAL_S = 0.001
PACKAGE = "nemosim."


class Sampler:
    def __init__(self):
        self.samples: dict[str, int] = {}   # "<module>.<qualname>" -> samples
        self.total = 0                      # every tick, in nemosim or not
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        self.total += 1
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith(PACKAGE):
                key = f"{module[len(PACKAGE):]}.{frame.f_code.co_qualname}"
                self.samples[key] = self.samples.get(key, 0) + 1
                return
            frame = frame.f_back

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def seconds(self, wall: float) -> dict[str, float]:
        """Each function's share of the ticks applied to the pass's wall time."""
        if not self.total:
            return {}
        return {name: n * wall / self.total for name, n in self.samples.items()}
