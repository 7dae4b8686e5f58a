"""Registries that keep only their live entries.

Long-lived owners — the simulator, a host that never crashes, a shared
service's listener — track every process or stream they ever created so
a crash, a ``stop()`` or a deadlock diagnostic can walk them.  Only the
live entries matter to those walks; the dead ones would otherwise pin
each finished job's whole object graph until the owner itself goes
away.  A :class:`LiveList` forgets them, amortized: once the list has
doubled since its last sweep, the next append drops every dead entry in
one pass, so the cost per append stays constant and the list stays
within twice its live size (plus a small floor).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Optional

__all__ = ["LiveList", "process_list"]

#: lists shorter than this are never swept: a handful of dead entries
#: is cheaper to keep than to filter out on every other append
SWEEP_FLOOR = 32


class LiveList(list):
    """A list whose :meth:`append` periodically drops dead entries.

    ``alive(entry)`` says whether an entry is still live; ``retire`` (if
    given) is called on each entry as it is dropped, before it goes.
    Survivors keep their relative order, so walks over the list see the
    live entries in the same sequence as before the sweep.
    """

    __slots__ = ("_alive", "_retire", "_sweep_at")

    def __init__(
        self,
        alive: Callable[[Any], bool],
        retire: Optional[Callable[[Any], None]] = None,
    ) -> None:
        super().__init__()
        self._alive = alive
        self._retire = retire
        self._sweep_at = SWEEP_FLOOR

    def append(self, entry: Any) -> None:
        list.append(self, entry)
        if len(self) >= self._sweep_at:
            self._sweep()

    def _sweep(self) -> None:
        alive, retire = self._alive, self._retire
        keep = []
        for entry in self:
            if alive(entry):
                keep.append(entry)
            elif retire is not None:
                retire(entry)
        self[:] = keep
        self._sweep_at = max(SWEEP_FLOOR, 2 * len(keep))


def process_list() -> LiveList:
    """A list of simulated processes that forgets the finished ones."""
    return LiveList(attrgetter("alive"))
