"""iWatcher-style hardware-assisted dynamic memory checker.

iWatcher [41] associates monitoring functions with memory ranges; the
hardware triggers the check only when a watched word is touched, so
untriggered accesses are free.  We watch the same illegal intervals the
CCured model checks (red zones, freed objects, global gaps), but the
cost model is hardware-like: zero cycles unless a watchpoint fires.
"""

from __future__ import annotations

from repro.detectors.base import Detector, ReportKind
from repro.detectors.memcheck import MemoryCheckLogic


class IWatcherDetector(Detector):

    name = 'iwatcher'

    def __init__(self, trigger_cost=30):
        super().__init__()
        self.trigger_cost = trigger_cost
        self._logic = None
        self.triggers = 0
        # Stack accesses are unchecked; see CCuredDetector.
        self._stack_limit = 0

    def attach(self, program, memory, allocator):
        self._logic = MemoryCheckLogic(program, memory, allocator)
        self._stack_limit = memory.stack_limit

    def _check(self, addr, interp, op):
        kind = self._logic.access_kind(addr)
        if kind is None:
            return 0
        self.triggers += 1
        self._report_access(kind, interp, op, addr)
        return self.trigger_cost

    def on_load(self, addr, value, interp):
        if addr >= self._stack_limit:
            return 0
        return self._check(addr, interp, 'load')

    def on_store(self, addr, value, interp):
        if addr >= self._stack_limit:
            return 0
        return self._check(addr, interp, 'store')

    def on_free(self, addr, ok, interp):
        if not ok:
            self.triggers += 1
            self._report(ReportKind.INVALID_FREE, interp,
                         detail='free(%d)' % addr, mem_addr=addr)
            return self.trigger_cost
        return 0
