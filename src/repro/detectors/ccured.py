"""CCured-style software-only dynamic memory checker.

Models the dynamic half of CCured [27]: every load and store is guarded
by an inserted software check.  The check costs
``check_cost`` cycles, which is what makes CCured a *software* tool in
the overhead comparison; the detection power is the interval/red-zone
logic shared with iWatcher (see ``memcheck.py``).
"""

from __future__ import annotations

from repro.detectors.base import Detector, ReportKind
from repro.detectors.memcheck import MemoryCheckLogic


class CCuredDetector(Detector):

    name = 'ccured'

    def __init__(self, check_cost=5, free_check_cost=12):
        super().__init__()
        self.check_cost = check_cost
        self.free_check_cost = free_check_cost
        self._logic = None
        self.checks_performed = 0
        # Stack accesses (at or above ``stack_limit``) are unchecked,
        # so the hooks answer them with one compare; everything else
        # goes to ``MemoryCheckLogic.access_kind``.
        self._stack_limit = 0

    def attach(self, program, memory, allocator):
        self._logic = MemoryCheckLogic(program, memory, allocator)
        self._stack_limit = memory.stack_limit

    def on_load(self, addr, value, interp):
        self.checks_performed += 1
        if addr < self._stack_limit:
            kind = self._logic.access_kind(addr)
            if kind is not None \
                    and (kind, interp.core.pc) not in self._seen_sites:
                self._report_access(kind, interp, 'load', addr)
        return self.check_cost

    def on_store(self, addr, value, interp):
        self.checks_performed += 1
        if addr < self._stack_limit:
            kind = self._logic.access_kind(addr)
            if kind is not None \
                    and (kind, interp.core.pc) not in self._seen_sites:
                self._report_access(kind, interp, 'store', addr)
        return self.check_cost

    def on_free(self, addr, ok, interp):
        self.checks_performed += 1
        if not ok:
            self._report(ReportKind.INVALID_FREE, interp,
                         detail='free(%d)' % addr, mem_addr=addr)
        return self.free_check_cost
