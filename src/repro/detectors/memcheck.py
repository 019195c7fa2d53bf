"""Shared address-classification logic for the memory checkers.

Both CCured (software) and iWatcher (hardware-assisted) detect the same
memory bug classes in our reproduction; what differs is the *cost
model* of their checks.  The classification itself -- which address
ranges are legal -- is Purify-style interval checking over red zones:

* heap objects carry 2-word red zones (allocator);
* global objects are laid out with 2-word gaps between them (compiler);
* freed objects stay poisoned until reuse;
* anything outside every region is a wild access.

See DESIGN.md for the pointer-provenance fidelity note.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.detectors.base import ReportKind

OK = None


class MemoryCheckLogic:
    """Classifies a data access as legal or as a bug-report kind."""

    def __init__(self, program, memory, allocator):
        self.memory = memory
        self.allocator = allocator
        # Sorted global-object intervals for binary search.
        objs = sorted(program.global_objects, key=lambda item: item[1])
        self._global_bases = [base for _name, base, _size in objs]
        self._global_limits = [base + size for _name, base, size in objs]
        self._globals_end = memory.monitor_base
        # Region boundaries are fixed for the run; caching them keeps
        # the per-access classification to integer compares + at most
        # one bisect, with no attribute chains.
        self._stack_limit = memory.stack_limit
        self._heap_base = allocator.heap_base
        self._monitor_base = memory.monitor_base
        self.global_ok = self._global_bitmap()

    def _global_bitmap(self):
        """One byte per word of ``[0, monitor_base)``: 1 where the
        globals interval check passes.

        The globals layout never changes during a run, so the checkers'
        hooks answer a global access with one index instead of a
        bisect.  Word ``a`` passes when the object with the last base
        ``<= a`` covers it, so each object marks only the span up to
        the next object's base -- the same verdict as the bisect.
        """
        end = self._monitor_base
        ok = bytearray(end)
        bases = self._global_bases
        for base, limit, next_base in zip(bases, self._global_limits,
                                          bases[1:] + [end]):
            stop = min(limit, next_base, end)
            if base < stop:
                ok[base:stop] = b'\x01' * (stop - base)
        return bytes(ok)

    def access_kind(self, addr):
        """:meth:`classify` for an address below ``stack_limit``.

        The checkers' hooks answer stack accesses themselves; this
        answers the monitor area and the globals in O(1) (region
        compares plus one ``global_ok`` index) and leaves only heap
        addresses, whose state malloc/free change, to :meth:`classify`.
        """
        if addr >= self._heap_base:
            return self.classify(addr)
        if addr >= self._monitor_base \
                or (addr >= 0 and self.global_ok[addr]):
            return OK
        return ReportKind.OVERRUN

    def classify(self, addr):
        """Return ``None`` if the access is legal, else a ReportKind."""
        if addr >= self._stack_limit:
            return OK                       # stack (frame-level: unchecked)
        if addr >= self._heap_base:
            kind = self.allocator.classify(addr)
            if kind == 'object':
                return OK
            if kind == 'redzone':
                return ReportKind.OVERRUN
            if kind == 'freed':
                return ReportKind.DANGLING
            return ReportKind.WILD
        if addr >= self._monitor_base:
            return OK                       # monitor memory area
        # Below the monitor area lies the globals segment
        # (``_globals_end == monitor_base``): interval-check it.
        index = bisect_right(self._global_bases, addr) - 1
        if index >= 0 and addr < self._global_limits[index]:
            return OK
        return ReportKind.OVERRUN           # gap between global objects
