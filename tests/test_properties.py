"""Property-based tests (hypothesis) on core invariants.

* the MiniC compiler's expression evaluation agrees with a Python
  oracle on randomly generated expressions;
* the memory journal rollback is an exact inverse of any write
  sequence;
* the CCured/iWatcher hooks' O(1) region tests give the verdict and
  cost that ``MemoryCheckLogic.classify`` implies, for any address;
* the allocator never hands out overlapping objects and survives
  snapshot/restore round trips;
* the cache's volatile accounting is consistent under random access
  streams;
* BTB counters saturate and never exceed 4 bits;
* PathExpander never changes a program's observable output, for
  arbitrary inputs.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btb.btb import COUNTER_MAX, BranchTargetBuffer
from repro.core.config import Mode, PathExpanderConfig
from repro.core.runner import run_program
from repro.detectors.base import ReportKind
from repro.detectors.ccured import CCuredDetector
from repro.detectors.iwatcher import IWatcherDetector
from repro.detectors.memcheck import MemoryCheckLogic
from repro.memory.allocator import HeapAllocator
from repro.memory.cache import Cache
from repro.memory.main_memory import NULL_GUARD, MainMemory
from repro.minic.codegen import compile_minic
from tests.conftest import run_minic

_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------
# expression oracle

_INT = st.integers(min_value=-50, max_value=50)
_NONZERO = st.integers(min_value=1, max_value=20)


def _expr_strategy(depth=0):
    leaves = st.one_of(
        _INT.map(lambda v: (str(v) if v >= 0 else '(0 - %d)' % -v, v)),
    )
    if depth >= 3:
        return leaves

    def combine(children):
        (ltext, lval), op, (rtext, rval) = children
        if op == '+':
            return ('(%s + %s)' % (ltext, rtext), lval + rval)
        if op == '-':
            return ('(%s - %s)' % (ltext, rtext), lval - rval)
        if op == '*':
            return ('(%s * %s)' % (ltext, rtext), lval * rval)
        if op == '<':
            return ('(%s < %s)' % (ltext, rtext), int(lval < rval))
        if op == '==':
            return ('(%s == %s)' % (ltext, rtext), int(lval == rval))
        return ('(%s & %s)' % (ltext, rtext), lval & rval)

    inner = _expr_strategy(depth + 1)
    composite = st.tuples(inner,
                          st.sampled_from(['+', '-', '*', '<', '==',
                                           '&']),
                          inner).map(combine)
    return st.one_of(leaves, composite)


class TestExpressionOracle:
    @_SETTINGS
    @given(_expr_strategy())
    def test_codegen_matches_python(self, pair):
        text, expected = pair
        result = run_minic('int main() { print_int(%s); return 0; }'
                           % text)
        assert not result.crashed
        assert int(result.output.strip()) == expected

    @_SETTINGS
    @given(_INT, _NONZERO)
    def test_c_division_semantics(self, numerator, divisor):
        result = run_minic(
            'int main() { print_int((%s) / %d); '
            'print_int((%s) %% %d); return 0; }'
            % ('0 - %d' % -numerator if numerator < 0 else numerator,
               divisor,
               '0 - %d' % -numerator if numerator < 0 else numerator,
               divisor))
        quotient, remainder = map(int, result.output.split())
        # C truncates toward zero
        expected_q = abs(numerator) // divisor
        if numerator < 0:
            expected_q = -expected_q
        assert quotient == expected_q
        assert remainder == numerator - expected_q * divisor


# ---------------------------------------------------------------------
# journal rollback

class TestJournalProperties:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=400, max_value=500),
                              st.integers(-1000, 1000)),
                    min_size=1, max_size=60))
    def test_rollback_is_exact_inverse(self, writes):
        # note: addresses must sit outside the monitor memory area,
        # which by design survives rollback
        mem = MainMemory(size=4096, globals_size=64)
        assert all(not mem.in_monitor_area(a) for a, _v in writes)
        for addr in range(400, 501):
            mem.write(addr, addr * 7)
        before = dict(mem.cells)
        mem.begin_journal()
        for addr, value in writes:
            mem.write(addr, value)
        mem.rollback()
        assert mem.cells == before

    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=400, max_value=500),
                              st.integers(-1000, 1000)),
                    min_size=1, max_size=60))
    def test_commit_keeps_final_values(self, writes):
        mem = MainMemory(size=4096, globals_size=64)
        mem.begin_journal()
        final = {}
        for addr, value in writes:
            mem.write(addr, value)
            final[addr] = value
        mem.commit_journal()
        for addr, value in final.items():
            assert mem.read(addr) == value


# ---------------------------------------------------------------------
# allocator

# ---------------------------------------------------------------------
# checker classification

_CHECKED_SRC = '''
int a[3];
char tag[5];
int b;
int table[7];
int main() { return 0; }
'''


class _HookInterp:
    """The interpreter attributes a detector's report path reads."""

    in_nt_path = False

    class core:
        pc = 0

    def __init__(self, program):
        self.program = program


def _checked_layout():
    """Globals with gaps, a live and a freed heap object, the monitor
    area and the stack, laid out as an engine lays them out."""
    program = compile_minic(_CHECKED_SRC, name='checked')
    memory = MainMemory(size=1 << 14, globals_size=program.globals_size,
                        stack_words=1 << 10)
    allocator = HeapAllocator(memory.heap_base, memory.stack_limit)
    live = allocator.malloc(6)
    freed = allocator.malloc(4)
    allocator.malloc(3)
    allocator.free(freed)
    return program, memory, allocator, live, freed


_LAYOUT = _checked_layout()


def _address_strategy():
    _program, memory, _allocator, live, freed = _LAYOUT
    return st.one_of(
        st.integers(-20, memory.monitor_limit + 4),      # globals, monitor
        st.integers(live - 4, freed + 12),               # heap objects
        st.integers(memory.stack_limit - 4, memory.size + 4),
        st.integers(-memory.size, 2 * memory.size))


class TestCheckerClassification:
    def test_layout_has_every_region(self):
        program, memory, allocator, live, freed = _LAYOUT
        logic = MemoryCheckLogic(program, memory, allocator)
        kinds = {logic.classify(addr) for addr in range(memory.size)}
        assert kinds == {None, ReportKind.OVERRUN, ReportKind.DANGLING,
                         ReportKind.WILD}
        gaps = [addr for addr in range(NULL_GUARD, memory.monitor_base)
                if logic.classify(addr) is not None]
        assert gaps

    def test_global_bitmap_matches_bisect(self):
        program, memory, allocator, _live, _freed = _LAYOUT
        logic = MemoryCheckLogic(program, memory, allocator)
        assert len(logic.global_ok) == memory.monitor_base
        for addr in range(memory.monitor_base):
            assert bool(logic.global_ok[addr]) == \
                (logic.classify(addr) is None)

    def test_global_bitmap_matches_bisect_on_overlaps(self):
        # The compiler never overlaps globals, but the bitmap must
        # still give the bisect's verdict: the object with the last
        # base at or below an address decides.
        class Overlapping:
            global_objects = [('outer', 20, 10), ('inner', 22, 2),
                              ('twin', 40, 3), ('twin2', 40, 6)]
        memory = MainMemory(size=4096, globals_size=64)
        allocator = HeapAllocator(memory.heap_base, memory.stack_limit)
        logic = MemoryCheckLogic(Overlapping, memory, allocator)
        for addr in range(memory.monitor_base):
            assert bool(logic.global_ok[addr]) == \
                (logic.classify(addr) is None), addr
        assert not logic.global_ok[25] and logic.global_ok[45]

    @_SETTINGS
    @given(st.lists(_address_strategy(), min_size=1, max_size=40),
           st.booleans())
    def test_hooks_agree_with_classify(self, addrs, store):
        program, memory, allocator, _live, _freed = _LAYOUT
        logic = MemoryCheckLogic(program, memory, allocator)
        interp = _HookInterp(program)
        for addr in addrs:
            kind = logic.classify(addr)
            expected = [] if kind is None else [kind]

            ccured = CCuredDetector()
            ccured.attach(program, memory, allocator)
            hook = ccured.on_store if store else ccured.on_load
            assert hook(addr, 0, interp) == ccured.check_cost
            assert ccured.checks_performed == 1
            assert [r.kind for r in ccured.reports] == expected

            iwatcher = IWatcherDetector()
            iwatcher.attach(program, memory, allocator)
            hook = iwatcher.on_store if store else iwatcher.on_load
            cost = hook(addr, 0, interp)
            assert cost == (0 if kind is None else iwatcher.trigger_cost)
            assert iwatcher.triggers == len(expected)
            assert [r.kind for r in iwatcher.reports] == expected


class TestAllocatorProperties:
    @_SETTINGS
    @given(st.lists(st.integers(min_value=1, max_value=32),
                    min_size=1, max_size=40))
    def test_live_objects_never_overlap(self, sizes):
        alloc = HeapAllocator(1000, 100_000)
        intervals = []
        for size in sizes:
            base = alloc.malloc(size)
            intervals.append((base, base + size))
        intervals.sort()
        for (a_start, a_end), (b_start, _b_end) in zip(intervals,
                                                       intervals[1:]):
            assert a_end <= b_start
        # every word of every object classifies as 'object'
        for start, end in intervals:
            assert alloc.classify(start) == 'object'
            assert alloc.classify(end - 1) == 'object'

    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=16),
                              st.booleans()),
                    min_size=1, max_size=30))
    def test_snapshot_restore_round_trip(self, script):
        alloc = HeapAllocator(1000, 100_000)
        live = []
        for size, do_free in script:
            base = alloc.malloc(size)
            live.append(base)
            if do_free and live:
                alloc.free(live.pop(0))
        snap = alloc.snapshot()
        classes = {base: alloc.classify(base) for base in live}
        # arbitrary churn after the snapshot
        for _ in range(10):
            alloc.malloc(8)
        for base in list(live):
            alloc.free(base)
        alloc.restore(snap)
        for base, kind in classes.items():
            assert alloc.classify(base) == kind


# ---------------------------------------------------------------------
# cache

class TestCacheProperties:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=511),
                              st.booleans(),
                              st.integers(min_value=0, max_value=3)),
                    min_size=1, max_size=100))
    def test_volatile_accounting(self, accesses):
        cache = Cache(size_bytes=256, ways=2, line_bytes=16)
        for addr, is_write, version in accesses:
            cache.access(addr, is_write, version)
        total_volatile = cache.volatile_lines()
        per_version = sum(cache.volatile_lines(v) for v in range(1, 4))
        assert total_volatile == per_version
        for version in range(1, 4):
            cache.gang_invalidate(version)
        assert cache.volatile_lines() == 0

    @_SETTINGS
    @given(st.lists(st.integers(min_value=0, max_value=255),
                    min_size=1, max_size=80))
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache(size_bytes=256, ways=2, line_bytes=16)
        for addr in addresses:
            cache.access(addr, False)
        assert cache.hits + cache.misses == len(addresses)


# ---------------------------------------------------------------------
# BTB

class TestBTBProperties:
    @_SETTINGS
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=63),
                              st.booleans()),
                    min_size=1, max_size=200))
    def test_counters_bounded(self, edges):
        btb = BranchTargetBuffer(entries=32, ways=2)
        for addr, taken in edges:
            btb.record_edge(addr, taken)
        for addr, taken in edges:
            count = btb.edge_count(addr, taken)
            assert 0 <= count <= COUNTER_MAX


# ---------------------------------------------------------------------
# end-to-end transparency

_TRANSPARENCY_SRC = '''
int log[16];
int main() {
  int a = read_int();
  int b = read_int();
  int total = 0;
  for (int i = 0; i < 24; i = i + 1) {
    if ((i + a) % 3 == 0) { total = total + i; }
    else if ((i + b) % 5 == 0) { total = total - 1; }
    if (total > 40) { total = total / 2; }
    log[i & 15] = total;
  }
  print_int(total);
  print_int(log[7]);
  return 0;
}
'''


class TestTransparencyProperty:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=1000))
    def test_pathexpander_never_changes_output(self, a, b):
        program = compile_minic(_TRANSPARENCY_SRC, name='transparency')
        baseline = run_program(
            program, config=PathExpanderConfig(mode=Mode.BASELINE),
            int_input=[a, b])
        for mode in (Mode.STANDARD, Mode.CMP):
            expanded = run_program(
                program, config=PathExpanderConfig(mode=mode),
                int_input=[a, b])
            assert expanded.output == baseline.output
            assert expanded.exit_code == baseline.exit_code
            assert not expanded.crashed
