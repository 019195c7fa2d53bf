"""The fast backend's process-wide block-code cache.

A cached block table must be indistinguishable from a freshly compiled
one (warm == cold), also when it is only partly warm -- blocks compile
on first dispatch, so one run leaves compiled exactly the blocks it
reached -- and its key must name every compile-time input of the
emitter: changing any one of them has to miss, never hit a table
compiled for different constants.
"""

from __future__ import annotations

from repro.apps.registry import ALL_APPS, get_app
from repro.core.cmp_detailed import _TakenView
from repro.core.config import Mode, PathExpanderConfig
from repro.core.engine import PathExpanderEngine
from repro.core.runner import make_detector, run_program
from repro.cpu.fastinterp import FastInterpreter, block_code_cache
from repro.cpu.syscalls import IOContext
from repro.cpu.timing import CostModel
from repro.memory.cache import Cache
from repro.resilience import events

# Same window as the backend equivalence matrix.
_INSTR_CAP = 25_000

_PROGRAMS = {}


def _program(name):
    if name not in _PROGRAMS:
        _PROGRAMS[name] = get_app(name).compile()
    return _PROGRAMS[name]


def _matrix():
    """The app x mode x detector cases of test_backend_equivalence."""
    return [(app_name, mode, detector_name)
            for app_name in sorted(ALL_APPS)
            for mode in Mode.ALL
            for detector_name in ('none',) + tuple(get_app(app_name).tools)]


def _run(case, backend):
    app_name, mode, detector_name = case
    app = get_app(app_name)
    text, ints = app.default_input()
    config = app.make_config(mode, backend=backend,
                             max_instructions=_INSTR_CAP)
    result = run_program(_program(app_name),
                         detector=make_detector(detector_name),
                         config=config, text_input=text, int_input=ints)
    return result.to_dict()


def test_warm_equals_cold_across_equivalence_matrix():
    cases = _matrix()
    reference = {case: _run(case, 'reference') for case in cases}
    events.clear()
    for case in cases:
        block_code_cache.clear()
        assert _run(case, 'fast') == reference[case], ('cold', case)
    # Warm, in the opposite order: tables are now reused across modes
    # and detectors of the same program.
    hits = block_code_cache.hits
    for case in reversed(cases):
        assert _run(case, 'fast') == reference[case], ('warm', case)
    assert block_code_cache.hits > hits
    # A wrongly shared table that crashes would be masked by graceful
    # degradation to the reference backend; none may have happened.
    assert events.recent('degraded_to_reference') == []


def _engine(program, mode=Mode.STANDARD, detector=None):
    config = PathExpanderConfig(mode=mode, backend='fast')
    return PathExpanderEngine(program, detector=detector, config=config)


def test_hit_sets_block_counts():
    program = _program('schedule')
    block_code_cache.clear()
    cold = _engine(program)
    cold.run()
    assert block_code_cache.hits == 0
    assert cold.interp.block_count > 0
    assert cold.interp.nt_block_count > 0
    warm = _engine(program)
    warm.run()
    assert block_code_cache.hits == 2          # taken + sandboxed
    assert warm.interp.block_count == cold.interp.block_count
    assert warm.interp.nt_block_count == cold.interp.nt_block_count
    assert not warm.interp.block_compile_failed


def _input_run(app_name, inputs, backend):
    """One standard-mode run of ``app_name`` on ``inputs``; returns
    its ``to_dict()`` and interpreter."""
    app = get_app(app_name)
    text, ints = inputs
    config = app.make_config(Mode.STANDARD, backend=backend,
                             max_instructions=_INSTR_CAP)
    engine = PathExpanderEngine(_program(app_name), config=config,
                                io=IOContext(text_input=text,
                                             int_input=ints))
    return engine.run().to_dict(), engine.interp


def test_partly_warm_tables():
    # bc_calc's seeded input 1 reaches blocks its default input never
    # does, on the taken path or inside NT-paths.
    app = get_app('bc_calc')
    input_a, input_b = app.default_input(), app.random_input(1)
    reference_b, _ = _input_run('bc_calc', input_b, 'reference')
    events.clear()
    block_code_cache.clear()
    _, interp = _input_run('bc_calc', input_a, 'fast')
    compiled_a = block_code_cache.compiled_blocks
    # Lazy: run A compiled only the blocks it reached.
    assert 0 < compiled_a < interp.block_count + interp.nt_block_count
    # Run B reuses both tables A left partly compiled and compiles the
    # blocks only it reaches.
    data_b, _ = _input_run('bc_calc', input_b, 'fast')
    assert data_b == reference_b
    assert block_code_cache.misses == 2
    assert block_code_cache.compiled_blocks > compiled_a
    # Repeating B finds every block it reaches compiled.
    compiled_b = block_code_cache.compiled_blocks
    data_b, _ = _input_run('bc_calc', input_b, 'fast')
    assert data_b == reference_b
    assert block_code_cache.compiled_blocks == compiled_b
    assert events.recent('degraded_to_reference') == []


def test_mode_is_not_in_the_key():
    program = _program('schedule')
    block_code_cache.clear()
    _engine(program, mode=Mode.STANDARD).run()
    misses = block_code_cache.misses
    for mode in (Mode.BASELINE, Mode.CMP, Mode.SOFTWARE):
        _engine(program, mode=mode).run()
    assert block_code_cache.misses == misses


def test_cache_is_bounded_lru():
    block_code_cache.clear()
    size = block_code_cache.size
    engine = _engine(_program('schedule'))
    for latency in range(size + 1):
        _build(engine, costs=CostModel(l1_hit=latency), cache=None)
    assert len(block_code_cache) == size
    assert _build(engine, costs=CostModel(l1_hit=0), cache=None) \
        == (0, 1)                              # oldest was evicted
    assert _build(engine, costs=CostModel(l1_hit=size), cache=None) \
        == (1, 0)


# ----------------------------------------------------------------------
# key completeness: one changed input, one miss


def _build(engine, sandboxed=False, **changes):
    """Build one block table for ``engine``'s program with some
    interpreter inputs replaced; returns (hits, misses) it caused."""
    parts = dict(program=engine.program, memory=engine.memory,
                 allocator=engine.allocator, core=engine.core,
                 io=engine.io, costs=engine.costs, cache=engine.cache,
                 detector=engine.detector)
    parts.update(changes)
    interp = FastInterpreter(**parts)
    hits, misses = block_code_cache.hits, block_code_cache.misses
    interp._build_fast_table(sandboxed=sandboxed)
    assert not interp.block_compile_failed
    assert (interp.nt_block_count if sandboxed else interp.block_count) > 0
    return block_code_cache.hits - hits, block_code_cache.misses - misses


def _assert_miss_on_change(base, changed):
    """``changed`` builds a different table than ``base``; ``base``
    still hits afterwards (the change, not eviction, caused the miss)."""
    engine = _engine(_program('schedule'))
    block_code_cache.clear()
    assert _build(engine, **base) == (0, 1)
    assert _build(engine, **base) == (1, 0)
    assert _build(engine, **changed) == (0, 1)
    assert _build(engine, **base) == (1, 0)


def _cache(**overrides):
    geometry = dict(size_bytes=16384, ways=4, line_bytes=32,
                    hit_latency=3, miss_latency=10)
    geometry.update(overrides)
    return Cache(**geometry)


def test_key_l1_hit_latency():
    # Without a cache model the L1 hit latency is baked into the source.
    _assert_miss_on_change(dict(cache=None),
                           dict(cache=None, costs=CostModel(l1_hit=4)))


def test_key_cache_line_size():
    _assert_miss_on_change(dict(cache=_cache()),
                           dict(cache=_cache(line_bytes=64)))


def test_key_cache_hit_latency():
    _assert_miss_on_change(dict(cache=_cache()),
                           dict(cache=_cache(hit_latency=4)))


def test_key_cost_table_entry():
    _assert_miss_on_change(dict(), dict(costs=CostModel(op_costs={'add': 2})))


def test_key_detector_present():
    _assert_miss_on_change(dict(detector=None),
                           dict(detector=make_detector('ccured')))


def test_key_sandboxed():
    _assert_miss_on_change(dict(sandboxed=False), dict(sandboxed=True))


def test_key_detailed_cmp_memory_view():
    engine = _engine(_program('schedule'))
    view = _TakenView(engine.memory, [])
    _assert_miss_on_change(dict(), dict(memory=view))


def test_key_program_content():
    block_code_cache.clear()
    assert _build(_engine(_program('schedule'))) == (0, 1)
    assert _build(_engine(_program('schedule2'))) == (0, 1)
    # Equal content compiled separately: same digest, shared table.
    assert _build(_engine(get_app('schedule').compile())) == (1, 0)
