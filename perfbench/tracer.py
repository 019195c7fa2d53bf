"""Layer spans recorded from outside the program.

:class:`Tracer` replaces the layer entry points named in ``LAYER_SPANS``
with wrappers that time each call on one in-memory stack.  A span's
self time is its duration minus the spans nested in it, so the self
times of all spans never sum to more than the time they were open in.
Wrappers are installed on the classes before any engine is built:
engines and block tables bind these methods at construction (the
engine's branch callback, the fast backend's detector hooks), so
patching afterwards would miss them.

Counters that the program keeps on its own objects (blocks compiled,
cache hits and misses) are read after every ``PathExpanderEngine.run``.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, class, method, layer span).  Spans of one layer add up.
LAYER_SPANS = (
    ('repro.apps.registry', 'AppSpec', 'compile', 'minic.compile'),
    ('repro.cpu.fastinterp', 'FastInterpreter', '_build_fast_table',
     'cpu.block_build'),
    ('repro.cpu.fastinterp', '_BlockCompiler', 'compile', 'cpu.block_emit'),
    ('repro.core.engine', 'PathExpanderEngine', '__init__',
     'engine.construct'),
    ('repro.core.engine', 'PathExpanderEngine', 'run', 'engine.run'),
    ('repro.core.engine', 'PathExpanderEngine', '_run_nt_path',
     'engine.nt'),
    ('repro.core.engine', 'PathExpanderEngine', '_on_branch',
     'btb.branch'),
    ('repro.memory.main_memory', 'MainMemory', '__init__', 'memory.alloc'),
    ('repro.memory.main_memory', 'MainMemory', 'rollback',
     'memory.rollback'),
    ('repro.memory.checkpoint', 'Checkpoint', 'restore', 'memory.rollback'),
    ('repro.memory.cache', 'Cache', 'gang_invalidate', 'memory.rollback'),
    ('repro.detectors.ccured', 'CCuredDetector', 'on_load',
     'detectors.hook'),
    ('repro.detectors.ccured', 'CCuredDetector', 'on_store',
     'detectors.hook'),
)

# The parent-side entry points of the job layer (pool workers run in
# other processes and are measured by the serial pass instead).
JOB_SPANS = (
    ('repro.jobs.pool', 'JobPool', 'run', 'jobs.pass'),
    ('repro.jobs.store', 'ResultStore', 'put', 'jobs.store_put'),
    ('repro.jobs.store', 'ResultStore', 'get', 'jobs.store_get'),
    ('repro.core.result', 'RunResult', 'from_dict', 'jobs.decode'),
)

class Tracer:
    """Span totals per layer plus the counters read after each run."""

    def __init__(self):
        self.self_s = {}
        self.incl_s = {}
        self.calls = {}
        self.pass_s = []          # duration of each JobPool.run call
        self.build_keys = set()
        self.counts = {'cpu.blocks_compiled': 0,
                       'cpu.compile_failed_runs': 0,
                       'memory.cache_hits': 0,
                       'memory.cache_misses': 0}
        self._stack = []
        self._mode = None

    # ------------------------------------------------------------------

    def install(self, spans):
        for module_name, class_name, method, layer in spans:
            owner = getattr(importlib.import_module(module_name), class_name)
            span = self._wrap(getattr(owner, method), layer)
            if isinstance(owner.__dict__[method], classmethod):
                span = staticmethod(span)   # wraps the bound classmethod
            setattr(owner, method, span)

    def _wrap(self, original, layer):
        stack = self._stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        for table in (self_s, incl_s, calls):
            table.setdefault(layer, 0)
        before, after = {
            'engine.run': (self._before_run, self._after_run),
            'cpu.block_build': (self._before_build, None),
            'jobs.pass': (None, self._after_pass),
        }.get(layer, (None, None))

        @functools.wraps(original)
        def span(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            stack.append(0.0)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[layer] += elapsed - nested
                incl_s[layer] += elapsed
                calls[layer] += 1
                if after is not None:
                    after(args[0], elapsed)
        return span

    # -- counters read around engine runs and pool passes ----------------

    def _before_run(self, engine):
        self._mode = engine.config.mode

    def _before_build(self, interp, sandboxed=False):
        detector = type(interp.detector).__name__ \
            if interp.detector is not None else None
        self.build_keys.add((interp.program.name, bool(sandboxed),
                             detector, self._mode))

    def _after_pass(self, _pool, elapsed):
        self.pass_s.append(elapsed)

    def _after_run(self, engine, _elapsed):
        interp = engine.interp
        counts = self.counts
        counts['cpu.blocks_compiled'] += \
            getattr(interp, 'block_count', 0) \
            + getattr(interp, 'nt_block_count', 0)
        if getattr(interp, 'block_compile_failed', False):
            counts['cpu.compile_failed_runs'] += 1
        if engine.cache is not None:
            counts['memory.cache_hits'] += engine.cache.hits
            counts['memory.cache_misses'] += engine.cache.misses

    # ------------------------------------------------------------------

    def snapshot(self):
        """Plain-data copy of every total, for differencing windows."""
        return {'self_s': dict(self.self_s), 'incl_s': dict(self.incl_s),
                'calls': dict(self.calls), 'counts': dict(self.counts),
                'build_keys': len(self.build_keys),
                'pass_s': list(self.pass_s)}
