"""Workload and metric definitions of the repository benchmark.

A workload turns a seed into a list of :class:`repro.jobs.JobSpec`
through the public API only (``AppSpec.random_input`` and
``JobSpec.for_app``); the simulator never sees the seed itself.  The
metric tables here are the single source of the names, units and
bounds that ``record.py`` writes into ``BENCHMARK.json``.

Importing this module imports nothing from ``repro``: the spec builders
import it lazily, so the runner process stays free of the package it
measures.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1
HELD_OUT_SEED = 101
# Seconds of fresh-process repeats per run (and again for traced ones).
RUN_SECONDS = 20

SIEMENS_APPS = ('print_tokens', 'print_tokens2', 'schedule', 'schedule2',
                'bc_calc')
# Inputs per Siemens app: enough jobs that per-input variation averages
# out, few enough that several fresh-process repeats fit one run.
SIEMENS_INPUTS_PER_APP = 6

# The long apps' work parameters are raised past what any seed needs
# to fill the instruction budget (config ``max_instructions``, counted
# over taken and NT-path instructions), so every job simulates the same
# number of instructions whatever the seed: random_input's own move and
# sweep counts give 0.3-1M instructions, and vpr's run length grows
# with its seeded net count.  Index -3 of both apps' integer input is
# the work parameter: vpr's placement sweeps, go's move count.
WORK = {'vpr_app': 120, 'go_app': 40}
LONG_BUDGET = 1_500_000
POOLED_BUDGET = 300_000

MONITORED_MODES = ('baseline', 'standard', 'cmp')
# One pool worker per core of the 2-core machine the baseline ran on.
POOL_WORKERS = 2

WORKLOADS = {
    'siemens_multi_input': (
        'Fig. 8 shape: five Siemens apps x 6 seeded inputs, standard '
        'mode, no detector, serial; short runs, so block build dominates'),
    'long_monitored': (
        'Fig. 9 shape: vpr and go under CCured in baseline, standard and '
        'cmp, serial, 1.5M-instruction budget each; dispatch, cache model, '
        'hooks and branch handling dominate'),
    'pooled_batch': (
        'Fig. 7+9 shape: 10 apps x 4 configs through JobPool(jobs=2) '
        'into a fresh ResultStore, then resubmitted warm; the only '
        'workload crossing the jobs layer'),
}

SERIAL_WORKLOADS = ('siemens_multi_input', 'long_monitored')

# (name, unit, better, bound) -- bound is the share of the parent's
# median a metric may worsen by before a change counts as a regression.
END_TO_END = (
    ('wall_s', 's', 'lower', 0.25),
    ('setup_s', 's', 'lower', 0.25),
    ('sim_mips', 'Minstr/s', 'higher', 0.25),
    ('job_p50_ms', 'ms', 'lower', 0.25),
    ('peak_rss_mb', 'MB', 'lower', 0.1),
)

# (name, unit, better).  Every ``*_s`` time is self time (span duration
# minus the nested spans), except cpu.block_build_s, which includes its
# cpu.block_emit_s part.
PER_LAYER = (
    ('minic.compile_s', 's', 'lower'),
    ('minic.programs', 'count', 'lower'),
    ('cpu.block_build_s', 's', 'lower'),
    ('cpu.block_emit_s', 's', 'lower'),
    ('cpu.block_build_share', 'ratio', 'lower'),
    ('cpu.block_builds', 'count', 'lower'),
    ('cpu.blocks_compiled', 'count', 'lower'),
    ('cpu.compile_failed_runs', 'count', 'lower'),
    ('cpu.build_unique_ratio', 'ratio', 'higher'),
    ('engine.construct_s', 's', 'lower'),
    ('engine.run_self_s', 's', 'lower'),
    ('engine.nt_s', 's', 'lower'),
    ('engine.nt_paths', 'count', 'lower'),
    ('memory.alloc_s', 's', 'lower'),
    ('memory.rollback_s', 's', 'lower'),
    ('memory.cache_accesses', 'count', 'lower'),
    ('memory.cache_miss_ratio', 'ratio', 'lower'),
    ('detectors.hook_calls', 'count', 'lower'),
    ('detectors.hook_s', 's', 'lower'),
    ('btb.branch_calls', 'count', 'lower'),
    ('btb.branch_s', 's', 'lower'),
    ('jobs.cold_pass_s', 's', 'lower'),
    ('jobs.warm_pass_s', 's', 'lower'),
    ('jobs.worker_busy_frac', 'ratio', 'higher'),
    ('jobs.store_put_s', 's', 'lower'),
    ('jobs.store_get_s', 's', 'lower'),
    ('jobs.decode_s', 's', 'lower'),
    ('jobs.cache_hits', 'count', 'higher'),
    ('jobs.retries', 'count', 'lower'),
    ('jobs.serial_fallbacks', 'count', 'lower'),
    ('jobs.hung_worker_kills', 'count', 'lower'),
    ('jobs.failed_frac', 'ratio', 'lower'),
    ('resilience.degraded_runs', 'count', 'lower'),
    ('sim.instret_taken', 'count', 'lower'),
    ('sim.instret_nt', 'count', 'lower'),
    ('sim.cycles', 'count', 'lower'),
    ('sim.nt_spawned', 'count', 'lower'),
    ('sim.covered_edges', 'count', 'higher'),
    ('memory.journal_entries', 'count', 'lower'),
    ('trace.overhead_ratio', 'ratio', 'lower'),
    ('trace.unattributed_s', 's', 'lower'),
)

def _input(app, job_seed):
    """``app.random_input(job_seed)`` with the work parameter raised."""
    text, ints = app.random_input(job_seed)
    if app.name in WORK:
        ints = list(ints)
        ints[-3] = WORK[app.name]
    return text, ints


def build_specs(workload, seed):
    """The workload's job specs, in submission order, for ``seed``."""
    from repro.apps.registry import WORKLOAD_APP_NAMES, get_app
    from repro.jobs import JobSpec

    if workload not in WORKLOADS:
        raise ValueError('unknown workload %r' % workload)
    rng = random.Random('%s:%d' % (workload, seed))
    specs = []
    if workload == 'siemens_multi_input':
        for name in SIEMENS_APPS:
            app = get_app(name)
            for _ in range(SIEMENS_INPUTS_PER_APP):
                text, ints = _input(app, rng.randrange(1 << 30))
                specs.append(JobSpec.for_app(
                    name, mode='standard', detector='none',
                    text_input=text, int_input=ints))
    elif workload == 'long_monitored':
        for name in ('vpr_app', 'go_app'):
            app = get_app(name)
            text, ints = _input(app, rng.randrange(1 << 30))
            for mode in MONITORED_MODES:
                specs.append(JobSpec.for_app(
                    name, mode=mode, detector='ccured',
                    config_overrides={'max_instructions': LONG_BUDGET},
                    text_input=text, int_input=ints))
    else:
        for name in WORKLOAD_APP_NAMES:
            app = get_app(name)
            text, ints = _input(app, rng.randrange(1 << 30))
            budget = {'max_instructions': POOLED_BUDGET}
            specs.append(JobSpec.for_app(
                name, mode='standard', detector='none',
                config_overrides=budget, text_input=text, int_input=ints))
            for mode in MONITORED_MODES:
                specs.append(JobSpec.for_app(
                    name, mode=mode, detector='ccured',
                    config_overrides=budget, text_input=text,
                    int_input=ints))
    return specs
