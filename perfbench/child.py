"""One pass of a workload in a fresh Python process.

The runner starts this script once per repeat, so every per-process
cache (compiled programs, code objects, pool workers) starts cold, as
it does for each ``repro batch`` invocation.  It prints one JSON object
on its last stdout line.

Usage::

    python3 perfbench/child.py WORKLOAD SEED --spawned T [--trace]
        [--serial] [--part I --parts N] [--store DIR]

``--spawned`` is the runner's ``time.monotonic()`` just before it
started this process (CLOCK_MONOTONIC is system-wide on Linux), so
``setup_s`` covers interpreter start-up and imports too.  ``--serial``
runs a pooled workload's specs in-process; ``--part``/``--parts`` run
every ``parts``-th spec starting at ``part``, for splitting a digest
computation across processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# Resilience events that mean a run left the fast path.
DEGRADE_EVENTS = ('degraded_to_reference', 'backend_construction_fallback')


def job_digest(result):
    blob = json.dumps(result.to_dict(), sort_keys=True,
                      separators=(',', ':'))
    return hashlib.sha256(blob.encode('utf-8')).hexdigest()


def _job_digests(results):
    return [job_digest(r) if r is not None else 'failed' for r in results]


def combined_digest(job_digests):
    """The digest of a batch: over its per-job digests, in order."""
    return hashlib.sha256('\n'.join(job_digests).encode('ascii')) \
        .hexdigest()


def _sim_counts(results):
    totals = dict.fromkeys(('sim.instret_taken', 'sim.instret_nt',
                            'sim.cycles', 'sim.nt_spawned',
                            'sim.covered_edges', 'memory.journal_entries'),
                           0)
    for result in results:
        if result is None:
            continue
        totals['sim.instret_taken'] += result.instret_taken
        totals['sim.instret_nt'] += result.instret_nt
        totals['sim.cycles'] += result.cycles
        totals['sim.nt_spawned'] += result.nt_spawned
        totals['sim.covered_edges'] += result.total_covered
        totals['memory.journal_entries'] += result.journal_entries_total
    return totals


def _peak_rss_mb():
    """Largest resident set of this process and every reaped child."""
    for child in multiprocessing.active_children():
        child.join(60)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _run_serial(specs, run_job):
    results, job_s, failed = [], [], 0
    for spec in specs:
        start = perf_counter()
        try:
            result = run_job(spec)
        except Exception as exc:  # counted, and fails the digest check
            print('job %r failed: %r' % (spec, exc), file=sys.stderr)
            result = None
            failed += 1
        job_s.append(perf_counter() - start)
        results.append(result)
    return results, job_s, failed


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument('workload')
    parser.add_argument('seed', type=int)
    parser.add_argument('--spawned', type=float, required=True)
    parser.add_argument('--trace', action='store_true')
    parser.add_argument('--serial', action='store_true')
    parser.add_argument('--part', type=int, default=0)
    parser.add_argument('--parts', type=int, default=1)
    parser.add_argument('--store')
    args = parser.parse_args(argv)

    from workloads import POOL_WORKERS, SERIAL_WORKLOADS, build_specs
    from tracer import JOB_SPANS, LAYER_SPANS, Tracer
    from repro.core.runner import _compiled_app, run_job
    from repro.jobs import JobPool, ResultStore
    from repro.resilience import events

    pooled = args.workload not in SERIAL_WORKLOADS and not args.serial
    tracer = None
    if args.trace:
        tracer = Tracer()
        # Pool workers fork from this process; they keep the plain
        # entry points so the traced pooled pass differs from the
        # untraced one only on the parent side.
        tracer.install(JOB_SPANS if pooled else LAYER_SPANS + JOB_SPANS)

    specs = build_specs(args.workload, args.seed)[args.part::args.parts]
    # run_job compiles each app once per process through this cache;
    # filling it here puts the MiniC compile in set-up, where a batch
    # that compiles its apps up front pays it.
    for app, version in sorted({(s.app, s.version) for s in specs}):
        _compiled_app(app, version)
    pool = None
    if pooled:
        pool = JobPool(jobs=POOL_WORKERS, store=ResultStore(args.store),
                       on_error='quarantine')
    degraded_before = events.counts()
    setup_trace = tracer.snapshot() if tracer else None

    submitted = time.monotonic()
    start = perf_counter()
    if pooled:
        results = pool.run(specs)
        failed = len(pool.quarantined)
        warm = pool.run(specs)
        failed += len(pool.quarantined)
    else:
        results, job_s, failed = _run_serial(specs, run_job)
    wall_s = perf_counter() - start
    wall_trace = tracer.snapshot() if tracer else None

    digests = _job_digests(results)
    out = {
        'setup_s': submitted - args.spawned,
        'wall_s': wall_s,
        'jobs': len(specs),
        'attempted': len(specs),
        'failed': failed,
        'job_digests': digests,
        'digest': combined_digest(digests),
        'sim': _sim_counts(results),
    }
    if pooled:
        metrics = pool.metrics
        job_s = [event['seconds'] for event in metrics.events
                 if event['event'] == 'job_done']
        out['attempted'] = 2 * len(specs)
        out['warm_digest'] = combined_digest(_job_digests(warm))
        out['pool'] = {
            'sim_seconds': metrics.sim_seconds,
            'workers': POOL_WORKERS,
            'counters': dict(metrics.counters),
        }
    out['job_s'] = job_s
    counts = events.counts()
    out['degraded_runs'] = sum(counts.get(kind, 0)
                               - degraded_before.get(kind, 0)
                               for kind in DEGRADE_EVENTS)
    if tracer is not None:
        out['trace'] = {'setup': setup_trace, 'wall': wall_trace}
    out['peak_rss_mb'] = _peak_rss_mb()
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == '__main__':
    sys.exit(main())
