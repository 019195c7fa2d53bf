"""Repository benchmark: host time to regenerate PathExpander results.

Usage (from the repository root)::

    python3 perfbench/run.py --workload siemens_multi_input --seed 1 \\
        --seconds 20 --trace 0

Each repeat is a fresh Python process (``child.py``) that sets up the
workload through the public API (``AppSpec.random_input`` ->
``JobSpec.for_app`` -> ``run_job``, or ``JobPool`` + ``ResultStore``)
and runs it once.  Repeats start until ``--seconds`` have passed; every
end-to-end metric is the median over the repeats.  With ``--trace 1``
the untraced repeats are followed, for another ``--seconds``, by
repeats with layer spans installed (``tracer.py``), and the per-layer
metrics are printed instead.

Correctness: every repeat hashes each job's ``RunResult.to_dict()`` in
submission order.  The digest must equal the reference backend's for
the same workload and seed (kept in ``digests.json`` for the default
seed, computed on demand and cached in ``.bench_cache/`` otherwise);
on ``pooled_batch`` the pooled, warm (store-served) and in-process
serial digests must all equal it.  Simulated counts must repeat
exactly across repeats, traced and untraced, and in a traced pass the
layer self times must not sum to more than its wall time.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, 'src')
CACHE = os.path.join(ROOT, '.bench_cache')
CHILD = os.path.join(HERE, 'child.py')
DIGESTS = os.path.join(HERE, 'digests.json')
sys.path.insert(0, HERE)

from child import combined_digest  # noqa: E402
from workloads import (DEFAULT_SEED, END_TO_END, PER_LAYER,  # noqa: E402
                       RUN_SECONDS, SERIAL_WORKLOADS, WORKLOADS)

# A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A pass that could not run to completion."""


def _kill(proc):
    """End a pass and the pool workers it started (its process group)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


class Runner:
    """Starts the child passes of one run and keeps its budget."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self._stores = 0
        os.makedirs(os.path.join(CACHE, 'tmp'), exist_ok=True)

    def remaining(self):
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def _env(self, backend=None):
        env = {name: value for name, value in os.environ.items()
               if not name.startswith('REPRO_')}
        env['PYTHONPATH'] = SRC
        env['TMPDIR'] = os.path.join(CACHE, 'tmp')
        if backend is not None:
            env['REPRO_BACKEND'] = backend
        return env

    def start(self, *flags, backend=None):
        flags = list(flags)
        if self.workload not in SERIAL_WORKLOADS and '--serial' not in flags:
            self._stores += 1
            flags += ['--store', os.path.join(
                CACHE, 'tmp', 'store-%d-%d' % (os.getpid(), self._stores))]
        spawned = time.monotonic()
        return subprocess.Popen(
            [sys.executable, CHILD, self.workload, str(self.seed),
             '--spawned', repr(spawned)] + flags,
            stdout=subprocess.PIPE, env=self._env(backend), cwd=ROOT,
            start_new_session=True)

    def finish(self, proc):
        try:
            stdout, _ = proc.communicate(timeout=max(self.remaining(), 1))
        except subprocess.TimeoutExpired:
            _kill(proc)
            raise BenchError('pass exceeded the %ss run budget'
                             % RUN_BUDGET_S)
        if proc.returncode != 0:
            raise BenchError('pass exited with code %d' % proc.returncode)
        lines = stdout.decode('utf-8').strip().splitlines()
        if not lines:
            raise BenchError('pass printed no result')
        return json.loads(lines[-1])

    def run(self, *flags, backend=None):
        return self.finish(self.start(*flags, backend=backend))

    def repeat(self, seconds, *flags):
        """Fresh-process passes until ``seconds`` have passed."""
        passes = []
        begin = time.monotonic()
        while not passes or time.monotonic() - begin < seconds:
            passes.append(self.run(*flags))
        return passes

    def split_digest(self, backend=None):
        """Serial in-process digest, split over two processes."""
        procs = [self.start('--serial', '--part', str(part), '--parts', '2',
                            backend=backend) for part in (0, 1)]
        try:
            parts = [self.finish(proc) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    _kill(proc)
        merged = []
        for index in range(sum(len(p['job_digests']) for p in parts)):
            merged.append(parts[index % 2]['job_digests'][index // 2])
        return combined_digest(merged)

    def oracle(self, kind):
        """Digest of the reference backend ('reference') or of serial
        in-process execution on the default backend ('serial')."""
        if kind == 'reference' and self.seed == DEFAULT_SEED \
                and os.path.exists(DIGESTS):
            with open(DIGESTS, encoding='utf-8') as handle:
                known = json.load(handle)
            if self.workload in known:
                return known[self.workload]
        path = os.path.join(CACHE, 'digests', '%s-%s-%d-%s.json'
                            % (kind, self.workload, self.seed,
                               source_fingerprint()))
        try:
            with open(path, encoding='utf-8') as handle:
                return json.load(handle)['digest']
        except (OSError, ValueError, KeyError):
            pass
        digest = self.split_digest(
            backend='reference' if kind == 'reference' else None)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, 'w', encoding='utf-8') as handle:
            json.dump({'digest': digest}, handle)
        return digest


def source_fingerprint():
    """Hash of the simulator and workload sources: cached digests are
    valid only for the code that computed them."""
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, 'workloads.py')]
    for directory, _dirs, files in sorted(os.walk(SRC)):
        paths.extend(os.path.join(directory, name)
                     for name in sorted(files) if name.endswith('.py'))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode('utf-8'))
        with open(path, 'rb') as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# metrics


def _median(values):
    return statistics.median(values)


def end_to_end(passes):
    return {
        'wall_s': _median([p['wall_s'] for p in passes]),
        'setup_s': _median([p['setup_s'] for p in passes]),
        'sim_mips': _median([
            (p['sim']['sim.instret_taken'] + p['sim']['sim.instret_nt'])
            / p['wall_s'] / 1e6 for p in passes]),
        'job_p50_ms': _median([_median(p['job_s']) * 1e3 for p in passes]),
        'peak_rss_mb': _median([p['peak_rss_mb'] for p in passes]),
    }


def _layer_window(trace):
    """Span totals over the wall window: end minus set-up snapshot."""
    setup, wall = trace['setup'], trace['wall']
    return {table: {name: wall[table][name] - setup[table].get(name, 0)
                    for name in wall[table]}
            for table in ('self_s', 'incl_s', 'calls')}


def layer_metrics(layer_pass, job_pass):
    """Per-layer metrics of one traced in-process pass (``layer_pass``)
    and one traced pass of the job layer (``job_pass``; the same pass
    on the serial workloads)."""
    trace = layer_pass['trace']
    total = trace['wall']
    window = _layer_window(trace)
    self_s, incl_s, calls = total['self_s'], total['incl_s'], total['calls']
    counts = total['counts']
    wall_s = layer_pass['wall_s']
    builds = calls['cpu.block_build']
    accesses = counts['memory.cache_hits'] + counts['memory.cache_misses']
    out = {
        'minic.compile_s': incl_s['minic.compile'],
        'minic.programs': calls['minic.compile'],
        'cpu.block_build_s': incl_s['cpu.block_build'],
        'cpu.block_emit_s': incl_s['cpu.block_emit'],
        'cpu.block_build_share': incl_s['cpu.block_build'] / wall_s,
        'cpu.block_builds': builds,
        'cpu.blocks_compiled': counts['cpu.blocks_compiled'],
        'cpu.compile_failed_runs': counts['cpu.compile_failed_runs'],
        'cpu.build_unique_ratio': (total['build_keys'] / builds
                                   if builds else 0.0),
        'engine.construct_s': self_s['engine.construct'],
        'engine.run_self_s': self_s['engine.run'],
        'engine.nt_s': self_s['engine.nt'],
        'engine.nt_paths': calls['engine.nt'],
        'memory.alloc_s': self_s['memory.alloc'],
        'memory.rollback_s': self_s['memory.rollback'],
        'memory.cache_accesses': accesses,
        'memory.cache_miss_ratio': (counts['memory.cache_misses'] / accesses
                                    if accesses else 0.0),
        'detectors.hook_calls': calls['detectors.hook'],
        'detectors.hook_s': self_s['detectors.hook'],
        'btb.branch_calls': calls['btb.branch'],
        'btb.branch_s': self_s['btb.branch'],
        'trace.unattributed_s': wall_s - sum(window['self_s'].values()),
    }
    jobs = job_pass['trace']['wall']
    pool = job_pass.get('pool')
    passes = jobs['pass_s'] + [0.0, 0.0]
    out.update({
        'jobs.cold_pass_s': passes[0],
        'jobs.warm_pass_s': passes[1],
        'jobs.worker_busy_frac': (
            pool['sim_seconds'] / (pool['workers'] * passes[0])
            if pool else 0.0),
        'jobs.store_put_s': jobs['self_s']['jobs.store_put'],
        'jobs.store_get_s': jobs['self_s']['jobs.store_get'],
        'jobs.decode_s': jobs['self_s']['jobs.decode'],
    })
    for name in ('cache_hits', 'retries', 'serial_fallbacks',
                 'hung_worker_kills'):
        out['jobs.' + name] = pool['counters'][name] if pool else 0
    return out


def accounting_errors(traced_pass):
    """A traced pass whose span self times exceed its wall time has an
    overlapping span; report it."""
    window = _layer_window(traced_pass['trace'])
    attributed = sum(window['self_s'].values())
    if attributed > traced_pass['wall_s']:
        return ['layer self times sum to %.6f s, more than the traced '
                'wall time %.6f s' % (attributed, traced_pass['wall_s'])]
    return []


# ----------------------------------------------------------------------


def measure(workload, seed, seconds, trace):
    runner = Runner(workload, seed)
    pooled = workload not in SERIAL_WORKLOADS
    untraced = runner.repeat(seconds)
    traced, layer_pass = [], None
    if trace:
        traced = runner.repeat(seconds, '--trace')
        if pooled:
            layer_pass = runner.run('--trace', '--serial')

    errors = []
    reference = runner.oracle('reference')
    checked = untraced + traced + ([layer_pass] if layer_pass else [])
    for index, p in enumerate(checked):
        if p['digest'] != reference:
            errors.append('pass %d digest %s differs from the reference '
                          'backend digest %s' % (index, p['digest'][:16],
                                                 reference[:16]))
        if p['sim'] != checked[0]['sim']:
            errors.append('pass %d simulated counts differ: %r vs %r'
                          % (index, p['sim'], checked[0]['sim']))
        if pooled and 'warm_digest' in p \
                and p['warm_digest'] != p['digest']:
            errors.append('pass %d: store-served results differ from '
                          'the pooled results' % index)
    if pooled:
        serial = layer_pass['digest'] if layer_pass \
            else runner.oracle('serial')
        if serial != reference:
            errors.append('serial in-process digest differs from the '
                          'reference (pooled != serial)')
    for p in traced + ([layer_pass] if layer_pass else []):
        errors.extend(accounting_errors(p))

    attempted = sum(p['attempted'] for p in untraced)
    failed = sum(p['failed'] for p in untraced)
    if trace:
        per_traced = [layer_metrics(layer_pass or p, p) for p in traced]
        values = {name: _median([m[name] for m in per_traced])
                  for name in per_traced[0]}
        values.update(untraced[0]['sim'])
        values['jobs.failed_frac'] = failed / attempted
        values['resilience.degraded_runs'] = max(
            p['degraded_runs'] for p in checked)
        values['trace.overhead_ratio'] = (
            _median([p['wall_s'] for p in traced])
            / _median([p['wall_s'] for p in untraced]))
        table = PER_LAYER
    else:
        values = end_to_end(untraced)
        table = END_TO_END
    metrics = {row[0]: {'value': values[row[0]], 'unit': row[1]}
               for row in table}
    summary = {'workload': workload, 'seed': seed,
               'jobs_per_pass': untraced[0]['jobs'],
               'untraced_passes': len(untraced),
               'traced_passes': len(traced)}
    return errors, attempted, failed, metrics, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    parser.add_argument('--seed', type=int, default=DEFAULT_SEED)
    parser.add_argument('--seconds', type=float, default=RUN_SECONDS)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error('--seconds must be positive')
    if not os.path.isfile(os.path.join(SRC, 'repro', '__init__.py')):
        print('error: %s holds no repro package to benchmark' % SRC,
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    try:
        errors, attempted, failed, metrics, summary = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print('error: %s' % exc, file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(os.path.join(CACHE, 'tmp')):
            if name.startswith('store-%d-' % os.getpid()):
                shutil.rmtree(os.path.join(CACHE, 'tmp', name),
                              ignore_errors=True)
    for error in errors:
        print('CHECK FAILED: %s' % error)
    print(' '.join('%s=%s' % item for item in summary.items()))
    for name, metric in metrics.items():
        print('  %-28s %14.6g %s' % (name, metric['value'], metric['unit']))
    print(json.dumps({'correct': not errors, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 1 if errors else 0


if __name__ == '__main__':
    sys.exit(main())
