"""Record the benchmark's definition and first numbers.

Usage (from the repository root)::

    python3 perfbench/record.py [--workloads a,b] [--seeds 10]
        [--write]

Runs ``run.py`` untraced on ``--seeds`` consecutive seeds per workload
(starting at the default seed) and traced on the default and held-out
seeds, then prints, per end-to-end metric, the median, quartiles and
spread (quartile distance over median) next to the metric's bound.
With ``--write`` it also writes ``BENCHMARK.json`` (from the tables in
``workloads.py``), the default-seed reference digests
(``digests.json``) and the numbers (``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import (DEFAULT_SEED, END_TO_END, HELD_OUT_SEED,  # noqa: E402
                       PER_LAYER, RUN_SECONDS, WORKLOADS)


def benchmark_definition():
    return {
        'command': ['python3', 'perfbench/run.py'],
        'paths': ['perfbench'],
        'run_seconds': RUN_SECONDS,
        'workloads': [{'name': name, 'why': why}
                      for name, why in WORKLOADS.items()],
        'end_to_end': [{'name': name, 'unit': unit, 'better': better,
                        'bound': bound}
                       for name, unit, better, bound in END_TO_END],
        'per_layer': [{'name': name, 'unit': unit, 'better': better}
                      for name, unit, better in PER_LAYER],
    }


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, 'run.py'), '--workload',
         workload, '--seed', str(seed), '--seconds', str(RUN_SECONDS),
         '--trace', str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=False)
    lines = proc.stdout.decode('utf-8').strip().splitlines()
    result = json.loads(lines[-1]) if lines and proc.returncode in (0, 1) \
        else None
    if result is None or not result['correct']:
        sys.exit('run failed: %s seed %d trace %d\n%s'
                 % (workload, seed, trace, '\n'.join(lines[-20:])))
    return {name: m['value'] for name, m in result['metrics'].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {'median': statistics.median(values), 'q1': q1, 'q3': q3,
            'spread': (q3 - q1) / statistics.median(values),
            'values': values}


def record(workload, seeds):
    runs = [run_once(workload, seed, 0)
            for seed in range(DEFAULT_SEED, DEFAULT_SEED + seeds)]
    out = {'seeds': seeds, 'end_to_end': {}}
    for name, unit, _better, bound in END_TO_END:
        stats = spread([run[name] for run in runs])
        stats.update(unit=unit, bound=bound)
        out['end_to_end'][name] = stats
        print('%-20s %-14s median %10.5g  q1 %10.5g  q3 %10.5g  '
              'spread %.4f  bound %.2f%s'
              % (workload, name, stats['median'], stats['q1'], stats['q3'],
                 stats['spread'], bound,
                 '' if name == 'setup_s' or stats['spread'] < bound / 3
                 else '  <-- above bound/3'), flush=True)
    out['per_layer'] = {
        'default_seed': run_once(workload, DEFAULT_SEED, 1),
        'held_out_seed': run_once(workload, HELD_OUT_SEED, 1),
    }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workloads', default=','.join(WORKLOADS))
    parser.add_argument('--seeds', type=int, default=10)
    parser.add_argument('--write', action='store_true')
    args = parser.parse_args(argv)
    workloads = args.workloads.split(',')
    if args.write:
        with open(os.path.join(ROOT, 'BENCHMARK.json'), 'w',
                  encoding='utf-8') as handle:
            json.dump(benchmark_definition(), handle, indent=2)
            handle.write('\n')
        from run import Runner
        digests = {name: Runner(name, DEFAULT_SEED).split_digest(
            backend='reference') for name in WORKLOADS}
        with open(os.path.join(HERE, 'digests.json'), 'w',
                  encoding='utf-8') as handle:
            json.dump(digests, handle, indent=2, sort_keys=True)
            handle.write('\n')
    results = {name: record(name, args.seeds) for name in workloads}
    if args.write:
        baseline = {'default_seed': DEFAULT_SEED,
                    'held_out_seed': HELD_OUT_SEED,
                    'run_seconds': RUN_SECONDS,
                    'workloads': results}
        with open(os.path.join(HERE, 'baseline.json'), 'w',
                  encoding='utf-8') as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write('\n')
    return 0


if __name__ == '__main__':
    sys.exit(main())
