"""The benchmark's one command.

Measure one workload (end-to-end metrics; ``--trace 1`` gives the
per-layer metrics of a separate traced run instead)::

    python3 perfbench/run.py --workload paper-exhibits --seed 0 --seconds 18 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is non-zero
when any output check fails or the benchmark cannot run.

Check steadiness (repeat each workload N times with seeds 0..N-1 and
print median, quartiles and spread of every end-to-end metric against
its bound in BENCHMARK.json)::

    python3 perfbench/run.py --steadiness 5 --workload sweep-warm

Run from the root of a checkout; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import common

WORKLOADS = {
    "paper-exhibits": "wl_exhibits",
    "paper-exhibits-pool": "wl_exhibits",
    "sweep-cold": "wl_sweep",
    "sweep-warm": "wl_sweep",
    "lint-tree": "wl_lint",
}


def _module(workload: str):
    return __import__(WORKLOADS[workload])


def _expected_metrics(benchmark, trace: bool):
    return {m["name"]: m["unit"] for m in benchmark["per_layer" if trace else "end_to_end"]}


def compare_work_counters(workload: str, seed: int, counters) -> list:
    """Store this run's deterministic work counters; report any that
    differ from an earlier traced run of the same code and seed."""
    folder = common.WORK / "counters"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload}-seed{seed}-{common.source_digest()}.json"
    if path.is_file():
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
        keys = sorted(set(earlier) | set(counters))
        return [
            f"work counter {key}: {earlier.get(key)} earlier, {counters.get(key)} now"
            for key in keys
            if earlier.get(key) != counters.get(key)
        ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(counters, handle, indent=1, sort_keys=True)
    return []


def measure(args) -> int:
    benchmark = common.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        raise common.BenchError(f"unknown workload {args.workload!r}; known: {names}")
    common.prepare_environment()
    common.check_program_location()
    outcome = _module(args.workload).run(args.workload, args.seed, float(args.seconds),
                                         bool(args.trace))
    problems = list(outcome["problems"])
    if args.trace:
        problems.extend(compare_work_counters(args.workload, args.seed,
                                              outcome.get("work_counters", {})))
    expected = _expected_metrics(benchmark, bool(args.trace))
    values = outcome["metrics"]
    if set(values) != set(expected):
        raise common.BenchError(
            f"metrics mismatch: missing {sorted(set(expected) - set(values))}, "
            f"extra {sorted(set(values) - set(expected))}"
        )
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, unit in expected.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    if "wall_p50_ms" in outcome:
        print(f"{args.workload} wall_p50_ms = {outcome['wall_p50_ms']:.6g} ms "
              "(for reading only: no bound, see README)")
    print(f"{args.workload} attempted = {outcome['attempted']}, failed = {outcome['failed']}")
    result = {
        "correct": not problems,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in expected.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def steadiness(args) -> int:
    """Repeat workloads with seeds 0..N-1; report spread against bounds."""
    benchmark = common.load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    status = 0
    for workload in workloads:
        runs = []
        for seed in range(args.steadiness):
            begun = time.perf_counter()
            completed = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=str(common.ROOT),
            )
            wall = time.perf_counter() - begun
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {completed.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            result["wall"] = wall
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f}s wall, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        if len(runs) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share(s) {sorted(shares)}, "
              f"max wall {max(r['wall'] for r in runs):.1f}s")
        for metric in benchmark["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            verdict = ("steady" if spread <= metric["bound"] / 3
                       else "within bound" if spread <= metric["bound"] else "TOO WIDE")
            print(f"  {metric['name']:<16} median {statistics.median(values):10.4g} "
                  f"q1 {q1:10.4g} q3 {q3:10.4g} spread {spread:6.3f} "
                  f"bound {metric['bound']:.2f} {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="repeat each workload N times and report spreads")
    parser.add_argument("--exhibit-pass", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.exhibit_pass:
            common.prepare_environment()
            import wl_exhibits

            print(json.dumps(wl_exhibits.exhibit_pass(args.exhibit_pass)))
            return 0
        if args.setup_probe:
            common.prepare_environment()
            print(json.dumps({"setup_s": _module(args.setup_probe).setup_probe()}))
            return 0
        if args.steadiness:
            return steadiness(args)
        if not args.workload or args.seconds is None:
            parser.error("--workload and --seconds are required")
        return measure(args)
    except common.BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
