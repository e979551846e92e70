"""sweep-cold and sweep-warm: the registered ``arrival-rate`` sweep
through the outcome cache.

Every pass runs ``run_sweep`` with ``workers=2`` and then persists the
run with ``SweepRunStore.save``, as ``repro sweep run --cache`` does.
One operation is one pass.

- ``sweep-cold``: one round is one cold pass into a fresh cache
  directory (every chain computed and stored), at a sweep seed drawn
  per round from the workload seed.
- ``sweep-warm``: one cold pass, untimed, fills a fresh cache directory
  at a sweep seed drawn from the workload seed; then one round is one
  warm pass on it (every chain recalled).

Checks: the variant count is the product of the axis lengths; a cold
pass misses and a warm pass hits exactly as many chains as each
variant's plan has; cold, warm and a serial uncached run render the
same bytes; and the cached raw outcomes pass :mod:`checks`.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import checks
import common
import layers

SWEEP = "arrival-rate"
SCALE = 1.0
WORKERS = 2


def setup_probe() -> float:
    started = time.perf_counter()
    from repro.scenarios import get_sweep
    from repro.scenarios.cache import SweepRunStore  # noqa: F401

    get_sweep(SWEEP)
    path = common.fresh_dir("probe-cache-")
    elapsed = time.perf_counter() - started
    shutil.rmtree(path, ignore_errors=True)
    return elapsed


def _variant_plans(sweep, seed):
    from repro.scenarios import ScenarioRunner, get_definition

    definition = get_definition(sweep.scenario)
    plans = {}
    for variant in sweep.variants():
        runner = ScenarioRunner(
            variant.scenario, collect=definition.collect, plan_fn=definition.plan_fn
        )
        plans[variant.name] = runner.plan(scale=SCALE, seed=seed)
    return plans


def _one_pass(sweep, seed, cache_dir, tracer=None):
    from repro.scenarios import run_sweep
    from repro.scenarios.cache import SweepRunStore

    begun, begun_cpu = time.perf_counter(), common.cpu_seconds()
    outcome = run_sweep(sweep, scale=SCALE, seed=seed, workers=WORKERS, cache_dir=cache_dir)
    SweepRunStore(cache_dir).save(outcome)
    elapsed, cpu = time.perf_counter() - begun, common.cpu_seconds() - begun_cpu
    if tracer is not None:
        tracer.add("scenarios.cache_hits", outcome.cache_hits or 0)
        tracer.add("scenarios.cache_misses", outcome.cache_misses or 0)
    return outcome, elapsed, cpu


def _renders(outcome):
    return {v.name: v.result.format_table() for v in outcome.outcomes if v.ok}


class Sweep:
    """State of one run: the sweep, its counts, times and problems."""

    def __init__(self, workload: str, seed: int):
        from repro.scenarios import get_sweep

        self.workload = workload
        self.seed = seed
        self.sweep = get_sweep(SWEEP)
        self.attempted = self.failed = 0
        self.times, self.cpu, self.problems = [], [], []
        self.cold = None  # (sweep seed, cache dir, plans, renders, outcome)
        self.warm_outcome = None
        self._plans = {}

    def sweep_seed(self, index: int) -> int:
        return common.workload_rng(self.workload, self.seed, index).randrange(0, 10_000)

    def _pass(self, seed, cache_dir, chains, cold, timed, tracer=None):
        """One checked pass; returns its outcome, or None if it raised."""
        self.attempted += timed
        try:
            outcome, elapsed, cpu = _one_pass(self.sweep, seed, cache_dir, tracer)
        except Exception as error:  # counted as a failed operation
            self.failed += timed
            self.problems.append(f"{'cold' if cold else 'warm'} pass: "
                                 f"{type(error).__name__}: {error}")
            return None
        if timed:
            self.failed += len(outcome.failed)
            self.times.append(elapsed)
            self.cpu.append(cpu)
        self.problems.extend(checks.check_sweep_pass(self.sweep, outcome, chains, cold))
        return outcome

    def cold_pass(self, seed, timed=True, tracer=None):
        """A cold pass into a fresh cache directory, which replaces the
        previous one."""
        if self.cold is not None:
            shutil.rmtree(self.cold[1], ignore_errors=True)
        cache_dir = common.fresh_dir("sweep-cache-")
        if seed not in self._plans:  # a traced round repeats an untraced one
            self._plans = {seed: _variant_plans(self.sweep, seed)}
        plans = self._plans[seed]
        chains = {name: len(plan.chains()) for name, plan in plans.items()}
        self.cold = (seed, cache_dir, plans, {}, None)
        outcome = self._pass(seed, cache_dir, chains, True, timed, tracer)
        if outcome is not None:
            self.cold = (seed, cache_dir, plans, _renders(outcome), outcome)

    def warm_pass(self, tracer=None):
        seed, cache_dir, plans, cold_renders, _ = self.cold
        chains = {name: len(plan.chains()) for name, plan in plans.items()}
        outcome = self._pass(seed, cache_dir, chains, False, True, tracer)
        if outcome is None:
            return
        for name, text in _renders(outcome).items():
            diff = checks.first_difference(f"{name} warm vs cold", text,
                                           cold_renders.get(name, ""))
            if diff:
                self.problems.append(diff)
        self.warm_outcome = outcome

    def post_checks(self):
        """Untimed: serial uncached render, raw cached outcomes, self-tests."""
        from repro.scenarios import run_sweep
        from repro.scenarios.cache import OutcomeCache

        seed, cache_dir, plans, cold_renders, cold_outcome = self.cold
        reference = _renders(run_sweep(self.sweep, scale=SCALE, seed=seed, workers=None))
        for name, text in reference.items():
            diff = checks.first_difference(f"{name} serial uncached vs cold",
                                           cold_renders.get(name, ""), text)
            if diff:
                self.problems.append(diff)
        cache = OutcomeCache(cache_dir)
        trace_tested = False
        for name, plan in plans.items():
            outcomes = [None] * len(plan.steps)
            for chain in plan.chains():
                stored = cache.load(cache.key(plan, chain))
                if stored is None or len(stored) != len(chain.indices):
                    self.problems.append(f"{name}: chain {chain.index} missing from the cache")
                    break
                for position, outcome in zip(chain.indices, stored):
                    outcomes[position] = outcome
            else:
                self.problems.extend(checks.check_outcomes(plan, outcomes, name))
                if not trace_tested:
                    self.problems.extend(checks.self_test_trace(plan, outcomes))
                    trace_tested = True
        chains = {name: len(plan.chains()) for name, plan in plans.items()}
        cold = self.workload == "sweep-cold"
        sample = cold_outcome if cold else self.warm_outcome
        if sample is None:
            self.problems.append("no pass completed to self-test the sweep checks on")
        else:
            self.problems.extend(checks.self_test_sweep(self.sweep, sample, chains, cold))

    def close(self):
        if self.cold is not None:
            shutil.rmtree(self.cold[1], ignore_errors=True)

    def result(self, metrics, **extra):
        return dict({"attempted": self.attempted, "failed": self.failed,
                     "problems": self.problems, "metrics": metrics}, **extra)


def _round(state: Sweep, index: int, tracer=None):
    if tracer is not None:
        tracer.set_trace(f"seed{state.seed}/round{index}")
    if state.workload == "sweep-cold":
        state.cold_pass(state.sweep_seed(index), tracer=tracer)
    else:
        state.warm_pass(tracer)


def dir_bytes(path) -> int:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, name)) for name in files)
    return total


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = common.setup_probes(workload)
    state = Sweep(workload, seed)
    try:
        if workload == "sweep-warm":
            state.cold_pass(state.sweep_seed(0), timed=False)
        if trace:
            return _run_traced(state)
        clock = common.Clock(seconds)
        index = 0
        while index == 0 or clock.more():
            _round(state, index)
            index += 1
        rss = common.peak_rss_mb()
        state.post_checks()
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "cpu_p50_ms": 1000.0 * statistics.median(state.cpu),
        }
        return state.result(metrics, wall_p50_ms=1000.0 * statistics.median(state.times))
    finally:
        state.close()


def _run_traced(state: Sweep) -> dict:
    import tracer as tracing

    _round(state, 0)
    tracer = tracing.Tracer(common.trace_dir(state.workload, state.seed))
    tracing.install(tracer)
    _round(state, 0, tracer)
    untraced, traced = state.times
    tracer.write("main")
    spans, calls, counts = tracing.load(tracer.out_dir)
    metrics = layers.from_spans(spans, calls, counts)
    metrics["scenarios.cache_bytes"] = dir_bytes(state.cold[1])
    metrics["trace.overhead_s"] = traced - untraced
    work = layers.work_counters(tracer.calls, tracer.counts)
    state.post_checks()
    return state.result(metrics, work_counters=work)
