"""Output checks made apart from the program.

Every check here reads raw outcomes (what ``ScenarioRunner.execute``
returns) and compares them with a model of what the method must do,
not with a second run of the same code: sums over epoch records,
interval containment, monotone timelines, FIFO admission, the
HyperBand bracket arithmetic of Li et al. and the sweep grid product.
Each check returns a list of problem strings; an empty list passes.

The ``self_test_*`` functions corrupt real outcomes one field at a
time and require every check to notice, so a check that has gone blind fails
the run instead of passing it.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
from typing import Dict, List, Optional

REL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# Per trial
# ---------------------------------------------------------------------------


def check_trial(trial, where: str) -> List[str]:
    problems = []
    records = trial.records
    label = f"{where} trial {trial.trial_id}"
    if not _close(sum(r.duration_s for r in records), trial.training_time_s):
        problems.append(f"{label}: training_time_s != sum of epoch durations")
    if not _close(sum(r.energy_j for r in records), trial.energy_j):
        problems.append(f"{label}: energy_j != sum of epoch energies")
    first = trial.epochs_run - len(records) + 1
    if [r.epoch for r in records] != list(range(first, trial.epochs_run + 1)):
        problems.append(f"{label}: epochs not numbered consecutively up to epochs_run")
    if first < 1:
        problems.append(f"{label}: more epoch records than epochs_run")
    if trial.end_time - trial.start_time < trial.training_time_s * (1 - REL):
        problems.append(f"{label}: wall time shorter than training time")
    if not 0.0 <= trial.accuracy <= 1.0:
        problems.append(f"{label}: accuracy outside [0, 1]")
    if records and trial.accuracy != records[-1].accuracy:
        problems.append(f"{label}: accuracy differs from the last epoch's")
    return problems


# ---------------------------------------------------------------------------
# Per job
# ---------------------------------------------------------------------------


def hyperband_configs(max_epochs: int, eta: int, sample_scale: float) -> int:
    """Distinct configurations HyperBand starts (Li et al., JMLR 2017):
    ``sum_s ceil((s_max+1)/(s+1) * eta**s * sample_scale)`` where
    ``s_max`` is the largest integer with ``eta**s_max <= max_epochs``."""
    s_max = 0
    while eta ** (s_max + 1) <= max_epochs:
        s_max += 1
    return sum(
        math.ceil((s_max + 1) / (s + 1) * eta**s * sample_scale)
        for s in range(s_max + 1)
    )


def _hyperband_params(scenario, policy):
    """(max_epochs, eta, sample_scale) of a hyperband scenario, or None."""
    if scenario.algorithm.name != "hyperband":
        return None
    from repro.hpo.hyperband import HyperBand

    defaults = inspect.signature(HyperBand).parameters
    params = dict(scenario.algorithm.params)
    sample_scale = params.get("sample_scale", policy.effective_sample_scale)
    return (
        params.get("max_epochs", defaults["max_epochs"].default),
        params.get("eta", defaults["eta"].default),
        sample_scale,
    )


def check_job(result, scenario, policy, where: str, objective: str) -> List[str]:
    problems = []
    label = f"{where} job {result.job_name}"
    for trial in result.trials:
        problems.extend(check_trial(trial, where))
        if trial.start_time < result.submitted_at - 1e-9 or (
            trial.end_time > result.finished_at + 1e-9
        ):
            problems.append(f"{label}: trial {trial.trial_id} outside [submitted_at, finished_at]")
    kept_energy = sum(trial.energy_j for trial in result.trials)
    if result.tuning_energy_j < kept_energy * (1 - REL):
        problems.append(f"{label}: tuning energy below the kept trials' energy")
    walls = [point.wall_time_s for point in result.timeline]
    scores = [point.best_score for point in result.timeline]
    if any(b < a for a, b in zip(walls, walls[1:])):
        problems.append(f"{label}: timeline wall time decreases")
    if any(b < a for a, b in zip(scores, scores[1:])):
        problems.append(f"{label}: timeline best score decreases")
    if objective == "accuracy" and result.trials:
        if any(trial.accuracy > result.best_accuracy for trial in result.trials):
            problems.append(f"{label}: a trial beats the best accuracy under the accuracy objective")
    params = _hyperband_params(scenario, policy)
    if params is not None:
        started = {trial.trial_id for trial in result.trials}
        started.update(failure.trial_id for failure in result.failures)
        expected = hyperband_configs(*params)
        if len(started) != expected:
            problems.append(
                f"{label}: {len(started)} distinct HyperBand configurations, "
                f"model says {expected} for max_epochs={params[0]}, eta={params[1]}, "
                f"sample_scale={params[2]}"
            )
    return problems


# ---------------------------------------------------------------------------
# Per multi-tenant trace
# ---------------------------------------------------------------------------


def check_trace(trace, scenario, policy, scale: float, where: str) -> List[str]:
    problems = []
    tenancy = scenario.tenancy
    label = f"{where} trace {policy.label}"
    records = trace.records
    expected_jobs = tenancy.scaled_jobs(scale)
    if len(records) != expected_jobs:
        problems.append(f"{label}: {len(records)} jobs, expected {expected_jobs}")
    ordered = sorted(records, key=lambda r: (r.arrival.arrival_time_s, r.arrival.index))
    starts = [r.started_at for r in ordered]
    if any(b < a for a, b in zip(starts, starts[1:])):
        problems.append(f"{label}: admission not FIFO by arrival")
    events = sorted(
        [(r.result.finished_at, 0) for r in records] + [(r.started_at, 1) for r in records]
    )
    running = peak = 0
    for _, kind in events:
        running += 1 if kind else -1
        peak = max(peak, running)
    if peak > tenancy.max_concurrent_jobs:
        problems.append(f"{label}: {peak} jobs ran at once, cap {tenancy.max_concurrent_jobs}")
    for record in records:
        if record.queue_wait_s < 0:
            problems.append(f"{label}: negative queue wait")
        if record.response_time_s < record.queue_wait_s:
            problems.append(f"{label}: response time below queue wait")
        problems.extend(
            check_job(record.result, scenario, policy, where, policy.effective_objective)
        )
    return problems


# ---------------------------------------------------------------------------
# Per plan
# ---------------------------------------------------------------------------


def check_outcomes(plan, outcomes, where: str) -> List[str]:
    """Every raw outcome of one executed plan."""
    from repro.scenarios import FixedTrialStep, JobStep, TraceStep, is_failure

    problems = []
    if len(outcomes) != len(plan.steps):
        return [f"{where}: {len(outcomes)} outcomes for {len(plan.steps)} steps"]
    for step, outcome in zip(plan.steps, outcomes):
        if is_failure(outcome):
            problems.append(f"{where}: step {step.describe()} failed: {outcome.error}")
        elif isinstance(step, JobStep):
            problems.extend(
                check_job(outcome, plan.scenario, step.policy, where,
                          step.policy.effective_objective)
            )
        elif isinstance(step, FixedTrialStep):
            problems.extend(check_trial(outcome, where))
        elif isinstance(step, TraceStep):
            problems.extend(check_trace(outcome, plan.scenario, step.policy, plan.scale, where))
    return problems


# ---------------------------------------------------------------------------
# Per sweep
# ---------------------------------------------------------------------------


def check_sweep_pass(sweep, outcome, chains: Dict[str, int], cold: bool) -> List[str]:
    """Grid size, and all-miss (cold) or all-hit (warm) per variant."""
    problems = []
    expected = 1
    for axis in sweep.axes:
        expected *= len(axis.values)
    if len(outcome.outcomes) != expected:
        problems.append(f"sweep {sweep.name}: {len(outcome.outcomes)} variants, grid has {expected}")
    for variant in outcome.outcomes:
        if not variant.ok:
            problems.append(f"sweep variant {variant.name} failed: {variant.error}")
            continue
        want = chains[variant.name]
        got = (variant.cache_misses, variant.cache_hits)
        if got != ((want, 0) if cold else (0, want)):
            kind = "cold" if cold else "warm"
            problems.append(
                f"{kind} pass of {variant.name}: {got[0]} misses / {got[1]} hits "
                f"for {want} chains"
            )
    return problems


# ---------------------------------------------------------------------------
# Self-test: every check must notice a corrupted outcome
# ---------------------------------------------------------------------------


def _first_job(plan, outcomes):
    from repro.scenarios import JobStep

    for step, outcome in zip(plan.steps, outcomes):
        if (isinstance(step, JobStep) and outcome.trials and outcome.timeline
                and step.policy.effective_objective == "accuracy"):
            return step, outcome
    return None, None


def self_test_job(plan, outcomes) -> List[str]:
    """Corrupt a real job outcome one way at a time; each must be caught."""
    problems = []
    step, job = _first_job(plan, outcomes)
    if job is None:
        return ["self-test: no job outcome with trials under the accuracy objective to corrupt"]

    def job_check(result):
        return check_job(result, plan.scenario, step.policy, "self-test",
                         step.policy.effective_objective)

    if job_check(job):
        problems.append("self-test: the uncorrupted job does not pass")
    corruptions = {
        "training time": lambda r: setattr(r.trials[0], "training_time_s",
                                           r.trials[0].training_time_s + 1.0),
        "trial energy": lambda r: setattr(r.trials[0], "energy_j", r.trials[0].energy_j * 1.5),
        "epoch numbering": lambda r: setattr(r.trials[0].records[0], "epoch",
                                             r.trials[0].records[0].epoch + 7),
        "wall time": lambda r: setattr(r.trials[0], "end_time", r.trials[0].start_time),
        "accuracy range": lambda r: setattr(r.trials[0], "accuracy", 1.5),
        "final accuracy": lambda r: setattr(r.trials[0], "accuracy",
                                            r.trials[0].records[-1].accuracy * 0.5),
        "trial interval": lambda r: setattr(r, "finished_at", r.submitted_at),
        "tuning energy": lambda r: setattr(r, "tuning_energy_j", 0.0),
        "timeline wall": lambda r: r.timeline.append(
            dataclasses.replace(r.timeline[-1], wall_time_s=-1.0)),
        "timeline best score": lambda r: r.timeline.append(
            dataclasses.replace(r.timeline[-1], best_score=float("-inf"))),
        "configuration count": lambda r: r.trials.pop(),
        "best accuracy": lambda r: setattr(r, "best_accuracy", -1.0),
    }
    for label, corrupt in corruptions.items():
        broken = copy.deepcopy(job)
        corrupt(broken)
        if not job_check(broken):
            problems.append(f"self-test: corrupted {label} went unnoticed")
    return problems


def self_test_trace(plan, outcomes) -> List[str]:
    """Corrupt a real multi-tenant trace one way at a time."""
    from repro.scenarios import TraceStep

    for step, trace in zip(plan.steps, outcomes):
        if isinstance(step, TraceStep) and len(trace.records) > 2:
            break
    else:
        return ["self-test: no trace outcome to corrupt"]

    def trace_check(broken):
        return check_trace(broken, plan.scenario, step.policy, plan.scale, "self-test")

    problems = []
    if trace_check(trace):
        problems.append("self-test: the uncorrupted trace does not pass")

    def fifo(t):
        ordered = sorted(t.records, key=lambda r: r.arrival.arrival_time_s)
        ordered[0].started_at = ordered[-1].started_at + 1.0

    def overload(t):
        end = max(r.result.finished_at for r in t.records) + 1.0
        for record in t.records:
            record.started_at = record.arrival.arrival_time_s
            record.result.finished_at = end

    corruptions = {
        "job count": lambda t: t.records.pop(),
        "FIFO admission": fifo,
        "concurrency cap": overload,
        "queue wait": lambda t: setattr(t.records[0], "started_at",
                                        t.records[0].arrival.arrival_time_s - 5.0),
    }
    for label, corrupt in corruptions.items():
        broken = copy.deepcopy(trace)
        corrupt(broken)
        if not trace_check(broken):
            problems.append(f"self-test: corrupted {label} went unnoticed")
    return problems


def self_test_sweep(sweep, outcome, chains: Dict[str, int], cold: bool) -> List[str]:
    """The sweep checks must notice a missing variant, a wrong hit or
    miss count, and a pass of the other kind."""
    problems = []
    if check_sweep_pass(sweep, outcome, chains, cold):
        return ["self-test: the uncorrupted sweep pass does not pass"]
    short = dataclasses.replace(outcome, outcomes=outcome.outcomes[:-1])
    if not check_sweep_pass(sweep, short, chains, cold):
        problems.append("self-test: a missing sweep variant went unnoticed")
    first = outcome.outcomes[0]
    if cold:
        wrong_first = dataclasses.replace(first, cache_hits=1, cache_misses=first.cache_misses - 1)
    else:
        wrong_first = dataclasses.replace(first, cache_hits=first.cache_hits - 1, cache_misses=1)
    wrong = dataclasses.replace(outcome, outcomes=(wrong_first,) + outcome.outcomes[1:])
    if not check_sweep_pass(sweep, wrong, chains, cold):
        problems.append("self-test: a wrong cache hit/miss count went unnoticed")
    if not check_sweep_pass(sweep, outcome, chains, not cold):
        problems.append("self-test: a pass of the other kind went unnoticed")
    return problems


def first_difference(label: str, got: str, want: str) -> Optional[str]:
    """None when the bytes agree, else where they first differ."""
    if got == want:
        return None
    for number, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if a != b:
            return f"{label}: line {number} differs: {a!r} != {b!r}"
    return f"{label}: lengths differ ({len(got)} vs {len(want)} characters)"
