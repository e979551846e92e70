"""Per-layer figures of a traced run, from its span files.

A traced boundary ``X`` yields ``X.calls`` (invocations; for DES
process generators, generator instances) and ``X.s`` (inclusive
seconds of the outermost spans). Layers the workload never reaches
read 0. Deterministic work counters are a subset: counts that two
runs of the same code on the same seed must reproduce exactly.
"""

from __future__ import annotations

from typing import Dict

import tracer as tracing

#: boundaries reported as .calls and .s, in BENCHMARK.json order.
BOUNDARIES = (
    "scenarios.plan",
    "scenarios.execute",
    "scenarios.collect",
    "scenarios.partition",
    "scenarios.backend",
    "scenarios.cache_load",
    "scenarios.cache_store",
    "tsdb.save",
    "experiments.render",
    "simulation.run",
    "workloads.epoch_cost",
    "workloads.epoch_cost_batch",
    "workloads.accuracy_at_epoch",
    "workloads.accuracy_curve",
    "workloads.noise_block",
    "keying.stable_seed",
    "keying.rng_for",
    "counters.profile_epoch",
    "counters.pmu_read",
    "core.gt_query",
    "core.gt_refit",
    "core.kmeans_fit",
    "core.warm_start",
    "hpo.next_batch",
    "hpo.report",
    "multitenancy.run",
)

#: plain counts a workload adds to the tracer (or derives from outputs).
COUNTS = (
    "tune.epochs_coalesced",
    "tune.trial_failures",
    "tune.fault_events",
    "keying.philox_constructions",
    "core.gt_hits",
    "core.gt_misses",
    "core.probes",
    "multitenancy.jobs",
    "scenarios.cache_hits",
    "scenarios.cache_misses",
)

RULES = ("DET001", "DET002", "PKL001", "LOCK001", "SCHEMA001")

#: boundaries whose call counts are simulation work (deterministic).
SIMULATION_LAYERS = ("workloads.", "keying.", "counters.", "core.", "hpo.",
                     "simulation.", "multitenancy.", "tune.")


def empty() -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for name in BOUNDARIES:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.s"] = 0.0
    metrics["simulation.self_s"] = 0.0
    metrics["tune.self_s"] = 0.0
    metrics["tune.trials"] = 0
    metrics["tune.epochs_stepped"] = 0
    for name in COUNTS:
        metrics[name] = 0
    metrics["scenarios.cache_bytes"] = 0
    metrics["analysis.index.s"] = 0.0
    for rule in RULES:
        metrics[f"analysis.rule.{rule}.s"] = 0.0
    metrics["analysis.files"] = 0
    metrics["trace.spans"] = 0
    metrics["trace.overhead_s"] = 0.0
    return metrics


def from_spans(spans, calls, counts) -> Dict[str, float]:
    metrics = empty()
    inclusive = tracing.inclusive_seconds(spans)
    own = tracing.self_seconds(spans)
    for name in BOUNDARIES:
        metrics[f"{name}.calls"] = int(calls.get(name, 0))
        metrics[f"{name}.s"] = inclusive.get(name, 0.0)
    metrics["simulation.self_s"] = own.get("simulation.run", 0.0)
    metrics["tune.self_s"] = own.get("tune.run_trial", 0.0) + own.get("tune.job_run", 0.0)
    metrics["tune.trials"] = int(calls.get("tune.run_trial", 0))
    metrics["tune.epochs_stepped"] = int(calls.get("workloads.epoch_cost", 0))
    for name in COUNTS:
        metrics[name] = int(counts.get(name, 0))
    metrics["analysis.index.s"] = inclusive.get("analysis.index", 0.0)
    for rule in RULES:
        metrics[f"analysis.rule.{rule}.s"] = inclusive.get(f"analysis.rule.{rule}", 0.0)
    metrics["analysis.files"] = int(counts.get("analysis.files", 0))
    metrics["trace.spans"] = len(spans)
    return metrics


def work_counters(calls, counts) -> Dict[str, int]:
    """The deterministic subset: simulation-layer call counts plus the
    named counts (philox constructions, ground-truth hits/misses,
    epochs stepped/coalesced, cache hits/misses, ...)."""
    chosen = {
        f"{name}.calls": int(value)
        for name, value in calls.items()
        if name.startswith(SIMULATION_LAYERS)
    }
    for name in ("keying.philox_constructions", "core.gt_hits", "core.gt_misses",
                 "tune.epochs_coalesced", "scenarios.cache_hits",
                 "scenarios.cache_misses", "multitenancy.jobs", "analysis.files"):
        if name in counts:
            chosen[name] = int(counts[name])
    for name, value in calls.items():
        if name.startswith("analysis.") or name == "tsdb.save":
            chosen[f"{name}.calls"] = int(value)
    return dict(sorted(chosen.items()))
