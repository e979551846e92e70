"""paper-exhibits and paper-exhibits-pool: the 15 golden exhibits.

``paper-exhibits`` runs them serially, ``paper-exhibits-pool`` with
``workers=2``. One round is one pass over all 15 in a fresh interpreter,
so it starts from the state a fresh ``repro scenario run`` would see (no
module-level memo tables warmed by an earlier pass). One operation is
one exhibit: plan, validate, execute, collect and render, timed
together. The outcome cache is off.

Round 0 of every run uses the canonical seeds of
``repro.experiments.EXHIBIT_RUNS`` and must byte-match the committed
goldens (serial renders); later rounds draw one seed per exhibit from
the workload seed. Every raw outcome must pass :mod:`checks`. The pooled
workload also renders its last round's seeds serially, untimed, and the
two renders must agree.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time

import checks
import common
import layers

#: workload name -> ``workers`` of its passes.
WORKERS = {"paper-exhibits": None, "paper-exhibits-pool": 2}


def seed_vector(seed: int, round_index: int):
    from repro.experiments import EXHIBIT_RUNS

    if round_index == 0:
        return {name: run.seed for name, run in EXHIBIT_RUNS.items()}
    rng = common.workload_rng("paper-exhibits", seed, round_index)
    return {name: rng.randrange(1, 10_000) for name in EXHIBIT_RUNS}


def run_pass(vector, workers, round_index: int, trace_dir=None):
    """One pass in a fresh interpreter; returns its report."""
    request = {
        "vector": vector,
        "workers": workers,
        "self_test": round_index == 0,
        "trace_dir": trace_dir,
    }
    path = common.fresh_dir("pass-")
    request_path = os.path.join(path, "request.json")
    with open(request_path, "w", encoding="utf-8") as handle:
        json.dump(request, handle)
    try:
        return common.run_internal(["--exhibit-pass", request_path])
    finally:
        shutil.rmtree(path, ignore_errors=True)


def exhibit_pass(request_path: str) -> dict:
    """Body of one pass process (``run.py --exhibit-pass``)."""
    started = time.perf_counter()
    from repro.experiments import EXHIBIT_RUNS
    from repro.experiments import golden
    from repro.scenarios import get_definition
    from repro.workloads import philox_construction_count

    import_s = time.perf_counter() - started
    with open(request_path, encoding="utf-8") as handle:
        request = json.load(handle)
    workers = request["workers"]
    tracer = None
    if request["trace_dir"]:
        import tracer as tracing

        tracer = tracing.Tracer(request["trace_dir"])
        tracing.install(tracer)
    philox_before = philox_construction_count()
    times, cpu, renders, problems, failed = {}, {}, {}, [], []
    self_tested = False
    for name, run in EXHIBIT_RUNS.items():
        seed = request["vector"][name]
        if tracer is not None:
            tracer.set_trace(f"{name}/seed{seed}")
        begun, begun_cpu = time.perf_counter(), common.cpu_seconds()
        try:
            runner = get_definition(name).runner()
            plan = runner.plan(scale=run.scale, seed=seed)
            runner.validate(plan)
            outcomes = runner.execute(plan, workers=workers)
            text = golden.render_result(runner.collect(plan, outcomes))
        except Exception as error:  # an operation that fails is counted, not fatal
            failed.append(f"{name}: {type(error).__name__}: {error}")
            continue
        times[name] = time.perf_counter() - begun
        cpu[name] = common.cpu_seconds() - begun_cpu
        renders[name] = text
        problems.extend(checks.check_outcomes(plan, outcomes, f"{name}/seed{seed}"))
        if tracer is not None:
            for session in runner.sessions.values():
                tracer.add("core.gt_hits", session.stats.ground_truth_hits)
                tracer.add("core.gt_misses", session.stats.ground_truth_misses)
                tracer.add("core.probes", session.stats.probes_run)
        if request["self_test"]:
            if name == "fig11":
                problems.extend(checks.self_test_job(plan, outcomes))
            if name == "fig13":
                problems.extend(checks.self_test_trace(plan, outcomes))
                self_tested = True
        del outcomes
    if request["self_test"] and not self_tested:
        problems.append("self-test did not run: fig11/fig13 missing")
    if tracer is not None:
        tracer.add("keying.philox_constructions", philox_construction_count() - philox_before)
        tracer.write("main")
    return {
        "import_s": import_s,
        "times": times,
        "cpu": cpu,
        "renders": renders,
        "problems": problems,
        "failed": failed,
        "peak_rss_mb": common.peak_rss_mb(),
    }


def _round(workers, seed, index, state, trace_dir=None):
    vector = seed_vector(seed, index)
    report = run_pass(vector, workers, index, trace_dir)
    state["attempted"] += len(vector)
    state["failed"] += len(report["failed"])
    state["passes"].append(sum(report["times"].values()))
    state["cpu"].append(sum(report["cpu"].values()))
    state["exhibits"] += len(report["times"])
    state["setup"].append(report["import_s"])
    state["rss"].append(report["peak_rss_mb"])
    state["problems"].extend(report["problems"])
    state["problems"].extend(report["failed"])
    if index == 0:
        for name, text in report["renders"].items():
            golden = common.golden_text(name)
            if golden is None:
                state["problems"].append(f"{name}: no committed golden trace")
            else:
                diff = checks.first_difference(f"{name} vs golden", text, golden)
                if diff:
                    state["problems"].append(diff)
    return vector, report


def _compare_serial(vector, pooled, state):
    """Untimed: the serial renders of ``vector`` must equal ``pooled``'s."""
    serial = run_pass(vector, None, -1)
    state["problems"].extend(f"serial reference: {p}" for p in serial["problems"] + serial["failed"])
    for name, text in serial["renders"].items():
        diff = checks.first_difference(f"{name} workers=2 vs serial",
                                       pooled["renders"].get(name, ""), text)
        if diff:
            state["problems"].append(diff)


def _new_state():
    return {"attempted": 0, "failed": 0, "passes": [], "cpu": [], "exhibits": 0,
            "setup": [], "rss": [], "problems": []}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workers = WORKERS[workload]
    state = _new_state()
    if trace:
        return _run_traced(workload, workers, seed, state)
    clock = common.Clock(seconds)
    index = 0
    while index == 0 or clock.more():
        vector, report = _round(workers, seed, index, state)
        index += 1
    if workers is not None and index > 1:
        _compare_serial(vector, report, state)
    metrics = {
        "setup_s": statistics.median(state["setup"]),
        "peak_rss_mb": max(state["rss"]),
        "cpu_p50_ms": 1000.0 * statistics.median(state["cpu"]),
    }
    return {"attempted": state["attempted"], "failed": state["failed"],
            "problems": state["problems"], "metrics": metrics,
            "wall_p50_ms": 1000.0 * statistics.median(state["passes"])}


def _run_traced(workload, workers, seed, state) -> dict:
    import tracer as tracing

    _round(workers, seed, 0, state)
    trace_dir = common.trace_dir(workload, seed)
    _round(workers, seed, 0, state, trace_dir)
    untraced, traced = state["passes"]
    spans, calls, counts = tracing.load(trace_dir)
    metrics = layers.from_spans(spans, calls, counts)
    metrics["trace.overhead_s"] = traced - untraced
    main_calls, main_counts = _main_file(trace_dir, "main")
    return {"attempted": state["attempted"], "failed": state["failed"],
            "problems": state["problems"], "metrics": metrics,
            "work_counters": layers.work_counters(main_calls, main_counts)}


def _main_file(trace_dir, tag):
    for entry in os.listdir(trace_dir):
        if entry.startswith(f"spans-{tag}-"):
            with open(os.path.join(trace_dir, entry), encoding="utf-8") as handle:
                data = json.load(handle)
            return data["calls"], data["counts"]
    return {}, {}
