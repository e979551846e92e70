"""In-memory span tracer for the benchmark's traced run.

The traced run wraps the program's layer boundaries from the outside:
each target function or method is replaced, in its defining module and
in every ``repro`` module that imported it by name, by a wrapper that
records one span per call (or, for DES process generators, one span per
resume). A span is ``(id, parent, name, start, end, trace, pid)``;
``trace`` is the id of the benchmark operation the span belongs to.
Spans stay in memory until the traced process writes them out.

Forked pool workers inherit the wrappers. The two pool task entry
points are wrapped as well, so a worker writes the spans it recorded
for each task to the trace directory before it hands the result back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Span and count recorder; one per traced process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- context ------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_trace(self, trace_id: str) -> None:
        self._local.trace = trace_id

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _open(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent, start: float) -> None:
        end = time.perf_counter()
        self._stack().pop()
        trace = getattr(self._local, "trace", None)
        self.spans.append((span_id, parent, name, start, end, trace, os.getpid()))

    # -- wrappers -----------------------------------------------------------
    def wrap_call(self, name: str, fn: Callable, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer._lock:
                tracer.calls[name] += 1
            if on_call is not None:
                on_call(tracer, args, kwargs)
            span_id, parent, start = tracer._open(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                tracer._close(name, span_id, parent, start)
            if on_return is not None:
                on_return(tracer, args, value)
            return value

        return traced

    def wrap_gen(self, name: str, fn: Callable, on_call=None, on_return=None):
        """Wrap a generator function; every resume becomes one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer._lock:
                tracer.calls[name] += 1
            if on_call is not None:
                on_call(tracer, args, kwargs)
            gen = fn(*args, **kwargs)
            send_value, error = None, None
            while True:
                span_id, parent, start = tracer._open(name)
                try:
                    if error is not None:
                        yielded = gen.throw(error)
                    else:
                        yielded = gen.send(send_value)
                except StopIteration as stop:
                    tracer._close(name, span_id, parent, start)
                    if on_return is not None:
                        on_return(tracer, args, stop.value)
                    return stop.value
                except BaseException:
                    tracer._close(name, span_id, parent, start)
                    raise
                tracer._close(name, span_id, parent, start)
                try:
                    send_value, error = (yield yielded), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as thrown:  # re-delivered into gen
                    send_value, error = None, thrown

        return traced

    # -- output -------------------------------------------------------------
    def write(self, tag: str, spans: Optional[list] = None, counts=None, calls=None) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{tag}-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans if spans is None else spans,
                    "calls": dict(self.calls if calls is None else calls),
                    "counts": dict(self.counts if counts is None else counts),
                },
                handle,
            )
        return path


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (modules import these functions by name)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _wrap_function(tracer, module, attr, name, gen=False, **hooks):
    original = getattr(module, attr)
    wrapper = (tracer.wrap_gen if gen else tracer.wrap_call)(name, original, **hooks)
    _rebind(original, wrapper)


def _wrap_method(tracer, cls, attr, name, gen=False, **hooks):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped = (tracer.wrap_gen if gen else tracer.wrap_call)(name, raw.__func__, **hooks)
        setattr(cls, attr, classmethod(wrapped))
    else:
        setattr(cls, attr, (tracer.wrap_gen if gen else tracer.wrap_call)(name, raw, **hooks))


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _count_batch_epochs(tracer, args, kwargs):
    epochs = kwargs.get("epochs", args[1] if len(args) > 1 else None)
    if hasattr(epochs, "__len__"):
        tracer.add("tune.epochs_coalesced", len(epochs))


def _count_job_outcome(tracer, args, result):
    tracer.add("tune.trial_failures", len(result.failures))
    tracer.add("tune.fault_events", len(result.fault_events))


def _count_trace_jobs(tracer, args, result):
    tracer.add("multitenancy.jobs", len(result.records))


def _count_index_files(tracer, args, index):
    tracer.add("analysis.files", len(index))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported ``repro`` package."""
    import repro.scenarios  # noqa: F401  (loads the whole simulation stack)
    from repro.analysis import engine
    from repro.analysis.rules import ALL_RULES
    from repro.core import clustering, groundtruth, pipetune
    from repro.counters import pmu, profiler
    from repro.experiments import golden
    from repro.hpo.algorithms import SearchAlgorithm
    from repro.multitenancy import scheduler
    from repro.scenarios import backends, cache, planner, runner, sweep
    from repro.simulation import des
    from repro.tune import runner as tune_runner
    from repro.tune import trainer
    from repro.workloads import accuracy, noise, perfmodel, spec

    for attr, name in (("plan", "scenarios.plan"), ("execute", "scenarios.execute"),
                       ("collect", "scenarios.collect")):
        _wrap_method(tracer, runner.ScenarioRunner, attr, name)
    _wrap_function(tracer, planner, "partition", "scenarios.partition")
    for cls in (backends.SerialBackend, backends.ContainedSerialBackend,
                backends.ProcessPoolBackend, cache.CachingBackend):
        _wrap_method(tracer, cls, "run", "scenarios.backend")
    _wrap_method(tracer, cache.OutcomeCache, "load", "scenarios.cache_load")
    _wrap_method(tracer, cache.OutcomeCache, "store", "scenarios.cache_store")
    _wrap_method(tracer, cache.SweepRunStore, "save", "tsdb.save")
    _wrap_function(tracer, golden, "render_result", "experiments.render")
    _wrap_method(tracer, des.Environment, "run", "simulation.run")
    _wrap_function(tracer, trainer, "run_trial", "tune.run_trial", gen=True)
    _wrap_method(tracer, tune_runner.HptJobRunner, "run", "tune.job_run", gen=True,
                 on_return=_count_job_outcome)
    _wrap_function(tracer, perfmodel, "epoch_cost", "workloads.epoch_cost")
    _wrap_function(tracer, perfmodel, "epoch_cost_batch", "workloads.epoch_cost_batch",
                   on_call=_count_batch_epochs)
    _wrap_function(tracer, accuracy, "accuracy_at_epoch", "workloads.accuracy_at_epoch")
    _wrap_function(tracer, accuracy, "accuracy_curve", "workloads.accuracy_curve")
    _wrap_function(tracer, noise, "noise_block", "workloads.noise_block")
    _wrap_function(tracer, noise, "noise_matrix", "workloads.noise_block")
    _wrap_function(tracer, spec, "stable_seed", "keying.stable_seed")
    _wrap_function(tracer, spec, "rng_for", "keying.rng_for")
    _wrap_method(tracer, profiler.EpochProfiler, "profile_epoch", "counters.profile_epoch")
    _wrap_method(tracer, pmu.Pmu, "read_interval", "counters.pmu_read")
    _wrap_method(tracer, pmu.Pmu, "final_counts", "counters.pmu_read")
    _wrap_method(tracer, groundtruth.GroundTruth, "query", "core.gt_query")
    _wrap_method(tracer, groundtruth.GroundTruth, "refit", "core.gt_refit")
    _wrap_method(tracer, clustering.KMeans, "fit", "core.kmeans_fit")
    _wrap_method(tracer, pipetune.PipeTuneSession, "warm_start", "core.warm_start")
    for cls in _subclasses(SearchAlgorithm):
        for attr in ("next_batch", "report"):
            if attr in cls.__dict__:
                _wrap_method(tracer, cls, attr, f"hpo.{attr}")
    _wrap_method(tracer, scheduler.FifoJobScheduler, "run", "multitenancy.run", gen=True,
                 on_return=_count_trace_jobs)
    _wrap_method(tracer, engine.ModuleIndex, "from_paths", "analysis.index",
                 on_return=_count_index_files)
    for rule in ALL_RULES:
        cls = type(rule)
        check = cls.__dict__["check"]
        _wrap_method(tracer, cls, "check", f"analysis.rule.{cls.id}",
                     gen=inspect.isgeneratorfunction(check))
    for module, attr in ((sweep, "_run_variant_task"), (backends, "_run_chain_task")):
        _wrap_pool_task(tracer, module, attr)


def _wrap_pool_task(tracer: Tracer, module, attr: str) -> None:
    """In a forked worker, write the spans each task recorded."""
    from repro.workloads import philox_construction_count

    original = getattr(module, attr)

    @functools.wraps(original)
    def task(payload):
        if os.getpid() == tracer.pid:
            return original(payload)
        tracer._local.stack = []
        tracer.set_trace(f"worker-{os.getpid()}")
        mark = len(tracer.spans)
        calls_before = dict(tracer.calls)
        counts_before = dict(tracer.counts)
        philox_before = philox_construction_count()
        try:
            return original(payload)
        finally:
            tracer.add("keying.philox_constructions", philox_construction_count() - philox_before)
            calls = {k: v - calls_before.get(k, 0) for k, v in tracer.calls.items()}
            counts = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
            tag = f"worker{next(tracer._ids)}"
            tracer.write(tag, spans=tracer.spans[mark:], calls=calls, counts=counts)

    setattr(module, attr, task)


# ---------------------------------------------------------------------------
# Span files -> per-layer figures
# ---------------------------------------------------------------------------


def load(out_dir: str):
    """All span files of one traced run: (spans, calls, counts, main_pids)."""
    spans, calls, counts = [], defaultdict(int), defaultdict(float)
    for entry in sorted(os.listdir(out_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".json")):
            continue
        with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
            data = json.load(handle)
        spans.extend(tuple(span) for span in data["spans"])
        for key, value in data["calls"].items():
            calls[key] += value
        for key, value in data["counts"].items():
            counts[key] += value
    return spans, calls, counts


def inclusive_seconds(spans) -> Dict[str, float]:
    """Seconds per span name, counting only the outermost span of each
    name (a nested call of the same boundary is already inside it)."""
    by_key = {(span[6], span[0]): span for span in spans}
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        parent, nested = span[1], False
        while parent is not None:
            ancestor = by_key.get((span[6], parent))
            if ancestor is None:
                break
            if ancestor[2] == span[2]:
                nested = True
                break
            parent = ancestor[1]
        if not nested:
            totals[span[2]] += span[4] - span[3]
    return totals


def self_seconds(spans) -> Dict[str, float]:
    """Per span name: duration minus the time its direct children cover."""
    child_time: Dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span[1] is not None:
            child_time[(span[6], span[1])] += span[4] - span[3]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[2]] += (span[4] - span[3]) - child_time.get((span[6], span[0]), 0.0)
    return totals
