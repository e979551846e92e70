"""lint-tree: ``repro.analysis.run_lint`` over whole source trees.

One operation is one full-tree lint pass with every rule. A run lints
the package itself once, untimed (``run_lint()`` with no paths; the tree
is lint-clean), then repeats rounds of one pass each over copies of the
package in turn: an unmodified copy, which must yield no finding, and
the seeded copies. Every timed pass thus lints the same tree give or
take a few planted lines. A seeded copy plants exactly one violation
per rule (DET001, DET002, PKL001, LOCK001, SCHEMA001) at sites drawn
from the workload seed, and must yield exactly the findings its
construction predicts: (rule, module, line).
"""

from __future__ import annotations

import ast
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Tuple

import common
import layers

NAME = "lint-tree"
SEEDED_COPIES = 3

#: rule -> (packages the rule covers, planted lines, finding offset).
#: ``{i}`` is the site's indentation. LOCK001 only covers the job
#: classes of repro.service.jobs, so its sites are methods there.
PLANTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...], int]] = {
    "LOCK001": (("repro.service.jobs",), ("{i}self._perfbench_planted = None",), 0),
    "DET001": (("repro",), ("{i}import time as _perfbench_clock",
                            "{i}_perfbench_clock.time()"), 1),
    "DET002": (("repro",), ('{i}rng_for("perfbench", id(_perfbench_key))',), 0),
    "PKL001": (("repro.tune", "repro.scenarios"), (
        "{i}class _PerfbenchPlantedError(Exception):",
        "{i}    def __init__(self, first, second):",
        "{i}        super().__init__(first)",
    ), 0),
    "SCHEMA001": (("repro.scenarios", "repro.tune", "repro.service"), (
        "{i}@dataclass",
        "{i}class _PerfbenchPlantedSpec:",
        "{i}    value: int = 0",
        "{i}    def problems(self):",
        "{i}        return []",
        "{i}    @classmethod",
        "{i}    def from_dict(cls, data):",
        "{i}        return cls(**data)",
    ), 6),
}


def module_of(package_root: Path, path: Path) -> str:
    parts = list(path.relative_to(package_root.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _in(module: str, packages) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


def _sites(package_root: Path):
    """(module, path, insert line, indent, node kind) for every def or
    class whose first body statement directly follows its header."""
    for path in sorted(package_root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        module = module_of(package_root, path)
        parents = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = node.body[0]
            if first.lineno <= node.lineno:
                continue
            header = lines[first.lineno - 2].rstrip()
            if not header.endswith(":") or header.lstrip().startswith("#"):
                continue
            owner = parents.get(node)
            yield {
                "module": module, "path": path, "line": first.lineno,
                "indent": " " * first.col_offset,
                "method_of": owner.name if isinstance(owner, ast.ClassDef) else None,
                "name": node.name, "is_def": not isinstance(node, ast.ClassDef),
            }


def _eligible(rule: str, site) -> bool:
    packages = PLANTS[rule][0]
    if not _in(site["module"], packages):
        return False
    if rule == "LOCK001":
        return (site["is_def"] and site["method_of"] in ("Job", "JobManager")
                and site["name"] not in ("__init__", "__post_init__"))
    if site["module"] == "repro.service.jobs":
        return False  # keep the LOCK001 module free of other plants
    if rule in ("DET001", "DET002"):
        return site["is_def"]
    return True


def plant(package_root: Path, sites, seed: int, copy_index: int) -> List[Tuple[str, str, int]]:
    """Seed one violation per rule into ``package_root``, a copy of the
    package whose candidate ``sites`` were read from the original.

    Sites are drawn without repeating a module; returns the findings
    the copy must yield as sorted (rule, module, line) triples."""
    rng = common.workload_rng(NAME, seed, "plant", copy_index)
    used, expected = set(), []
    for rule in sorted(PLANTS):
        choices = [s for s in sites if _eligible(rule, s) and s["module"] not in used]
        site = choices[rng.randrange(len(choices))]
        used.add(site["module"])
        _, snippet, offset = PLANTS[rule]
        path = package_root / site["path"].relative_to(common.SRC / "repro")
        lines = path.read_text(encoding="utf-8").split("\n")
        at = site["line"] - 1
        planted = [line.format(i=site["indent"]) for line in snippet]
        path.write_text("\n".join(lines[:at] + planted + lines[at:]), encoding="utf-8")
        expected.append((rule, site["module"], site["line"] + offset))
    return sorted(expected)


def make_copy(destination: Path) -> Path:
    package = destination / "repro"
    shutil.copytree(common.SRC / "repro", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return package


def make_copies(root: Path, seed: int):
    """The unmodified copy and the seeded ones, each with its expected
    findings."""
    copies = [(make_copy(root / "clean"), [])]
    sites = list(_sites(common.SRC / "repro"))
    for index in range(SEEDED_COPIES):
        package = make_copy(root / f"seeded{index}")
        copies.append((package, plant(package, sites, seed, index)))
    return copies


def setup_probe() -> float:
    started = time.perf_counter()
    import repro.analysis  # noqa: F401

    root = Path(common.fresh_dir("probe-lint-"))
    make_copies(root, 0)
    elapsed = time.perf_counter() - started
    shutil.rmtree(root, ignore_errors=True)
    return elapsed


def findings_of(result, package_root: Path):
    return sorted(
        (f.rule, module_of(package_root, Path(f.path)), f.line) for f in result.findings
    )


def _lint(state, label, paths, expected, package_root, tracer=None, timed=True):
    from repro.analysis import run_lint

    if tracer is not None:
        tracer.set_trace(label)
    state["attempted"] += 1
    begun, begun_cpu = time.perf_counter(), common.cpu_seconds()
    try:
        result = run_lint(paths)
    except Exception as error:  # counted as a failed operation
        state["failed"] += 1
        state["problems"].append(f"{label}: {type(error).__name__}: {error}")
        return
    if timed:
        state["latencies"].append(time.perf_counter() - begun)
        state["cpu"].append(common.cpu_seconds() - begun_cpu)
    got = findings_of(result, package_root)
    if got != expected:
        state["problems"].append(f"{label}: findings {got} != expected {expected}")


def _round(state, index, copies, tracer=None):
    package, expected = copies[index % len(copies)]
    _lint(state, f"round{index}/{package.parent.name}", [str(package)], expected,
          package, tracer)


def _new_state():
    return {"attempted": 0, "failed": 0, "latencies": [], "cpu": [], "problems": []}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = common.setup_probes(NAME)
    import repro.analysis  # noqa: F401

    root = Path(common.fresh_dir("lint-"))
    try:
        copies = make_copies(root, seed)
        state = _new_state()
        if trace:
            return _run_traced(state, copies, seed)
        _lint(state, "installed package", None, [], common.SRC / "repro", timed=False)
        clock = common.Clock(seconds)
        index = 0
        while index == 0 or clock.more():
            _round(state, index, copies)
            index += 1
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": common.peak_rss_mb(),
            "cpu_p50_ms": 1000.0 * statistics.median(state["cpu"]),
        }
        return {"attempted": state["attempted"], "failed": state["failed"],
                "problems": state["problems"], "metrics": metrics,
                "wall_p50_ms": 1000.0 * statistics.median(state["latencies"])}
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_traced(state, copies, seed) -> dict:
    import tracer as tracing

    for index in (0, 1):
        _round(state, index, copies)
    untraced = sum(state["latencies"])
    tracer = tracing.Tracer(common.trace_dir(NAME, seed))
    tracing.install(tracer)
    for index in (0, 1):
        _round(state, index, copies, tracer)
    traced = sum(state["latencies"]) - untraced
    tracer.write("main")
    metrics = layers.from_spans(tracer.spans, tracer.calls, tracer.counts)
    metrics["trace.overhead_s"] = traced - untraced
    work = layers.work_counters(tracer.calls, tracer.counts)
    return {"attempted": state["attempted"], "failed": state["failed"],
            "problems": state["problems"], "metrics": metrics, "work_counters": work}

