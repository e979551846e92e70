"""Shared plumbing: checkout layout, environment, seeds, timing."""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

#: the checkout root: perfbench/ sits directly under it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything the benchmark writes lives here (listed in .gitignore).
WORK = ROOT / ".perfbench"
GOLDEN_DIR = ROOT / "benchmarks" / "results"
RUN_PY = Path(__file__).resolve().parent / "run.py"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken setup)."""


def prepare_environment() -> None:
    """Point this process and its children at the checkout's sources
    and keep every file the program writes inside the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a full checkout")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(WORK / "default-cache")
    os.environ.pop("PYTHONHASHSEED", None)
    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_program_location() -> None:
    """Refuse to measure a ``repro`` imported from anywhere else."""
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


def load_benchmark() -> Dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def workload_rng(workload: str, seed: int, *parts) -> random.Random:
    """The one source of every seed-derived input choice."""
    return random.Random(":".join(map(str, (workload, seed) + parts)))


def fresh_dir(prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=str(WORK / "tmp"))


def trace_dir(workload: str, seed: int) -> str:
    """Where a traced run writes its spans; kept until the next one."""
    path = WORK / "traces" / f"{workload}-seed{seed}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of the largest child it has waited
    for (forked pool workers, once reaped)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _live_descendants_cpu() -> float:
    """CPU seconds of this process's live descendants, from /proc: each
    one's own time plus that of the children it has waited for."""
    parents, ticks = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:  # the process ended meanwhile
            continue
        pid = int(entry)
        parents.setdefault(int(fields[1]), []).append(pid)
        ticks[pid] = sum(map(int, fields[11:15]))  # utime stime cutime cstime
    total, pending = 0, list(parents.get(os.getpid(), []))
    while pending:
        pid = pending.pop()
        total += ticks[pid]
        pending.extend(parents.get(pid, []))
    return total / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and all its descendants:
    those it has waited for (reaped pool workers) and those still
    running (pool workers kept alive between operations)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
            + _live_descendants_cpu())


def source_digest() -> str:
    """Identity of the program and benchmark sources, for comparing
    work counters."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")) + sorted(RUN_PY.parent.glob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def golden_text(name: str) -> Optional[str]:
    path = GOLDEN_DIR / f"{name}.txt"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


def run_internal(args: List[str], timeout_s: float = 170.0) -> Dict:
    """Run ``run.py <args>`` in a fresh interpreter; parse its last line."""
    completed = subprocess.run(
        [sys.executable, str(RUN_PY)] + args,
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        timeout=timeout_s,
        cwd=str(ROOT),
        text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchError(f"internal run {args} exited {completed.returncode}")
    return json.loads(lines[-1])


def setup_probes(workload: str, count: int = 5) -> List[float]:
    """Time the workload's set-up ``count`` times, each in a fresh process."""
    return [run_internal(["--setup-probe", workload])["setup_s"] for _ in range(count)]


class Clock:
    """Wall time of the measured phase of one run, in whole rounds."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self._mark = time.perf_counter()

    def more(self) -> bool:
        """Called after each round: start another one unless the run
        would then end further past its length than it now falls short."""
        now = time.perf_counter()
        last_round, self._mark = now - self._mark, now
        return now - self.start + last_round / 2 < self.seconds
