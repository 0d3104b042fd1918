"""Shared machinery: statistics, the run record, processes and memory.

Everything here is workload-agnostic.  Workloads build a :class:`Run`,
record operations and metric values into it, and ``run.py`` prints the
final JSON line.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The seed the correctness pins were recorded at.
DEFAULT_SEED = 2007
#: A seed never used while the benchmark was tuned; re-check later
#: claims on it (see README.md).
HELD_OUT_SEED = 90210

clock = time.perf_counter


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
class TooFewSamples(ValueError):
    """A percentile was asked for without ten samples beyond it."""


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0 < q < 100) of *values*, linearly interpolated.

    Refuses (``TooFewSamples``) unless at least ten samples lie beyond
    the percentile, so a p99 needs about 1000 samples and a p50 about 20.
    """
    data = sorted(values)
    n = len(data)
    beyond = n * (100.0 - q) / 100.0
    if n == 0 or beyond < 10:
        raise TooFewSamples(
            f"p{q:g} needs 10 samples beyond it; {n} samples give {beyond:.1f}"
        )
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: The reference kernel's mean time on the 2-core host the benchmark was
#: tuned on (Python 3.11).  Scaled metrics (``Run.host_metric``) are
#: reported as if the host ran the kernel in exactly this time; see
#: README.md, "Noise on this host".
REFERENCE_KERNEL_MS = 60.0


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _reference_kernel(n: int = 250_000) -> int:
    """Fixed pure-Python work: dict, list and attribute traffic.

    It shares no code with the program, so a change to the program
    cannot move it; only the host's speed does.
    """
    table: dict[int, int] = {}
    cells = [_Cell(i, i * 7 % 13) for i in range(64)]
    queue: list[int] = []
    acc = 0
    for i in range(n):
        c = cells[i & 63]
        key = (c.a + i) % 97
        table[key] = table.get(key, 0) + c.b
        queue.append(key)
        if len(queue) > 32:
            acc += queue.pop(0)
        c.a += 1
    return acc


class HostSpeed:
    """Samples of the reference kernel's time, taken through a run."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []

    def sample(self, reps: int = 1) -> None:
        for _ in range(reps):
            t0 = clock()
            _reference_kernel()
            self.samples_ms.append(1000 * (clock() - t0))

    def kernel_ms(self) -> float:
        """Mean kernel time over the run's samples.

        The mean, not the median: the host slows in bursts shorter than
        one sample, and the measured work runs through all of them.
        """
        return statistics.fmean(self.samples_ms)

    def slowdown(self) -> float:
        """Host time per unit of work, relative to the reference host."""
        return self.kernel_ms() / REFERENCE_KERNEL_MS


# ----------------------------------------------------------------------
# The run record
# ----------------------------------------------------------------------
class Run:
    """One benchmark invocation: operations, metrics, and context."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int,
                 trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
        self.out_dir = root / ".perfbench" / self.run_id
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.samples: dict[str, int] = {}
        self.notes: dict[str, object] = {}
        self.speed = HostSpeed()
        self.raw: dict[str, float] = {}

    # Operations -------------------------------------------------------
    def op(self, ok: bool, what: str = "") -> bool:
        """Count one operation; a false *ok* is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(what or "unnamed check")
        return ok

    # Metrics ----------------------------------------------------------
    def metric(self, name: str, value: float, unit: str,
               samples: int | None = None) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        if samples is not None:
            self.samples[name] = samples

    def detail(self, name: str, value: float, unit: str,
               samples: int | None = None) -> None:
        """A workload-specific figure: kept in the record, not printed.

        The result line holds only the names every workload reports
        (BENCHMARK.json); the rest of a workload's breakdown goes here.
        """
        entry = {"value": float(value), "unit": unit}
        if samples is not None:
            entry["samples"] = samples
        self.notes.setdefault("detail", {})[name] = entry

    def host_metric(self, name: str, value: float, unit: str, *,
                    rate: bool = False, samples: int | None = None) -> None:
        """An end-to-end host timing, scaled to the reference host.

        A time is divided by the run's slowdown, a rate (*rate*)
        multiplied by it; the measured value stays in the record.
        """
        self.raw[name] = value
        slowdown = self.speed.slowdown()
        self.metric(name, value * slowdown if rate else value / slowdown,
                    unit, samples)

    def tmpdir(self, name: str) -> Path:
        """A scratch directory, removed when the run ends."""
        path = self.out_dir / "tmp" / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    # Output -----------------------------------------------------------
    def summary(self) -> dict:
        return {
            "correct": not self.failures and self.attempted > 0,
            "attempted": max(self.attempted, 1),
            "failed": len(self.failures) if self.attempted else 1,
            "metrics": self.metrics,
        }

    def write_record(self) -> Path:
        """Write the full record (host, samples, failures) next to spans."""
        record = {
            "run_id": self.run_id,
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "host": host_record(self.root),
            "summary": self.summary(),
            "sample_counts": self.samples,
            "measured_unscaled": self.raw,
            "reference_kernel_ms": self.speed.samples_ms,
            "failures": self.failures,
            "notes": self.notes,
        }
        path = self.out_dir / "record.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        return path


def host_record(root: Path) -> dict:
    """Where and on what a result was measured."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # numpy is a hard dependency; record its absence
        numpy_version = None
    try:
        from repro.simulator.engine import ENGINE_VERSION
    except ImportError:
        ENGINE_VERSION = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "engine_version": ENGINE_VERSION,
        "git_commit": commit,
    }


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env(root: Path, tmp: Path) -> dict:
    """Environment for a child: the checkout's sources, a local TMPDIR."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_STORE_DIR", None)
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate *proc* and its process group, and wait until it ended."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()


def _tree_rss_kb(pid: int) -> int:
    """Resident set of *pid* plus all its descendants, in KiB."""
    children: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ppid = int(fields[1])
        children.setdefault(ppid, []).append(int(entry))
        rss[int(entry)] = int(fields[21]) * (resource.getpagesize() // 1024)
    total = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        total += rss.get(p, 0)
        stack.extend(children.get(p, ()))
    return total


def vm_hwm_mb(pid: int) -> float:
    """A live process's own peak resident set (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def run_timed(cmd: list[str], *, cwd: Path, env: dict, timeout: float,
              sample_rss: bool = False) -> dict:
    """Run *cmd* to completion; wall time from exec to exit, peak tree RSS.

    The child leads its own process group so a timeout kills the pool
    workers too.  RSS is sampled every 20 ms over the whole tree.
    """
    peak = [0]
    t0 = clock()
    proc = subprocess.Popen(
        cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    done = threading.Event()

    def sampler() -> None:
        while not done.wait(0.02):
            peak[0] = max(peak[0], _tree_rss_kb(proc.pid))

    thread = threading.Thread(target=sampler, daemon=True)
    if sample_rss:
        thread.start()
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        stop_process(proc)
        out, err = proc.communicate()
        timed_out = True
    wall = clock() - t0
    done.set()
    if sample_rss:
        thread.join()
    return {
        "wall_s": wall,
        "returncode": proc.returncode,
        "timed_out": timed_out,
        "stdout": out,
        "stderr": err,
        "peak_rss_mb": peak[0] / 1024.0,
    }


def python() -> str:
    return sys.executable or "python3"


def probe_median(run: Run, env: dict, code: list[str], n: int,
                 what: str) -> float:
    """Median over *n* fresh interpreters of the time each one prints."""
    values = []
    for _ in range(n):
        proc = subprocess.run(code, cwd=run.root, env=env,
                              capture_output=True, text=True, timeout=60)
        if run.op(proc.returncode == 0, f"{what}: {proc.stderr[-300:]}"):
            values.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return median(values) if values else float("nan")


def import_seconds(run: Run, env: dict, module: str, n: int = 3) -> float:
    """Median time a fresh interpreter takes to import *module*."""
    code = (f"import json, time; t = time.perf_counter(); import {module}; "
            "print(json.dumps(time.perf_counter() - t))")
    return probe_median(run, env, [python(), "-c", code], n,
                        f"import {module}")
