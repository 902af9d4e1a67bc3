"""Shared machinery of the benchmark: environment, probes, spans, stats.

Nothing here imports the program (``repro``); the workload modules do,
after :func:`pin_environment` has cleared every ``REPRO_*`` switch.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

#: The checkout root (``perfbench/`` sits directly below it).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under this ignored directory.
STATE = ROOT / ".perfbench_cache"
HERE = Path(__file__).resolve().parent

#: The ``--seed`` default, and the seed the recorded digests belong to.
DEFAULT_SEED = 0

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Fresh set-ups per run: at least ``SETUP_MIN``, and more (up to
#: ``SETUP_MAX``) until they add up to ``SETUP_SECONDS``.  ``setup_s`` is
#: their median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 12, 4.0


def pin_environment() -> dict[str, str]:
    """Clear every ``REPRO_*`` variable and pin the benchmark's own.

    ``REPRO_CACHE_DIR`` would warm a "cold" study, ``REPRO_SERVICE_URL``
    would reroute studies to a daemon, and ``REPRO_WORKERS``,
    ``REPRO_FAST_BACKEND``, ``REPRO_TILE_ANTS``, ``REPRO_SHM_TRANSPORT``,
    ``REPRO_ARENA_TRIM_BYTES``, ``REPRO_SPILL_*``, ``REPRO_CHAOS``,
    ``REPRO_SANITIZE`` and ``REPRO_CACHE_STORE`` change how the work is
    done, so none may leak in.  The compiled kernel library is built into
    a benchmark-owned directory, and temporary files stay inside the
    checkout.  Returns the variables that were cleared.
    """
    cleared = {
        key: os.environ.pop(key) for key in list(os.environ) if key.startswith("REPRO_")
    }
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CEXT_CACHE"] = str(STATE / "cext")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return cleared


# -- the host-speed probe ----------------------------------------------------


def host_probe() -> float:
    """Seconds for a fixed numpy loop that owes nothing to the program.

    Single-threaded sorts, prefix sums and elementwise passes over a
    seeded array: the same work every time, so its duration tracks the
    host's speed at that moment.  Best of three repetitions.
    """
    import numpy as np

    data = np.random.default_rng(20150721).random(1 << 17)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = data.copy()
        for _ in range(16):
            acc = np.sort(acc)
            acc = np.cumsum(acc) % 1.0
            acc = np.sqrt(acc * 0.5 + 0.25)
        best = min(best, time.perf_counter() - start)
    return best


#: What :func:`speed_probe` reads on the 2-CPU host the benchmark was
#: sized on when that host runs at its fast level.  Host-calibrated
#: seconds (:func:`calibrated`) are wall seconds scaled to that speed.
REF_SPEED_PROBE_S = 0.0045

_SPEED_DATA = None


def speed_probe() -> float:
    """A short fixed numpy loop (a few ms), best of three: the host's speed now.

    Taken between timed units, when nothing of the program is running, so
    each unit can be scaled by the speed the host had around it.
    """
    import numpy as np

    global _SPEED_DATA
    if _SPEED_DATA is None:
        _SPEED_DATA = np.random.default_rng(20150722).random(1 << 15)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = _SPEED_DATA.copy()
        for _ in range(4):
            acc = np.sort(acc)
            acc = np.cumsum(acc) % 1.0
            acc = np.sqrt(acc * 0.5 + 0.25)
        best = min(best, time.perf_counter() - start)
    return best


def calibrated(seconds: float, before: float, after: float) -> float:
    """Wall ``seconds`` at the reference host speed.

    ``before`` and ``after`` are :func:`speed_probe` readings taken on
    either side of the timed work; their mean stands for the host's speed
    during it.  The program's own work sets the result, the host's
    momentary speed largely drops out of it.
    """
    return seconds * REF_SPEED_PROBE_S / ((before + after) / 2.0)


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile, refusing one with too few samples beyond it.

    Linear interpolation between closest ranks.  ``min_beyond`` samples
    must lie strictly above the percentile's rank, or the value would be
    set by a handful of outliers; :class:`ValueError` says so.
    """
    data = sorted(values)
    count = len(data)
    if count == 0:
        raise ValueError("percentile of no samples")
    rank = q / 100.0 * (count - 1)
    beyond = count - 1 - math.floor(rank)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {count} samples has {beyond} beyond it; "
            f"needs {min_beyond}"
        )
    low = math.floor(rank)
    high = min(low + 1, count - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    return float(statistics.median(values))


# -- memory --------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """This process's resident-set high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Another live process's resident-set high-water mark (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- digests -------------------------------------------------------------------


def table_digest(tables) -> str:
    """SHA-256 over the canonical JSON of a sequence of result tables."""
    digest = hashlib.sha256()
    for table in tables:
        digest.update(json.dumps(table.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def recorded_digest(workload: str) -> str:
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)[workload]


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory spans: name, start, end, parent span and cell/job id.

    A span's parent is the span open on the same thread when it began.
    Spans are plain lists so a finished trace dumps straight to JSON.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str, ident=None) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, ident])
        stack.append(index)
        return index

    def end(self, index: int, rename: str | None = None, **extra) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        if rename is not None:
            span[0] = rename
        if extra:
            span.append(extra)
        self._local.stack.pop()
        return span[2] - span[1]

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[2] is not None]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "id")
        out = []
        for span in self.spans:
            record = dict(zip(keys, span[:5]))
            if len(span) > 5:
                record.update(span[5])
            out.append(record)
        return out


# -- set-up probes -------------------------------------------------------------


def timed_ready(cmd: list[str], marker: str, timeout: float = 120.0):
    """Start ``cmd`` and time it until a stdout line containing ``marker``.

    Returns ``(seconds, raw_seconds, process, line)``: ``seconds`` are
    host-calibrated (:func:`calibrated`, with speed probes taken just
    before the start and just after the marker), ``raw_seconds`` are
    wall-clock.  The process keeps running (its stdin is a pipe the
    caller closes to let a probe child exit).
    """
    before = speed_probe()
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=str(ROOT),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    deadline = start + timeout
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{cmd[1:3]} exited before {marker!r}")
        if marker in line:
            seconds = time.perf_counter() - start
            return calibrated(seconds, before, speed_probe()), seconds, proc, line
        if time.perf_counter() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{cmd[1:3]} never printed {marker!r}")


def more_setups(samples: list[float], smoke: bool) -> bool:
    """Whether another fresh set-up is due.

    At least ``SETUP_MIN`` set-ups and ``SETUP_SECONDS`` of them, so a
    cheap set-up is sampled more often; one in smoke mode.
    """
    if smoke:
        return not samples
    return len(samples) < SETUP_MIN or (
        sum(samples) < SETUP_SECONDS and len(samples) < SETUP_MAX
    )


def setup_command(workload: str, seed: int, smoke: bool) -> list[str]:
    """The command of a fresh set-up child (``setup_child.py``)."""
    return [sys.executable, str(HERE / "setup_child.py"), "--workload", workload,
            "--seed", str(seed), *(["--smoke"] if smoke else [])]


def timed_setup(cmd: list[str]):
    """Start a set-up child and time it to its ``ready`` line.

    Returns ``(sample, process)``: the child's own breakdown plus
    ``setup_s`` (host-calibrated) and ``setup_raw_s``, and the
    still-running child.
    """
    seconds, raw, proc, line = timed_ready(cmd, "ready ")
    sample = json.loads(line.split("ready ", 1)[1])
    sample["setup_s"] = seconds
    sample["setup_raw_s"] = raw
    return sample, proc


def probe_setup(workload: str, seed: int, smoke: bool, samples=()) -> list[dict]:
    """Time fresh set-ups of a workload in child processes.

    Adds set-ups to ``samples`` (set-ups already timed, such as those of
    cold passes) until :func:`more_setups` is satisfied.  Each child
    imports the program, builds the workload's studies and (for the pool
    workload) starts its worker pool, prints ``ready`` with its own
    breakdown, and exits when its stdin closes.
    """
    samples = list(samples)
    cmd = setup_command(workload, seed, smoke)
    while more_setups([s["setup_s"] for s in samples], smoke):
        sample, proc = timed_setup(cmd)
        proc.stdin.close()
        proc.stdout.read()
        proc.wait(timeout=60)
        samples.append(sample)
    return samples


def prepare_program() -> tuple[float, str]:
    """Build the compiled kernels before any set-up is timed.

    The first build in a checkout compiles C (seconds); later runs reuse
    the library, so ``setup_s`` does not depend on the checkout's
    history.  Returns the build seconds (``setup.cext_build_s``) and the
    resolved kernel backend.
    """
    code = (
        "import json, time\n"
        "from repro.fast.backends import cext, resolve_backend\n"
        "t = time.perf_counter(); cext.availability()\n"
        "build = time.perf_counter() - t\n"
        "print(json.dumps({'build': build, 'backend': resolve_backend()[0]}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    info = json.loads(out.stdout.strip().splitlines()[-1])
    return info["build"], info["backend"]


def write_record(name: str, record: dict) -> Path:
    """Write a run's full record (spans, samples, provenance) as JSON."""
    out_dir = STATE / "records"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    return path
