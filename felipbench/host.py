"""Host fingerprint, source digest, kernel prebuild and the count store.

Everything here runs before the first timed interval, and everything the
benchmark writes lands under ``<checkout>/.bench_build``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "felipbench"
KERNEL_CACHE = BUILD / "kernels"


#: what one :func:`calibration_s` takes on the reference host; dividing a
#: measured time by ``calibration_s() / REFERENCE_CALIBRATION_S`` gives
#: seconds of that host
REFERENCE_CALIBRATION_S = 0.023
#: what one :func:`reference_op` takes on the reference host
REFERENCE_OP_S = 1.0e-5


def calibration_s() -> float:
    """Wall time of a fixed mix of interpreter and numpy work.

    The host's speed swings by a factor of up to two over tens of
    seconds (shared cores: a fixed pure-Python loop reads 0.30-0.50 s
    with no steal time reported). Timing this probe right before and
    after a measured interval gives the speed the interval ran at.
    """
    import numpy as np
    started = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i
    n = 300_000
    values = ((np.arange(n, dtype=np.int64) * 7919) % n).astype(np.float64)
    for _ in range(2):
        np.cumsum(np.sort(values) * 1.5).sum()
    return time.perf_counter() - started


def slowdown(before: float, after: float) -> float:
    """Host slowdown over an interval bracketed by two calibrations."""
    return (before + after) / (2.0 * REFERENCE_CALIBRATION_S)


#: reference operations one :func:`ops_calibration_s` times (~20 ms)
CALIBRATION_OPS = 2000


def ops_calibration_s() -> float:
    """Mean wall time of one :func:`reference_op` over ~20 ms.

    The answer pass is mostly interpreter dispatch and small-array numpy
    calls, whose speed moves with the host's state more than the bulk
    work of :func:`calibration_s` does, so it is bracketed by this
    probe instead.
    """
    op = reference_op()
    started = time.perf_counter()
    for _ in range(CALIBRATION_OPS):
        op()
    return (time.perf_counter() - started) / CALIBRATION_OPS


def ops_slowdown(before: float, after: float) -> float:
    """Host slowdown over an interval bracketed by two
    :func:`ops_calibration_s` probes."""
    return (before + after) / (2.0 * REFERENCE_OP_S)


def reference_op():
    """A fixed ~10 µs mix of interpreter and small-array numpy work.

    It shares no code with FELIP, so a change to the program moves a
    time scaled by it in the same proportion as the raw time.
    """
    import numpy as np
    vec = np.arange(64, dtype=np.float64)
    out = np.empty(64)
    mat = np.arange(4096, dtype=np.float64).reshape(64, 64)

    def op() -> float:
        total = 0
        for i in range(200):
            total += i
        np.multiply(vec, 1.5, out=out)
        return (mat[5:30, 7:40].sum() + out[3:20].sum() + mat[:, 3].sum()
                + total)

    return op


def reference_scaled_ms(call_s: float, reference_s: float) -> float:
    """A call's time in ms at the reference host speed, given the time
    :func:`reference_op` took next to it.

    A single ``answer`` call takes tens of microseconds, too short for
    two calibrations to bracket; the reference operation timed right
    next to it gives the speed that call ran at.
    """
    return call_s * REFERENCE_OP_S / reference_s * 1e3


def child_env() -> Dict[str, str]:
    """Environment for every interpreter the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    env.pop("REPRO_NO_JIT", None)
    env.pop("REPRO_JIT", None)
    return env


def source_digest() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    files: List[Path] = sorted(SRC.rglob("*.py")) + sorted(
        BENCH_DIR.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def setup_probe(workload: str) -> List[str]:
    """Run ``setup_probe.py`` in a fresh interpreter; its output lines."""
    scratch = BUILD / "tmp" / "setup"
    scratch.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload,
         str(scratch)],
        env=child_env(), capture_output=True, text=True, timeout=600,
        check=True)
    return proc.stdout.strip().splitlines()


def prebuild(workload: str) -> Dict[str, object]:
    """One untimed setup in a child, before any timed work.

    It compiles (if needed) and loads the kernel library, byte-compiles
    the sources and warms the page cache, so a compile never falls
    inside a measured interval. Reports whether a compile happened and
    which backend serves each kernel.
    """
    KERNEL_CACHE.mkdir(parents=True, exist_ok=True)
    before = {p.name for p in KERNEL_CACHE.glob("*.so")}
    lines = setup_probe(workload)
    after = {p.name for p in KERNEL_CACHE.glob("*.so")}
    return {"compiled_this_run": bool(after - before),
            "backends": json.loads(lines[2])}


def fingerprint(kernel_info: Dict[str, object]) -> Dict[str, object]:
    import numpy
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": affinity,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernel_info,
        "source_sha256": source_digest(),
    }


def check_counts(key: str, counts: Dict[str, int]) -> Optional[str]:
    """Compare declared counts with an earlier run of the same key.

    ``key`` names (source digest, workload, seed, seconds, trace); the
    first run records the counts, later runs must reproduce them
    exactly. Returns a description of the first mismatch, or None.
    """
    path = BUILD / "counts" / f"{key}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        for name in sorted(set(previous) | set(counts)):
            if previous.get(name) != counts.get(name):
                return (f"{name}: earlier run {previous.get(name)!r}, "
                        f"this run {counts.get(name)!r}")
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return None
