"""Checkout discovery, operation outcomes, environment record, statistics and result output."""

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


class CheckoutError(RuntimeError):
    """The directory holds no cqforest source tree to benchmark."""


@dataclass
class Outcome:
    """One operation: wall seconds (None if it raised), failures seen in its outputs, its score."""

    seconds: float | None
    failures: list = field(default_factory=list)
    score: object = None
    details: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures


def load_program(root):
    """Import cqforest from ``root/src`` and nowhere else; return the package."""
    src = Path(root, "src")
    if not (src / "cqforest" / "__init__.py").is_file():
        raise CheckoutError(f"no cqforest sources under {src}")
    sys.path.insert(0, str(src))
    import cqforest

    if Path(cqforest.__file__).resolve().parent != (src / "cqforest").resolve():
        raise CheckoutError(f"cqforest was imported from {cqforest.__file__}, not from {src}")
    return cqforest


def program_env(root):
    """Environment for child interpreters: they import cqforest from root/src only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root, "src"))
    return env


def startup_seconds(root, repeats=3):
    """Median wall time of ``python -c "import cqforest"`` in a fresh interpreter."""
    env = program_env(root)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cqforest"], env=env, cwd=root, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_commit(root):
    git = Path(root, ".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted(Path(root, "src", "cqforest").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root, workload, seed, trace):
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


def p90(samples):
    """Linear-interpolated 90th percentile."""
    ordered = sorted(samples)
    pos = 0.9 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


TAIL_BLOCK = 100


def tail(samples):
    """The 90th percentile, with 10 samples beyond it and robust to bursts of outside load.

    With at least TAIL_BLOCK samples, the median over consecutive blocks
    of TAIL_BLOCK samples of each block's 90th percentile. With fewer, no
    90th percentile has 10 samples beyond it, and the median is returned.
    """
    blocks = [samples[i : i + TAIL_BLOCK] for i in range(0, len(samples) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    if not blocks:
        return statistics.median(samples)
    return statistics.median(p90(b) for b in blocks)


def peak_rss_mb(who):
    """Peak resident set size in MiB of this process ("self") or its largest child."""
    flag = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(flag).ru_maxrss / 1024.0


def report(metrics, units, correct, attempted, failed, env, notes, record_dir, data):
    """Print the metric table and the one-line JSON result.

    The record on disk adds ``data``: the raw samples of an end-to-end
    run, or the spans of a traced one (in a file of their own).
    """
    print(f"perfbench {env['workload']} seed={env['seed']} trace={env['trace']}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes:
        print("  " + note)
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {units[name]}")
    print(f"  {'error_rate':34s} {failed:>9d}/{attempted:<4d} failed/attempted")
    values = {name: {"value": value, "unit": units[name]} for name, value in metrics.items() if value is not None}
    result = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": values}
    record_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}-{stamp}-{os.getpid()}"
    spans = data.pop("spans", None)
    with open(record_dir / f"{base}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes, **result, **data}, fh, indent=1)
    if spans is not None:
        with open(record_dir / f"{base}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print(json.dumps(result), flush=True)
    return result
