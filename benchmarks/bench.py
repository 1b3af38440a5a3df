"""randsurf benchmark: pinned CLI workloads, timed end to end and by layer.

Run from the root of a checkout; the package is imported from ``src/``
and need not be installed::

    python3 benchmarks/bench.py --workload mc_many --seed 0 --seconds 15 --trace 0

One run calls ``randsurf.cli.main`` in this process, first once at the
default seed as a warm-up that is checked against its pinned digest,
then at ``--seed`` again and again until ``--seconds`` have passed.
Between commands it times set-up in a fresh interpreter, so the set-up
samples span the whole run as the command samples do.
Every report is written with ``--out`` and its sha256 is compared with
``digests.json``; at a seed with no pinned digest, every report must
equal the first one.  ``--trace 1`` alternates untraced and traced
commands (see ``spans.py``) and reports per-layer metrics instead of
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it records the environment and every repetition.  Without ``src/`` the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from spans import PER_LAYER, ROOT_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
MIN_REPS = 3
MIN_SETUP_REPS = 9

END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    seeded: bool  # stats takes --seed; the oracle has no randomness

    def argv(self, seed: int) -> list[str]:
        if self.seeded:
            return [*self.args, "--seed", str(seed)]
        return list(self.args)


# Each workload gives most of its time to one layer and none to another;
# README.md says which and why.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mc_many",
            ("stats", "--n", "10", "--classes", "LR,LLR", "--no-topology",
             "--samples", "20000"),
            seeded=True,
        ),
        Workload(
            "mc_topology",
            ("stats", "--n", "1000", "--max-trace", "4", "--workers", "2",
             "--samples", "512"),
            seeded=True,
        ),
        Workload(
            "mc_deep",
            ("stats", "--n", "1000", "--max-trace", "7", "--no-topology",
             "--samples", "32"),
            seeded=True,
        ),
        Workload("oracle_n2", ("oracle", "--n", "2", "--max-trace", "6"), seeded=False),
    )
}


class MissingSource(RuntimeError):
    pass


def load_cli() -> Callable:
    """randsurf.cli.main from this checkout's src/, never an installed copy."""
    package = SRC / "randsurf"
    if not (package / "cli.py").is_file():
        raise MissingSource(f"no randsurf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import randsurf.cli

    if Path(randsurf.cli.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"randsurf imported from {randsurf.cli.__file__}, not {package}")
    return randsurf.cli.main


def load_pins(path: Path = DIGESTS) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


def pinned_digest(pins: dict, workload: Workload, seed: int) -> str | None:
    return pins.get(workload.name, {}).get(str(seed) if workload.seeded else "any")


# ---------------------------------------------------------------------------
# one command


@dataclass
class Run:
    seed: int
    traced: bool
    wall_s: float
    cpu_s: float
    digest: str | None
    ok: bool = False
    layers: dict[str, float] | None = None


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    # pool workers count once the pool has joined them
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_command(cli_main: Callable, argv: list[str], out: Path, seed: int,
                tracer: Tracer | None = None) -> Run:
    """One CLI command; the report's sha256 is taken and the file removed."""
    argv = [*argv, "--out", str(out)]
    gc.collect()  # garbage of earlier commands is not this command's cost
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli_main(argv)
        else:
            with tracer.installed():
                code = tracer.wrap(cli_main, ROOT_LAYER)(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        code = None
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    digest = None
    if code == 0 and out.is_file():
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink(missing_ok=True)
    layers = layer_metrics(tracer.spans) if tracer is not None else None
    return Run(seed, tracer is not None, wall, cpu, digest, layers=layers)


# ---------------------------------------------------------------------------
# set-up: fresh interpreter, import the CLI, resolve the class set

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import randsurf.cli
from randsurf.words import canonicalize, enumerate_classes_by_trace
args = randsurf.cli.build_parser().parse_args(sys.argv[1:])
if args.classes:
    classes = [canonicalize(w) for w in args.classes.split(",")]
else:
    classes = enumerate_classes_by_trace(args.max_trace).classes
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: Workload, seed: int) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", _SETUP_CODE, *workload.argv(seed)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "randsurf").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# one benchmark run


def measure(cli_main: Callable, workload: Workload, seed: int, seconds: float,
            trace: bool, pins: dict) -> tuple[dict, dict]:
    """(result, record) of one run; see the module docstring."""
    runs: list[Run] = []
    first: dict[int, str | None] = {}

    def once(at_seed: int, tracer: Tracer | None = None) -> Run:
        run = run_command(cli_main, workload.argv(at_seed), out, at_seed, tracer)
        want = pinned_digest(pins, workload, at_seed)
        if want is None:
            want = first.setdefault(at_seed, run.digest)
        run.ok = run.digest is not None and run.digest == want
        runs.append(run)
        return run

    setup: list[float] = []
    if not trace:
        setup_seconds(workload, seed)  # fills __pycache__
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        out = Path(tmp) / "report"
        once(DEFAULT_SEED)  # warm-up, checked against the pinned digest
        plain: list[Run] = []
        traced: list[Run] = []
        start = time.perf_counter()
        while (len(plain) < MIN_REPS or time.perf_counter() - start < seconds
               or not trace and len(setup) < MIN_SETUP_REPS):
            plain.append(once(seed))
            if trace:
                traced.append(once(seed, Tracer()))
            else:
                setup.append(setup_seconds(workload, seed))

    failed = sum(not r.ok for r in runs)
    wall = statistics.median(r.wall_s for r in plain)
    if trace:
        metrics = {k: statistics.median(r.layers[k] for r in traced) for k in traced[0].layers}
        metrics["trace_overhead_frac"] = (
            statistics.median(r.wall_s for r in traced) / wall - 1.0
        )
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "argv": workload.argv(seed),
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "failed_frac": failed / len(runs),
        "setup_s": setup,
        "runs": [{k: v for k, v in asdict(r).items() if k != "layers"} for r in runs],
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        cli_main = load_cli()
    except MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result, record = measure(cli_main, WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace), load_pins())
    record["env"] = environment()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
