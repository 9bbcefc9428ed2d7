"""Benchmark for the ninepoint CLI: one closed-loop client in one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one in-process call ``ninepoint.cli.main(argv)`` with
stdout captured, and every answer is checked (see ``checks.py``).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
measures the same stream untraced and then traced (``tracer.py``) and
prints per-layer call counts and self times.  The last stdout line is one
JSON object; a fuller record with metadata and input properties goes to
``perfbench/out/``.  ``ninepoint`` is imported from this checkout's
``src/`` and nowhere else.  Self-test: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Dict, List, Optional, Tuple

from checks import check_output
from speed import REF_NOMINAL_S, SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, Workload, input_properties, sides_of

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WARMUP_SECONDS = 1.0
SETUP_REPEATS = 15
# Fallback ladder when a run is too short for its workload's target.
TAIL_LADDER = (95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
MAX_PROBLEMS_SHOWN = 5

# Functions that run on every workload; only their self times are
# per-layer metrics, because a never-called function's time is a constant 0.
SELF_TIME_METRICS = (
    "numeric.sqrt_exact",
    "triangle.metrics",
    "triangle.canonical_vertices",
    "triangle.barycentric_distance_sq",
    "centers.vertex_to_ninepoint_dist_sq",
    "centers.center_set",
    "feuerbach.classify_tangency_sq",
    "feuerbach.feuerbach_report",
    "cli.main",
)

# The child prints how long importing ninepoint.cli and building its
# parser took, measured inside that fresh interpreter.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import ninepoint.cli\n"
    "ninepoint.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def import_program() -> ModuleType:
    """Import ``ninepoint.cli`` from this checkout's ``src/`` tree."""
    if not (SRC / "ninepoint" / "__init__.py").is_file():
        raise BenchError(f"no ninepoint package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import ninepoint
        import ninepoint.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import ninepoint.cli: {exc}") from exc
    if not Path(ninepoint.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported {ninepoint.__file__}, not the package under {SRC}")
    return cli


def measure_setup() -> Tuple[float, float]:
    """Median import-plus-parser time over fresh interpreters, in seconds:
    (scaled to the reference speed, raw)."""
    probe = SpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        probe.probe()
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if child.returncode != 0:
            raise BenchError(f"setup probe failed: {child.stderr.strip()}")
        times.append(float(child.stdout))
    probe.probe()
    raw = statistics.median(times)
    return raw * REF_NOMINAL_S / probe.median(), raw


@dataclass
class Loop:
    """Outcome of one closed-loop pass over a request stream."""

    latencies: List[float] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    # Per-operation scale to the reference speed (see speed.py).
    factors: List[float] = field(default_factory=list)
    ref_median_s: float = 0.0
    triangles: List[int] = field(default_factory=list)
    argvs: List[List[str]] = field(default_factory=list)
    failed: int = 0
    verified_triangles: int = 0
    max_residual: float = 0.0
    problems: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def scaled(self) -> List[float]:
        return [lat * factor for lat, factor in zip(self.latencies, self.factors)]


def call(cli: ModuleType, argv: List[str]) -> Tuple[Optional[int], str, float, float]:
    """Run one request: (exit code or None when main raised, stdout,
    start, elapsed)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = None
            out.write(repr(exc))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), start, elapsed


def run_loop(
    cli: ModuleType,
    workload: Workload,
    seed: int,
    seconds: float,
    warmup: bool = False,
    tracer: Optional[Tracer] = None,
) -> Loop:
    loop = Loop()
    stream = workload.requests(seed, warmup=warmup)
    probe = SpeedProbe()
    probe.probe()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        argv, triangles = next(stream)
        if tracer is not None:
            tracer.request = loop.attempted
        code, stdout, start, elapsed = call(cli, argv)
        probe.maybe_probe()
        problems, residual = check_output(argv, code, stdout)
        loop.latencies.append(elapsed)
        loop.starts.append(start)
        loop.triangles.append(triangles)
        loop.argvs.append(argv)
        loop.max_residual = max(loop.max_residual, residual)
        if problems:
            loop.failed += 1
            if len(loop.problems) < MAX_PROBLEMS_SHOWN:
                loop.problems.append(f"{' '.join(argv)[:120]}: {'; '.join(problems)[:300]}")
        else:
            loop.verified_triangles += triangles
    probe.probe()
    loop.factors = [probe.factor_at(start) for start in loop.starts]
    loop.ref_median_s = probe.median()
    return loop


def tail(latencies: List[float], target: float) -> Tuple[float, float]:
    """(percentile, value): the target percentile, or the highest ladder
    step below it that still has MIN_BEYOND_TAIL samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (target,) + tuple(p for p in TAIL_LADDER if p < target):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND_TAIL:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def program_triangles(loop: Loop) -> List[Tuple]:
    """Side lengths of every triangle a loop sent, for input properties;
    fuzz triangles are regenerated with the program's own generator."""
    from ninepoint.harness import FuzzProfile, random_triangle

    triangles = []
    for argv in loop.argvs:
        if "--sides" in argv:
            triangles.append(sides_of(argv))
            continue
        profile = FuzzProfile(
            kind=argv[argv.index("--profile") + 1],
            count=int(argv[argv.index("--count") + 1]),
            seed=int(argv[argv.index("--seed") + 1]),
        )
        for index in range(profile.count):
            sides, _ = random_triangle(profile, index)
            triangles.append(sides.as_tuple())
    return triangles


def timings(workload: Workload, loop: Loop, latencies: List[float]) -> Dict:
    pct, tail_s = tail(latencies, workload.tail_percentile)
    return {
        "tri_per_s": (loop.verified_triangles / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "tail_percentile": (pct, "%"),
    }


def per_layer(plain: Loop, traced: Loop, tracer: Tracer) -> Dict:
    triangles = sum(traced.triangles)
    metrics: Dict[str, Tuple[float, str]] = {}
    summary = tracer.summary(traced.factors)
    for name, entry in summary.items():
        metrics[f"{name}.calls_per_tri"] = (entry["calls"] / triangles, "calls/tri")
        metrics[f"{name}.self_us_per_tri"] = (entry["self_ns"] / 1e3 / triangles, "us/tri")
    roots = summary["numeric.sqrt_exact"]
    metrics["numeric.sqrt_exact.hit_ratio"] = (
        roots["hits"] / roots["calls"] if roots["calls"] else 0.0, "ratio"
    )
    # Compare on the requests both passes ran: the traced pass is a prefix.
    n = traced.attempted
    untraced_rate = sum(plain.triangles[:n]) / sum(plain.scaled[:n])
    traced_rate = triangles / sum(traced.scaled)
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    return metrics


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload: Workload, args: argparse.Namespace) -> Dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "target_tail_percentile": workload.tail_percentile,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process, in-process calls",
        "warmup_seconds": WARMUP_SECONDS,
        "setup_repeats": SETUP_REPEATS,
    }


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    # One CPU for operations, reference probes and setup children, so the
    # probes see the speed the measured code saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        cli = import_program()
        setup = None if args.trace else measure_setup()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run_loop(cli, workload, args.seed, WARMUP_SECONDS, warmup=True)
    plain = run_loop(cli, workload, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loops = [plain]
    record: Dict = {"meta": metadata(workload, args)}
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        with Tracer() as tracer:
            traced = run_loop(cli, workload, args.seed, args.seconds, tracer=tracer)
        loops.append(traced)
        metrics = per_layer(plain, traced, tracer)
        reported = [name for name in metrics if not name.endswith(".self_us_per_tri")]
        reported += [f"{name}.self_us_per_tri" for name in SELF_TIME_METRICS]
        record["absent_functions"] = tracer.absent
        tracer.write(str(OUT_DIR / f"spans-{workload.name}.tsv"))
    else:
        setup_s, setup_raw_s = setup
        metrics = timings(workload, plain, plain.scaled)
        tail_percentile = metrics.pop("tail_percentile")[0]
        metrics.update({
            "fail_ratio": (plain.failed / plain.attempted, "ratio"),
            "max_norm_residual": (plain.max_residual, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "setup_s": (setup_s, "s"),
        })
        # Both can be exactly 0, so they are printed but are not
        # BENCHMARK.json metrics; failed operations show in "failed".
        reported = [name for name in metrics if name not in ("fail_ratio", "max_norm_residual")]
        raw = timings(workload, plain, plain.latencies)
        raw["setup_s"] = (setup_raw_s, "s")
        record["raw_wall_clock"] = {name: {"value": v, "unit": u} for name, (v, u) in raw.items()}
        record["tail"] = {"percentile": tail_percentile, "samples": plain.attempted}
    record["reference_median_ms"] = [loop.ref_median_s * 1e3 for loop in loops]
    record["inputs"] = input_properties(program_triangles(plain))

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["problems"] = [p for loop in loops for p in loop.problems]
    result_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name} seed {args.seed}: {attempted} operations, {failed} failed")
    print("wait time: none to report (closed loop, one client, no queue)")
    print(
        f"times are scaled to the reference speed ({REF_NOMINAL_S * 1e3:g} ms per reference "
        f"kernel; this run measured {record['reference_median_ms'][0]:.4g} ms)"
    )
    if "tail" in record:
        print(f"tail percentile p{record['tail']['percentile']:g} of {plain.attempted} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    print(f"record: {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
