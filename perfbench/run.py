"""orthokit benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload finch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  --trace 0 times a batch of instances for --seconds seconds and
reports the end-to-end metrics.  --trace 1 runs a fixed number of rounds
(proportional to --seconds) once untraced and once traced, reports the
per-layer metrics and writes the spans to .perfbench-out/.  Every verdict
is checked against the frozen digests in perfbench/reference.json.  The
last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
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
from typing import Any, Iterable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Instance, Program, Workload, digest, run_instance  # noqa: E402

SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ips", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, no reference)."""


def load_program() -> Program:
    """Import orthokit from ./src afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "orthokit" or n.startswith("orthokit.")]:
        del sys.modules[name]
    ok = importlib.import_module("orthokit")
    if Path(ok.__file__).resolve().parent != (SRC / "orthokit").resolve():
        raise SetupError(f"orthokit was imported from {ok.__file__}, not from ./src")
    return Program(ok, importlib.import_module("orthokit.corpus"))


def load_reference(workload: str) -> dict[str, dict[str, Any]]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


@dataclass
class Batch:
    latencies: list[float] = field(default_factory=list)
    digests: list[tuple[str, str | None]] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_batch(
    prog: Program,
    pool: dict[str, Instance],
    reference: dict[str, dict[str, Any]],
    rounds: Iterable[list[str]],
    seconds: float | None = None,
    tracer: Tracer | None = None,
) -> Batch:
    """Closed loop: each instance starts when the previous one has been
    checked.  With `seconds`, stops after the round that crosses it."""
    clock = time.perf_counter
    out = Batch()
    start = clock()
    for picks in rounds:
        for key in picks:
            inst = pool[key]
            t0 = clock()
            try:
                if tracer is None:
                    result = run_instance(prog, inst)
                else:
                    result = tracer.root("instance", out.attempted, run_instance, prog, inst)
            except Exception as exc:  # any raise is a failed instance, not a crash
                out.latencies.append(clock() - t0)
                out.digests.append((key, None))
                out.failures.append((key, f"{type(exc).__name__}: {exc}"))
                continue
            out.latencies.append(clock() - t0)
            d = digest(result)
            out.digests.append((key, d))
            expected = reference.get(inst.ref, {}).get("digest")
            if d != expected:
                out.failures.append((key, f"digest {d} differs from reference {expected}"))
        if seconds is not None and clock() - start >= seconds:
            break
    out.wall = clock() - start
    return out


@dataclass
class Setup:
    prog: Program
    pool: dict[str, Instance]
    strata: list[list[str]]
    seconds: list[float]
    warmup: Batch


def set_up(wl: Workload, seed: int, reference: dict[str, dict[str, Any]]) -> Setup:
    """Import, input generation and a warm-up pass, repeated; the last
    repetition's program and inputs are the ones benchmarked.  Each
    repetition, and the batch after them, starts with the garbage of the
    previous repetition (a whole discarded module generation) collected."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        prog = load_program()
        pool = wl.pool(prog, seed)
        warm = run_batch(prog, pool, reference, [list(wl.warmup)])
        times.append(time.perf_counter() - t0)
    costs = {key: entry["cost_ms"] for key, entry in reference.items()}
    strata = wl.strata(pool, costs)
    gc.collect()
    return Setup(prog, pool, strata, times, warm)


def git_head() -> str:
    """The commit of the checkout, or "none" outside a git repository (git
    is kept from looking above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "orthokit").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "git": git_head(),
        "source": source_digest(),
    }


def percentile_ms(latencies: list[float], q: int) -> float:
    """The q-th percentile in milliseconds (statistics.quantiles, n=100)."""
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000


def end_to_end(setup: Setup, batch: Batch) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup.seconds),
        "throughput_ips": (batch.attempted - len(batch.failures)) / batch.wall,
        "verdict_p50_ms": statistics.median(batch.latencies) * 1000,
        "verdict_p90_ms": percentile_ms(batch.latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "orthokit" / "__init__.py").is_file():
        print(f"error: no orthokit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    try:
        reference = load_reference(wl.name)
        setup = set_up(wl, args.seed, reference)
    except (OSError, KeyError, ValueError, ImportError, SetupError) as exc:
        print(f"error: cannot set up {wl.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    env = environment()
    failures = list(setup.warmup.failures)
    attempted = setup.warmup.attempted
    rounds = wl.rounds(args.seed, setup.strata)
    lines = [
        f"workload {wl.name} seed {args.seed}: closed loop, 1 client, "
        f"{len(setup.strata)} instances per round",
        "env " + json.dumps(env, sort_keys=True),
    ]

    if args.trace == 0:
        batch = run_batch(setup.prog, setup.pool, reference, rounds, seconds=args.seconds)
        failures += batch.failures
        attempted += batch.attempted
        metrics = end_to_end(setup, batch)
        units = dict(END_TO_END)
        lines.append(
            f"samples {batch.attempted} in {batch.wall:.3f} s, "
            f"failed_ratio {len(batch.failures) / batch.attempted:.6g}"
        )
    else:
        n_rounds = max(1, wl.trace_rounds * args.seconds // 10)
        schedule = list(itertools.islice(rounds, n_rounds))
        base = run_batch(setup.prog, setup.pool, reference, schedule)
        tracer = Tracer()
        tracer.install()
        try:
            pool = tracer.root("setup.pool", -1, wl.pool, setup.prog, args.seed)
            traced = run_batch(setup.prog, pool, reference, schedule, tracer=tracer)
        finally:
            tracer.uninstall()
        failures += base.failures + traced.failures
        if pool != setup.pool:
            failures.append(("pool", "traced input generation differs from untraced"))
        if traced.digests != base.digests:
            failures.append(("digests", "traced verdicts differ from untraced"))
        attempted += base.attempted + traced.attempted
        overhead = traced.wall / base.wall
        metrics = tracer.layer_metrics(overhead)
        units = {name: unit for name, unit, _b, _v in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": args.seed, "rounds": n_rounds,
                       "env": env, "metrics": metrics, **tracer.dump()}, fh)
        lines.append(
            f"{n_rounds} rounds: {base.attempted} instances untraced in {base.wall:.3f} s "
            f"(failed_ratio {len(base.failures) / base.attempted:.6g}), traced in "
            f"{traced.wall:.3f} s (failed_ratio {len(traced.failures) / traced.attempted:.6g}); "
            f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}"
        )

    for name, value in metrics.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    for key, why in failures[:20]:
        lines.append(f"FAILED {key}: {why}")
    print("\n".join(lines))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
