"""Repository benchmark: seeded workloads, one fresh process each, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the repository root.  For one workload it

1. on the first run of a workload in a checkout, runs one untimed
   set-up in a fresh process, which trains and caches the models (under
   ``.bench_build/``) and writes the bytecode cache;
2. times ``SETUP_PROBES`` further fresh-process set-ups, from process
   start to the first replay, and reports their median as ``setup_s``;
3. runs the workload process (``worker.py``): replays the trace once
   whole and then segment by segment for ``--seconds``, checks every
   output, and reports the end-to-end metrics, or with ``--trace 1``
   the per-layer metrics of one extra traced replay of the whole trace.

Metric names and units come from ``BENCHMARK.json``.  A human-readable
table (with sample counts) goes first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, HELD_OUT_SEED, SETUP_PHASES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 3
#: The first set-up in a fresh checkout trains the models.
FIRST_SETUP_TIMEOUT_S = 840
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CACHE_DIR=str(BUILD / "repro-cache"),
        PYTHONHASHSEED="0",
        # One process, no extra threads: BLAS stays single-threaded.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args: list[str], timeout_s: float) -> tuple[dict, float]:
    """Run ``worker.py`` to completion; return its JSON and its start time."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {args} timed out after {timeout_s} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(
            f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes plus one workload process; returns values keyed by metric."""
    base = ["--workload", workload, "--seed", str(seed)]
    ready = BUILD / f"ready-{workload}"
    if not ready.exists():
        run_worker([*base, "--setup-only"], FIRST_SETUP_TIMEOUT_S)
        ready.touch()
    setups, phases = [], {name: [] for name in SETUP_PHASES}
    for _ in range(SETUP_PROBES):
        probe, started = run_worker([*base, "--setup-only"], PROBE_TIMEOUT_S)
        setups.append(probe["setup_end"] - started)
        for name in SETUP_PHASES:
            phases[name].append(probe["phases"][name])
    result, _ = run_worker(
        [*base, "--seconds", str(seconds), "--trace", str(int(trace))],
        WORKER_TIMEOUT_S,
    )
    values = {name: tuple(v) for name, v in result["metrics"].items()}
    values["setup_s"] = (statistics.median(setups), len(setups))
    values["peak_rss_mb"] = (result["peak_rss_mb"], 1)
    layer = {name: (v, 1) for name, v in result["layer"].items()}
    for name, samples in phases.items():
        layer[f"setup.{name}_s"] = (statistics.median(samples), len(samples))
    return {"worker": result, "end_to_end": values, "per_layer": layer}


def report(workload: str, seed: int, measured: dict, spec: dict, trace: bool) -> dict:
    """Print the human-readable block; return the workload's result record."""
    worker = measured["worker"]
    kind = "per_layer" if trace else "end_to_end"
    values = measured[kind]
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"{workload}: no value measured for {missing}")
    print(f"== {workload} (seed {seed}) — {WORKLOADS[workload].__doc__.splitlines()[0]}")
    print(
        f"   full trace: {worker['n_sent']} requests, replayed in "
        f"{worker['full_replay_s']:.2f} s, modeled digest {worker['digest']}"
    )
    if "segment_s" in worker:
        best = [min(times) for times in worker["segment_s"]]
        print(
            f"   {len(best)} segments x {len(worker['segment_s'][0])} passes; "
            f"fastest calibrated segment replays {min(best):.3f}..{max(best):.3f} s, "
            f"sum {sum(best):.3f} s"
        )
    for m in spec[kind]:
        value, n = values[m["name"]]
        print(f"   {m['name']:<34} {value:>14.6g} {m['unit']:<8} (n={n})")
    for failure in worker["failures"]:
        print(f"   CHECK FAILED: {failure}")
    return {
        "correct": not worker["failures"] and worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in spec[kind]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
             "to re-check a claimed gain)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so subprocess.run kills
    # and reaps the worker it is waiting on before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = {
            name: report(
                name, args.seed, measure(name, args.seed, args.seconds, bool(args.trace)),
                spec, bool(args.trace),
            )
            for name in names
        }
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:
        (result,) = records.values()
    else:
        result = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in records.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
