"""One workload in one fresh process: set up, replay, check, report.

Run by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The whole trace is replayed once; its outputs give the modeled metrics
and are checked.  For the host rate the trace is cut into ``SEGMENTS``
consecutive segments, each replayed on a fresh engine (about half a
host second each), pass after pass for ``--seconds``.  A segment's host
time is the fastest of its calibrated replay times, and the rate is the
trace's requests over the sum of those.  The offline ``CBNet.predict``
rate is the median of its calibrated samples (their fastest moved more
between runs).

Calibrated: on the shared machine this benchmark was built on,
co-tenants slow the whole virtual CPU by up to 2x, in phases from a
fraction of a second to about a minute, so the median replay rate moved
by a fifth between runs, and even the fastest did when a slow phase
covered a whole run.  Each timed sample is therefore bracketed by a
fixed calibration loop that uses no repository code, and its time is
scaled by its reference time / (mean of the two loop times), which
cancels a slowdown that hits both.  Host rates read as rates at the
machine's reference speed.
"""

from __future__ import annotations

import argparse
import heapq
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Phases, segments

TRACE_DIR = Path(__file__).resolve().parent.parent / ".bench_build" / "traces"

SEGMENTS = 8
MIN_PASSES = 3
#: The offline ``CBNet.predict`` pass: whole passes over the pool are
#: timed in groups of this many.
PASSES_PER_SAMPLE = 8
OFFLINE_SAMPLES = 6


class Calibration:
    """Fixed loops, using no repository code, that bracket each timed sample.

    ``interpreter`` mixes dict, heap and small NumPy work like the
    engine replays; ``blas`` runs float32 matrix products shaped like
    the autoencoder, like live CBNet inference.  A slowdown does not hit
    the two kinds of work equally, so each rate is calibrated with the
    loop of its own kind (a workload names its kind in ``host_work``).
    """

    #: Fastest loop times on the machine this benchmark was built on
    #: (Intel Xeon vCPU at 2.0 GHz, Python 3.11, NumPy 2.4, one BLAS thread).
    REFERENCE_S = {"interpreter": 0.0190, "blas": 0.0174}

    def __init__(self, np) -> None:
        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.standard_normal((512, 784)).astype(np.float32)
        self.w1 = rng.standard_normal((784, 384)).astype(np.float32)
        self.w2 = rng.standard_normal((384, 784)).astype(np.float32)

    def interpreter(self) -> None:
        heap, counts = [], {}
        for i in range(30_000):
            key = (i * 7919) % 1009
            counts[key] = counts.get(key, 0) + 1
            heapq.heappush(heap, (key, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        values = self.np.arange(4096.0)
        for _ in range(200):
            values = self.np.sqrt(values * values + 1.0)

    def blas(self) -> None:
        for _ in range(3):
            self.np.maximum(self.x @ self.w1, 0.0) @ self.w2

    def timed(self, kind: str, work) -> tuple[float, object]:
        """Run ``work()``; return its time at reference speed, and its result."""
        loop = getattr(self, kind)
        t0 = time.perf_counter()
        loop()
        t1 = time.perf_counter()
        result = work()
        t2 = time.perf_counter()
        loop()
        t3 = time.perf_counter()
        return (t2 - t1) * self.REFERENCE_S[kind] / ((t1 - t0 + t3 - t2) / 2), result


def offline_images_per_s(workload, calibration: Calibration) -> tuple[float, int, list[str]]:
    """Images per host second of ``CBNet.predict`` over the workload's pool.

    Returns the median calibrated rate, its sample count, and failed
    checks: every pass must equal the reference path where the workload
    has one.
    """
    cbnet, pool = workload.cbnet, workload.pool
    expected = cbnet.predict(pool)  # untimed: traces the batch-512 plans

    def passes():
        return [cbnet.predict(pool) for _ in range(PASSES_PER_SAMPLE)]

    rates, failures = [], []
    for _ in range(OFFLINE_SAMPLES):
        seconds, predictions = calibration.timed("blas", passes)
        rates.append(PASSES_PER_SAMPLE * len(pool) / seconds)
        if any((preds != expected).any() for preds in predictions):
            failures.append("offline predictions changed between passes")
            break
    reference = getattr(workload, "reference_predictions", None)
    if reference is not None and (expected != reference()).any():
        failures.append("offline predictions differ from the reference path")
    return statistics.median(rates), len(rates), failures


def flops_per_row(cbnet) -> dict:
    """FLOPs per sample of each CBNet plan, keyed by its sample shape.

    Computed from ``repro.hw.flops`` layer shapes, not counted at run time.
    """
    from repro.hw.flops import model_cost

    ae, classifier = cbnet.autoencoder, cbnet.classifier
    return {
        (ae.spec.input_dim,): sum(s.flops for s in model_cost(ae, (ae.spec.input_dim,))),
        tuple(cbnet.image_shape): sum(
            s.flops for s in model_cost(classifier, tuple(cbnet.image_shape))
        ),
    }


def traced_replay(workload, seed: int):
    """One full replay under the outside-in wrappers; spans written afterwards."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        raw = workload.run(workload.trace)
        elapsed = time.perf_counter() - t0
    finally:
        tracer.restore()
    outcome = workload.evaluate(workload.trace, raw)
    metrics = tracing.layer_metrics(tracer, outcome.n_sent, flops_per_row(workload.cbnet))
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(TRACE_DIR / f"{workload.name}-seed{seed}.json")
    return elapsed, metrics, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    phases = Phases()
    workload.setup(args.seed, phases)
    result = {"setup_end": time.perf_counter(), "phases": phases.seconds}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    t0 = time.perf_counter()
    full = workload.evaluate(workload.trace, workload.run(workload.trace))
    result["full_replay_s"] = time.perf_counter() - t0
    failures = list(full.failures)
    metrics = {name: (value, full.n_sent) for name, value in full.modeled.items()}
    layer = dict(full.layer_modeled)
    attempted, failed = full.n_sent, full.n_failed
    if args.trace:
        traced_s, host_layers, traced = traced_replay(workload, args.seed)
        failures.extend(traced.failures)
        if traced.digest != full.digest:
            failures.append("the traced replay changed the modeled outputs")
        attempted, failed = attempted + traced.n_sent, failed + traced.n_failed
        layer.update(host_layers)
        layer["trace.replay_s"] = traced_s
        layer["trace.overhead_ratio"] = traced_s / result["full_replay_s"]
    else:
        calibration = Calibration(workload.np)
        parts = segments(workload.trace, SEGMENTS)
        workload.run(parts[0])  # warm-up, untimed
        host_s = [[] for _ in parts]
        digests = [set() for _ in parts]
        start, passes = time.perf_counter(), 0
        while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
            for part, times, seen in zip(parts, host_s, digests):
                seconds, raw = calibration.timed(
                    workload.host_work, lambda: workload.run(part)
                )
                times.append(seconds)
                outcome = workload.evaluate(part, raw)
                failures.extend(outcome.failures)
                seen.add(outcome.digest)
                attempted, failed = attempted + outcome.n_sent, failed + outcome.n_failed
            passes += 1
        if any(len(seen) != 1 for seen in digests):
            failures.append("replays of one segment disagree")
        images_per_s, image_samples, offline_failures = offline_images_per_s(workload, calibration)
        failures.extend(offline_failures)
        result["segment_s"] = host_s
        metrics["sim_requests_per_s"] = (
            full.n_sent / sum(min(times) for times in host_s),
            sum(len(times) for times in host_s),
        )
        metrics["images_per_s"] = (images_per_s, image_samples)
    result.update(
        workload=workload.name,
        n_sent=full.n_sent,
        attempted=attempted,
        failed=failed,
        failures=failures,
        digest=full.digest,
        metrics=metrics,
        layer=layer,
    )
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
