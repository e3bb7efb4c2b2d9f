"""The four benchmark workloads: seeded inputs, replays, output checks.

Every workload is an open-loop arrival schedule on the virtual clock at a
stated share of modeled capacity.  The host replays the schedule offline
as fast as it can, so host metrics are work done per host second at a
fixed input size, while the modeled ("sim_") metrics repeat exactly for
a given seed.  The program under test receives only the generated
inputs: request ids or images, arrival times, class codes and fault
plans.

Each workload generates one trace (``n_requests``) from the seed.  One
whole replay gives the modeled metrics; for the host rate the same trace
is cut into consecutive segments, each replayed on a fresh engine, so
every timed sample is about half a host second long.

Each workload checks its own outputs instead of trusting the engine's
report: outcomes partition the requests sent, served predictions equal
an independent reference, and latency percentiles are recomputed from
the per-request columns.

Only the standard library is imported at module level, so that a
workload's ``setup`` can time its own imports.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from types import SimpleNamespace

#: The seed a gain claim is measured on, and the one kept back to
#: re-check it.  ``BENCHMARK.json`` has a fixed key set, so they live here.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7

#: Artifacts (trained models) come from the repository's own disk cache
#: at the fast experiment scale; the training seed is fixed, the
#: benchmark seed only drives the generated inputs.
MODEL_SEED = 0

SETUP_PHASES = ("import", "artifacts", "oracle_build", "plan_trace", "trace_gen")

#: Per-layer metrics read from a replay's reports and request logs.  A
#: workload reports 0 for a layer it does not drive.
MODELED_LAYER_METRICS = (
    "serving.batches", "serving.mean_batch", "serving.queue_wait_p50_ms",
    "serving.queue_wait_p99_ms", "serving.utilization",
    "cluster.batches", "cluster.mean_batch", "cluster.queue_wait_p99_ms",
    "cluster.cache_hit_share", "cluster.shed_share", "cluster.utilization",
    "cluster.interactive_p99_ms", "cluster.batch_p99_ms",
    "faults.retries", "faults.hedges", "faults.timeouts", "faults.batch_failures",
    "faults.breaker_trips", "faults.attempts_per_req",
    "offload.offload_share", "offload.local_hard_share", "offload.uplink_mb",
    "offload.radio_energy_share",
    "netsim.retx_amplification", "netsim.sessions", "netsim.renegotiations",
    "netsim.flap_drops",
)


class Phases:
    """Wall time per named set-up phase (seconds, accumulated)."""

    def __init__(self) -> None:
        self.seconds = {name: 0.0 for name in SETUP_PHASES}

    @contextmanager
    def __call__(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


def Trace(**fields) -> SimpleNamespace:
    """One generated input; ``n`` is its request count."""
    return SimpleNamespace(n=len(fields["arrival_s"]), **fields)


def segments(trace, count: int) -> list:
    """Cut ``trace`` into ``count`` consecutive traces.

    Per-request arrays are sliced; everything else (fault plans, seeds)
    is shared, so each segment replays its requests under the same
    storm at the same virtual times as the whole trace.
    """
    bounds = [trace.n * k // count for k in range(count + 1)]
    per_request = [
        name for name, value in vars(trace).items()
        if getattr(value, "shape", ())[:1] == (trace.n,)
    ]
    parts = []
    for start, stop in zip(bounds, bounds[1:]):
        fields = {name: value for name, value in vars(trace).items() if name != "n"}
        for name in per_request:
            fields[name] = fields[name][start:stop]
        parts.append(Trace(**fields))
    return parts


class Outcome:
    """What one replay produced, reduced to what metrics and checks need.

    ``columns`` are the modeled per-request columns (a digest of them
    shows a host-only change left the simulation untouched).
    """

    def __init__(self, n_sent: int, failures: list[str], n_failed: int,
                 modeled: dict, layer_modeled: dict, columns: list) -> None:
        self.n_sent = n_sent
        self.failures = failures
        self.n_failed = n_failed
        self.modeled = modeled
        unknown = set(layer_modeled) - set(MODELED_LAYER_METRICS)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
        self.layer_modeled = {
            name: float(layer_modeled.get(name, 0.0)) for name in MODELED_LAYER_METRICS
        }
        self.digest = _digest(columns)


def _digest(columns: list) -> str:
    h = hashlib.sha256()
    for col in columns:
        h.update(col.tobytes())
    return h.hexdigest()[:16]


def _ms(np, values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


class _Checks:
    """Collects failed checks; ``count`` adds per-request failures."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.n_failed = 0

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def count(self, n_bad: int, what: str) -> None:
        if n_bad:
            self.failures.append(f"{what}: {n_bad} requests")
            self.n_failed += int(n_bad)


def _check_percentiles(checks: _Checks, np, sojourn, report, tag: str) -> tuple[float, float]:
    """Recompute p50/p99 (ms) and require the engine report to agree."""
    p50, p99 = _ms(np, sojourn, 50), _ms(np, sojourn, 99)
    checks.expect(_same(p50, report.p50_s * 1e3), f"{tag} p50 differs from the engine report")
    checks.expect(_same(p99, report.p99_s * 1e3), f"{tag} p99 differs from the engine report")
    checks.expect(p99 > p50, f"{tag} is degenerate: p99 {p99} <= p50 {p50}")
    return p50, p99


class _ClusterBase:
    """Shared oracle-fleet plumbing of ``cluster_wide`` and ``cluster_storm``."""

    host_work = "interpreter"
    dataset = "mnist"
    max_batch_size = 8
    max_wait_s = 0.004

    def _load_fleet(self, phases: Phases, n_replicas: int) -> None:
        with phases("import"):
            import numpy as np

            from repro.cluster.engine import Cluster
            from repro.experiments.common import FAST, pipeline_for
            from repro.hw.devices import gci_cpu
            from repro.hw.energy import energy_joules
            from repro.serving.backends import CBNetBackend
            from repro.sim import oracle_backend
            from repro.sim.records import ROUTE_SHED
            from repro.utils.rng import as_generator, derive_seed
        self.np, self.Cluster, self.ROUTE_SHED = np, Cluster, ROUTE_SHED
        self.as_generator, self.derive_seed = as_generator, derive_seed
        self.energy_joules = energy_joules
        with phases("artifacts"):
            artifacts = pipeline_for(self.dataset, FAST, seed=MODEL_SEED)
        self.cbnet = artifacts.cbnet
        test = artifacts.datasets["test"]
        self.pool, self.pool_labels = test.images, test.labels
        self.device = gci_cpu()
        with phases("oracle_build"):
            base = CBNetBackend(artifacts.cbnet, self.device)
            self.backends = [oracle_backend(base, self.pool) for _ in range(n_replicas)]
        self.table = self.backends[0].table
        self.capacity_hz = sum(
            1.0 / b.mean_service_s(batch_size=self.max_batch_size) for b in self.backends
        )

    def _outcome(self, trace, cluster, report, log, checks: _Checks,
                 extra_layer: dict) -> Outcome:
        np = self.np
        n = len(log)
        served = log.done
        shed = log.route == self.ROUTE_SHED
        timed_out = (log.timed_out > 0) & ~served & ~shed
        unserved = ~served & ~shed & ~timed_out
        checks.count(int((served & shed).sum()), "shed requests that also completed")
        checks.expect(
            int(served.sum() + shed.sum() + timed_out.sum() + unserved.sum()) == n,
            "served + shed + timed-out + unserved != sent",
        )
        checks.expect(report.n_requests == n, "report request count != sent")
        checks.expect(report.n_served == int(served.sum()), "report served count differs")
        checks.expect(report.n_shed == int(shed.sum()), "report shed count differs")
        checks.expect(
            report.n_unserved == int(timed_out.sum() + unserved.sum()),
            "report unserved count differs",
        )
        ids = trace.ids
        checks.count(
            int((log.prediction[served] != self.table.easy_preds[ids[served]]).sum()),
            "served predictions differ from the InferenceTable",
        )
        sojourn = log.sojourn_s[served]
        p50, p99 = _check_percentiles(checks, np, sojourn, report, self.name)
        labels = self.pool_labels[ids]
        attained = served.copy()
        attained[served] = sojourn <= self.limit_s
        busy_s = sum(r.busy_s for r in cluster.replicas)
        modeled = {
            "sim_p50_ms": p50,
            "sim_p99_ms": p99,
            "slo_attainment": float(attained.sum()) / n,
            "served_share": float(served.sum()) / n,
            "accuracy": float((log.prediction[served] == labels[served]).mean()),
            "energy_mj_per_request": 1e3 * self.energy_joules(self.device, busy_s) / n,
        }
        queued = served & (log.batch_size > 0)
        wait = (log.dispatch_s - log.arrival_s)[queued]
        attempted = sum(r.n_requests for r in cluster.replicas)
        useful = int(queued.sum())
        layer = {
            "cluster.batches": float(sum(r.n_batches for r in cluster.replicas)),
            "cluster.mean_batch": report.mean_batch_size,
            "cluster.queue_wait_p99_ms": _ms(np, wait, 99),
            "cluster.cache_hit_share": report.cache_hit_rate,
            "cluster.shed_share": float(shed.sum()) / n,
            "cluster.utilization": report.utilization,
            "faults.retries": float(log.retries.sum()),
            "faults.hedges": float(log.hedged.sum()),
            "faults.timeouts": float(log.timed_out.sum()),
            "faults.batch_failures": float(report.n_batch_failures),
            "faults.breaker_trips": float(report.n_breaker_trips),
            "faults.attempts_per_req": attempted / useful if useful else 0.0,
        }
        layer.update(extra_layer)
        columns = [
            log.completion_s, log.dispatch_s, log.prediction, log.route,
            log.batch_size, log.replica_id, log.retries, log.timed_out,
        ]
        return Outcome(n, checks.failures, checks.n_failed, modeled, layer, columns)


class ClusterWide(_ClusterBase):
    """64 oracle replicas, power-of-two balancing, LRU cache, admission control.

    Stresses the per-arrival O(replicas) scans of the fleet event loop
    (``Replica.next_deadline_s`` / ``purge`` / ``outstanding``); a
    flash crowd past capacity makes both queueing and shedding occur.
    Bypasses model inference (table lookups), faults and the network.

    Predicts: ``cluster.scan_s`` and ``cluster.*_per_req`` move
    ``sim_requests_per_s`` here far more than on ``cluster_storm``;
    ``cluster.shed_share`` and ``cluster.queue_wait_p99_ms`` move
    ``served_share``, ``slo_attainment`` and ``sim_p99_ms``.
    """

    name = "cluster_wide"
    n_replicas = 64
    n_requests = 40_000
    limit_s = 0.008

    def setup(self, seed: int, phases: Phases) -> None:
        self._load_fleet(phases, self.n_replicas)
        with phases("import"):
            from repro.cluster.admission import AdmissionController
            from repro.serving.arrivals import flash_crowd_arrivals, zipf_popularity
        self.AdmissionController = AdmissionController
        self.flash_crowd_arrivals, self.zipf_popularity = flash_crowd_arrivals, zipf_popularity
        with phases("trace_gen"):
            self.trace = self._trace(seed)

    def _trace(self, seed: int):
        n = self.n_requests
        gen, derive = self.as_generator, self.derive_seed
        cap = self.capacity_hz
        base = 0.5 * cap
        span = n / base
        return Trace(
            ids=self.zipf_popularity(
                len(self.pool), n, exponent=0.9, rng=gen(derive(seed, "wide-ids"))
            ),
            arrival_s=self.flash_crowd_arrivals(
                base, 3.0 * cap, n,
                spike_start_s=0.4 * span, spike_duration_s=0.1 * span,
                rng=gen(derive(seed, "wide-arrivals")),
            ),
            rng_seed=derive(seed, "wide-balancer"),
        )

    def run(self, trace):
        cluster = self.Cluster(
            self.backends,
            policy="power-of-two",
            admission=self.AdmissionController(
                max_outstanding=4 * self.max_batch_size * self.n_replicas, policy="reject"
            ),
            slo_s=self.limit_s,
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            cache_capacity=32,
            rng=trace.rng_seed,
        )
        report, log = cluster.serve_log(
            trace.ids, trace.arrival_s, labels=self.pool_labels[trace.ids], scenario=self.name
        )
        return cluster, report, log

    def evaluate(self, trace, raw) -> Outcome:
        cluster, report, log = raw
        return self._outcome(trace, cluster, report, log, _Checks(), {})


class ClusterStorm(_ClusterBase):
    """4 oracle replicas under a seeded fault storm with full defences.

    Three request classes (0.5/0.3/0.2) under priority scheduling and
    weighted-fair admission; a storm of slowdowns, partitions, flaky
    windows and crash/recover; ``resilience_for_fleet`` timeouts,
    retries, hedging and breakers.  Work is heap events and breaker
    checks, the replica scans are cheap: the control for event-core
    changes.  Bypasses model inference, the result cache and the network.

    Predicts: ``faults.breaker_s`` and ``cluster.balancer_s`` move
    ``sim_requests_per_s``; ``faults.*`` counts move ``served_share`` and
    ``slo_attainment``; ``cluster.interactive_p99_ms`` /
    ``cluster.batch_p99_ms`` move ``sim_p99_ms``.
    """

    name = "cluster_storm"
    n_replicas = 4
    n_requests = 60_000
    limit_s = 0.030
    load = 0.9
    requests_per_episode = 1_000

    def setup(self, seed: int, phases: Phases) -> None:
        self._load_fleet(phases, self.n_replicas)
        with phases("import"):
            from repro.cluster.admission import WeightedFairAdmission
            from repro.cluster.failures import crash_window
            from repro.experiments.chaos import resilience_for_fleet
            from repro.faults import FaultPlan, flaky_window, partition_window, slowdown_window
            from repro.serving.arrivals import class_mix, poisson_arrivals, zipf_popularity
            from repro.serving.classes import default_classes
        self.WeightedFairAdmission = WeightedFairAdmission
        self.crash_window, self.FaultPlan = crash_window, FaultPlan
        self.windows = (slowdown_window, partition_window, flaky_window)
        self.class_mix, self.poisson_arrivals = class_mix, poisson_arrivals
        self.zipf_popularity = zipf_popularity
        self.classes = default_classes(slo_s=self.limit_s, max_wait_s=self.max_wait_s)
        self.resilience = resilience_for_fleet(
            self.backends, self.max_batch_size, self.max_wait_s
        )
        with phases("trace_gen"):
            self.trace = self._trace(seed)

    def _trace(self, seed: int):
        n = self.n_requests
        gen, derive = self.as_generator, self.derive_seed
        arrival_s = self.poisson_arrivals(
            self.load * self.capacity_hz, n, rng=gen(derive(seed, "storm-arrivals"))
        )
        # Staggered episodes, one replica at a time, cycling through the
        # fault kinds with seeded jitter on position, length and
        # magnitude.  Poisson window counts with exponential lengths
        # (``repro.faults.fault_storm``) let a few overlapping windows set
        # the modeled tail, which then moved by a quarter between seeds;
        # evenly spread episodes keep it a property of the storm.
        slowdown_window, partition_window, flaky_window = self.windows
        rng = gen(derive(seed, "storm-faults"))
        n_episodes = max(1, n // self.requests_per_episode)
        slot = float(arrival_s[-1]) / n_episodes
        faults, failures = [], []
        for k in range(n_episodes):
            replica = k % self.n_replicas
            at = (k + float(rng.uniform(0.1, 0.3))) * slot
            length = float(rng.uniform(0.5, 0.7)) * slot
            kind = k // self.n_replicas % 4
            if kind == 0:
                faults += slowdown_window(replica, at, length, float(rng.uniform(4.0, 8.0)))
            elif kind == 1:
                faults += partition_window(replica, at, length)
            elif kind == 2:
                faults += flaky_window(replica, at, length, float(rng.uniform(0.3, 0.6)))
            else:
                failures += self.crash_window(replica, at, length)
        return Trace(
            ids=self.zipf_popularity(
                len(self.pool), n, exponent=0.9, rng=gen(derive(seed, "storm-ids"))
            ),
            arrival_s=arrival_s,
            codes=self.class_mix(n, (0.5, 0.3, 0.2), rng=gen(derive(seed, "storm-classes"))),
            plan=self.FaultPlan(
                faults=tuple(faults), failures=tuple(failures),
                seed=int(rng.integers(2**31 - 1)),
            ),
            n_crashes=len(failures) // 2,
            rng_seed=derive(seed, "storm-balancer"),
        )

    def run(self, trace):
        cluster = self.Cluster(
            self.backends,
            policy="least-outstanding",
            admission=self.WeightedFairAdmission(
                self.classes, max_outstanding=6 * self.max_batch_size * self.n_replicas
            ),
            faults=trace.plan,
            resilience=self.resilience,
            slo_s=self.limit_s,
            max_batch_size=self.max_batch_size,
            max_wait_s=self.max_wait_s,
            classes=self.classes,
            scheduler="priority",
            rng=trace.rng_seed,
        )
        report, log = cluster.serve_log(
            trace.ids, trace.arrival_s, labels=self.pool_labels[trace.ids],
            scenario=self.name, request_classes=trace.codes,
        )
        return cluster, report, log

    def evaluate(self, trace, raw) -> Outcome:
        np = self.np
        cluster, report, log = raw
        checks = _Checks()
        budget = self.resilience.retry.max_retries + trace.n_crashes
        checks.count(int((log.retries > budget).sum()), "retries beyond the retry budget")
        checks.count(int((log.timed_out > log.retries + 1).sum()), "timeouts beyond attempts")
        served = log.done
        shed = log.route == self.ROUTE_SHED
        p99_by_class = {}
        for cls_report in report.class_reports:
            code = self.classes.code(cls_report.name)
            mine = log.req_class == code
            n_cls = int(mine.sum())
            checks.expect(cls_report.n_requests == n_cls, f"class {cls_report.name} sent count")
            checks.expect(
                cls_report.n_served == int((mine & served).sum()),
                f"class {cls_report.name} served count",
            )
            checks.expect(
                cls_report.n_shed == int((mine & shed).sum()), f"class {cls_report.name} shed count"
            )
            checks.expect(
                cls_report.n_served + cls_report.n_shed + cls_report.n_unserved == n_cls,
                f"class {cls_report.name}: served + shed + unserved != sent",
            )
            p99_by_class[cls_report.name] = _ms(np, log.sojourn_s[mine & served], 99)
        return self._outcome(trace, cluster, report, log, checks, {
            "cluster.interactive_p99_ms": p99_by_class["interactive"],
            "cluster.batch_p99_ms": p99_by_class["batch"],
        })


class EdgeLive:
    """One ``serving.Server`` with a live CBNet backend on a Raspberry Pi 4.

    The paper's own path: converting autoencoder then lightweight
    classifier, run through the compiled fastpath for every micro-batch.
    Poisson arrivals at 0.7 of modeled capacity, cache off, micro-batching
    on.  Kernel, plan and model changes show here; fleet, fault and
    network layers are bypassed.

    Predicts: ``fastpath.*`` and ``models.*`` move ``sim_requests_per_s``
    and ``images_per_s``; a larger ``serving.mean_batch`` raises
    ``sim_requests_per_s`` but also ``sim_p50_ms`` / ``sim_p99_ms``;
    ``serving.utilization`` moves ``energy_mj_per_request``.
    """

    name = "edge_live"
    host_work = "blas"
    dataset = "mnist"
    n_requests = 16_000
    # Below the 0.8 of the paper's serving runs: at 0.8 the modeled p99
    # of a 10-20k-request trace moved by 7-10% between seeds.
    load = 0.7
    max_batch_size = 16
    max_wait_s = 0.010
    limit_s = 0.030

    def setup(self, seed: int, phases: Phases) -> None:
        with phases("import"):
            import numpy as np

            from repro.experiments.common import FAST, pipeline_for
            from repro.hw.devices import raspberry_pi4
            from repro.hw.energy import energy_joules
            from repro.serving.arrivals import poisson_arrivals
            from repro.serving.backends import CBNetBackend
            from repro.serving.engine import Server
            from repro.utils.rng import as_generator, derive_seed
        self.np, self.Server, self.energy_joules = np, Server, energy_joules
        with phases("artifacts"):
            artifacts = pipeline_for(self.dataset, FAST, seed=MODEL_SEED)
        self.cbnet = artifacts.cbnet
        test = artifacts.datasets["test"]
        self.pool, self.pool_labels = test.images, test.labels
        self.device = raspberry_pi4()
        self.backend = CBNetBackend(self.cbnet, self.device)
        with phases("plan_trace"):
            self.backend.warmup(self.max_batch_size, sample_shape=self.pool.shape[1:])
        self.as_generator, self.derive_seed = as_generator, derive_seed
        self.poisson_arrivals = poisson_arrivals
        with phases("trace_gen"):
            self.trace = self._trace(seed)
        self.reference = None

    def _trace(self, seed: int):
        n = self.n_requests
        gen, derive = self.as_generator, self.derive_seed
        ids = gen(derive(seed, "edge-ids")).integers(0, len(self.pool), n)
        capacity = 1.0 / self.backend.mean_service_s(batch_size=self.max_batch_size)
        return Trace(
            ids=ids,
            images=self.pool[ids],
            arrival_s=self.poisson_arrivals(
                self.load * capacity, n, rng=gen(derive(seed, "edge-arrivals"))
            ),
        )

    def reference_predictions(self):
        """The unoptimised reference path over the pool (computed once)."""
        if self.reference is None:
            from repro.data.transforms import from_unit_sum, unflatten

            ae, cls = self.cbnet.autoencoder, self.cbnet.classifier
            flat = ae.convert(self.pool, fastpath=False)
            nchw = unflatten(flat, self.cbnet.image_shape)
            if ae.spec.output_activation == "softmax":
                nchw = from_unit_sum(nchw)
            self.reference = cls.predict(nchw, fastpath=False)
        return self.reference

    def run(self, trace):
        server = self.Server(
            self.backend, max_batch_size=self.max_batch_size, max_wait_s=self.max_wait_s
        )
        return server.serve_log(
            trace.images, trace.arrival_s, labels=self.pool_labels[trace.ids],
            scenario=self.name,
        )

    def evaluate(self, trace, raw) -> Outcome:
        np = self.np
        report, log = raw
        checks = _Checks()
        n = len(log)
        served = log.done
        checks.count(n - int(served.sum()), "requests never completed")
        checks.count(
            int((log.prediction != self.reference_predictions()[trace.ids]).sum()),
            "served predictions differ from the reference path",
        )
        # One worker: each batch has a distinct start; its span is its
        # modeled busy time.
        starts, first = np.unique(log.dispatch_s, return_index=True)
        sizes = np.bincount(np.searchsorted(starts, log.dispatch_s))
        checks.expect(int(sizes.sum()) == n, "batch sizes do not add up to sent")
        busy_s = float((log.completion_s[first] - starts).sum())
        checks.expect(
            _same(busy_s, report.utilization * report.duration_s),
            "modeled busy time differs from the report's utilization",
        )
        sojourn = log.sojourn_s
        p50, p99 = _check_percentiles(checks, np, sojourn, report, self.name)
        labels = self.pool_labels[trace.ids]
        wait = log.dispatch_s - log.arrival_s
        modeled = {
            "sim_p50_ms": p50,
            "sim_p99_ms": p99,
            "slo_attainment": float((sojourn <= self.limit_s).sum()) / n,
            "served_share": float(served.sum()) / n,
            "accuracy": float((log.prediction == labels).mean()),
            "energy_mj_per_request": 1e3 * self.energy_joules(self.device, busy_s) / n,
        }
        layer = {
            "serving.batches": float(len(starts)),
            "serving.mean_batch": report.mean_batch_size,
            "serving.queue_wait_p50_ms": _ms(np, wait, 50),
            "serving.queue_wait_p99_ms": _ms(np, wait, 99),
            "serving.utilization": report.utilization,
        }
        columns = [log.completion_s, log.dispatch_s, log.prediction, log.batch_size]
        return Outcome(n, checks.failures, checks.n_failed, modeled, layer, columns)


class _Completions:
    """Keeps the edge tier's per-request completion times.

    Passed as the tier's ``obs``: the report carries no per-request
    column, and attainment within the latency limit needs one.
    """

    def on_leg(self, *args) -> None:
        pass

    def finalize_arrays(self, arrival_s, completion_s) -> None:
        self.arrival_s, self.completion_s = arrival_s, completion_s.copy()


class OffloadStorm:
    """One oracle edge tier offloading hard samples over a storming LTE link.

    KMNIST BranchyLeNet gate on a Pi 4; hard samples ship stem
    activations through a ``SessionTransport`` on a shared LTE link
    hit by a seeded storm of outages, degradations and carrier flaps;
    a deadline-aware policy falls back to local trunks when the live
    link estimate blows the deadline; a GCI-CPU oracle ``Server`` is the
    cloud.  The only workload driving ``repro.offload`` and
    ``repro.netsim``; model inference is table lookups.

    Predicts: ``netsim.*_s``, ``offload.self_s`` and ``serving.self_s``
    move ``sim_requests_per_s``; ``offload.offload_share`` and
    ``offload.radio_energy_share`` move ``energy_mj_per_request``;
    ``netsim.sessions`` / ``netsim.flap_drops`` move ``sim_p99_ms`` and
    ``slo_attainment``.
    """

    name = "offload_storm"
    host_work = "interpreter"
    dataset = "kmnist"
    n_requests = 100_000
    deadline_s = 0.25
    limit_s = 0.200
    requests_per_storm_event = 800
    load = 0.5

    def setup(self, seed: int, phases: Phases) -> None:
        with phases("import"):
            import numpy as np

            from repro.experiments.common import FAST, pipeline_for
            from repro.hw.devices import gci_cpu, raspberry_pi4
            from repro.hw.latency import branchynet_expected_latency
            from repro.hw.network import lte
            from repro.netsim import (
                AIMDConfig, LinkFaultPlan, SessionTransport, SharedLink,
                degradation_window, flap_at, outage_window,
            )
            from repro.offload.engine import EdgeTier, cloud_server_for
            from repro.offload.policies import DeadlineAware, TensorCodec
            from repro.serving.arrivals import poisson_arrivals, zipf_popularity
            from repro.sim import offload_oracle
            from repro.utils.rng import as_generator, derive_seed
        self.np = np
        self.EdgeTier, self.cloud_server_for = EdgeTier, cloud_server_for
        self.SessionTransport, self.SharedLink, self.AIMDConfig = (
            SessionTransport, SharedLink, AIMDConfig,
        )
        self.DeadlineAware, self.TensorCodec = DeadlineAware, TensorCodec
        self.lte = lte
        with phases("artifacts"):
            artifacts = pipeline_for(self.dataset, FAST, seed=MODEL_SEED)
        self.branchy, self.cbnet = artifacts.branchynet, artifacts.cbnet
        test = artifacts.datasets["test"]
        self.pool, self.pool_labels = test.images, test.labels
        self.edge, self.cloud_device = raspberry_pi4(), gci_cpu()
        with phases("oracle_build"):
            self.oracle = offload_oracle(self.branchy, self.pool)
            policy = DeadlineAware(self.deadline_s)
            self.cloud_table = cloud_server_for(
                policy, self.branchy, self.cloud_device, oracle=self.oracle,
                codec=TensorCodec(),
            ).backend.table
        self.hard = ~(self.oracle.entropy < float(self.branchy.entropy_threshold))
        self.gate_lat = branchynet_expected_latency(self.branchy, self.edge, 1.0)
        self.as_generator, self.derive_seed = as_generator, derive_seed
        self.poisson_arrivals, self.zipf_popularity = poisson_arrivals, zipf_popularity
        self.LinkFaultPlan = LinkFaultPlan
        self.link_faults = (outage_window, degradation_window, flap_at)
        with phases("trace_gen"):
            self.trace = self._trace(seed)
        # Offloaded hard samples answer from the cloud table, local ones
        # from the trunk; where the two agree the served label of every
        # request is known in advance.
        self.expected = np.where(self.hard, self.oracle.trunk_preds, self.oracle.branch_preds)
        self.trunk_is_cloud = bool(
            (self.oracle.trunk_preds[self.hard] == self.cloud_table.easy_preds[self.hard]).all()
        )

    def _trace(self, seed: int):
        n = self.n_requests
        gen, derive = self.as_generator, self.derive_seed
        ids = self.zipf_popularity(
            len(self.pool), n, exponent=0.9, rng=gen(derive(seed, "offload-ids"))
        )
        # Half the edge's all-local capacity: the edge survives a dead
        # link, so storms lengthen the tail instead of melting it.
        lat = self.gate_lat
        local_s = lat.early_path + float(self.hard[ids].mean()) * (lat.full_path - lat.early_path)
        arrival_s = self.poisson_arrivals(
            self.load / local_s, n, rng=gen(derive(seed, "offload-arrivals"))
        )
        # Evenly spread storm events (outage, degradation, flap,
        # degradation, ...) with seeded jitter on position, length and
        # magnitude: Poisson event counts (``repro.netsim.link_storm``)
        # moved the modeled median by a fifth between seeds.
        outage_window, degradation_window, flap_at = self.link_faults
        rng = gen(derive(seed, "offload-storm"))
        n_events = max(1, n // self.requests_per_storm_event)
        slot = float(arrival_s[-1]) / n_events
        events = []
        for k in range(n_events):
            at = (k + float(rng.uniform(0.1, 0.3))) * slot
            kind = k % 4
            if kind == 0:
                events.append(outage_window(at, float(rng.uniform(0.1, 0.2)) * slot))
            elif kind == 2:
                events.append(flap_at(at))
            else:
                events.append(degradation_window(
                    at, float(rng.uniform(0.3, 0.5)) * slot,
                    bandwidth_scale=float(rng.uniform(0.08, 0.25)),
                    loss_add=float(rng.uniform(0.05, 0.2)),
                ))
        return Trace(
            ids=ids,
            arrival_s=arrival_s,
            storm=self.LinkFaultPlan(faults=tuple(events), seed=int(rng.integers(2**31 - 1))),
            link_seed=derive(seed, "offload-link"),
            tier_seed=derive(seed, "offload-tier"),
        )

    def build(self, trace):
        policy = self.DeadlineAware(self.deadline_s)
        cloud = self.cloud_server_for(
            policy, self.branchy, self.cloud_device, oracle=self.oracle,
            codec=self.TensorCodec(), max_batch_size=16, max_wait_s=0.004,
        )
        link = self.SharedLink.from_network_link(self.lte(), faults=trace.storm)
        transport = self.SessionTransport(
            link, rng=trace.link_seed, aimd=self.AIMDConfig(init_cwnd=10)
        )
        completions = _Completions()
        tier = self.EdgeTier(
            self.branchy, self.edge, None, cloud, policy,
            oracle=self.oracle, rng=trace.tier_seed, transport=transport, obs=completions,
        )
        cloud_runs = []
        serve_log = cloud.serve_log

        def keep(ids, *args, **kwargs):
            report, log = serve_log(ids, *args, **kwargs)
            cloud_runs.append((ids, report, log))
            return report, log

        cloud.serve_log = keep
        return tier, transport, completions, cloud_runs

    def run(self, trace):
        tier, transport, completions, cloud_runs = self.build(trace)
        report = tier.serve(
            trace.ids, trace.arrival_s, labels=self.pool_labels[trace.ids], scenario=self.name
        )
        return report, transport, completions, cloud_runs

    def evaluate(self, trace, raw) -> Outcome:
        np = self.np
        report, transport, completions, cloud_runs = raw
        labels = self.pool_labels[trace.ids]
        checks = _Checks()
        n = trace.n
        checks.expect(
            report.n_local_easy + report.n_local_hard + report.n_offloaded == n,
            "local + offloaded != sent",
        )
        done = np.isfinite(completions.completion_s)
        checks.count(n - int(done.sum()), "requests never completed")
        checks.expect(report.n_unserved == n - int(done.sum()), "report unserved count differs")
        checks.expect(
            transport.n_transfers == report.n_offloaded, "uplink transfers != offloaded requests"
        )
        checks.expect(len(cloud_runs) == 1, "cloud tier served more than once")
        shipped_ids, cloud_report, cloud_log = cloud_runs[0]
        checks.expect(len(cloud_log) == report.n_offloaded, "cloud requests != offloaded")
        checks.count(len(cloud_log) - int(cloud_log.done.sum()), "offloads the cloud never served")
        checks.count(
            int((cloud_log.prediction != self.cloud_table.easy_preds[shipped_ids]).sum()),
            "cloud predictions differ from the InferenceTable",
        )
        max_attempts = transport.max_attempts
        checks.expect(
            report.retry_amplification <= max_attempts,
            f"retransmit amplification {report.retry_amplification} > {max_attempts}",
        )
        if self.trunk_is_cloud:
            want = float((self.expected[trace.ids] == labels).mean())
            checks.expect(_same(report.accuracy, want), "served accuracy differs from the tables")
        sojourn = (completions.completion_s - completions.arrival_s)[done]
        p50, p99 = _check_percentiles(checks, np, sojourn, report, self.name)
        attained = done.copy()
        attained[done] = sojourn <= self.limit_s
        modeled = {
            "sim_p50_ms": p50,
            "sim_p99_ms": p99,
            "slo_attainment": float(attained.sum()) / n,
            "served_share": float(done.sum()) / n,
            "accuracy": report.accuracy,
            "energy_mj_per_request": report.energy_mj_per_request,
        }
        wait = (cloud_log.dispatch_s - cloud_log.arrival_s)[cloud_log.done]
        layer = {
            "serving.batches": float(sum(cloud_report.batch_histogram.values())),
            "serving.mean_batch": cloud_report.mean_batch_size,
            "serving.queue_wait_p50_ms": _ms(np, wait, 50),
            "serving.queue_wait_p99_ms": _ms(np, wait, 99),
            "serving.utilization": cloud_report.utilization,
            "offload.offload_share": report.offload_rate,
            "offload.local_hard_share": report.n_local_hard / n,
            "offload.uplink_mb": report.uplink_mb,
            "offload.radio_energy_share": report.radio_energy_j / report.total_energy_j,
            "netsim.retx_amplification": report.retry_amplification,
            "netsim.sessions": float(report.n_sessions),
            "netsim.renegotiations": float(report.n_renegotiations),
            "netsim.flap_drops": float(report.n_flap_drops),
        }
        columns = [completions.completion_s, cloud_log.completion_s, cloud_log.prediction]
        return Outcome(n, checks.failures, checks.n_failed, modeled, layer, columns)


WORKLOADS = {
    cls.name: cls for cls in (ClusterWide, ClusterStorm, EdgeLive, OffloadStorm)
}
