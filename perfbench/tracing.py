"""Outside-in tracing: wrappers around the public calls into each layer.

The traced run installs these wrappers from the benchmark's own files;
no ``repro`` source changes and none of the program's own ``prof=`` /
``obs=`` hooks.  Coarse boundaries (``serve_log``, ``EdgeTier.serve``,
backend and oracle calls, transport sends, plan runs) record a span
each: name, start, end and parent span.  Very hot methods (the
per-replica scans run ~70 times per request on a 64-replica fleet) only
accumulate a call count and time, because a span per call would cost
more than the work it measures.

Both kinds keep self time: a call's wall time minus the time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict


class Tracer:
    """Installs span and counter wrappers; ``restore`` removes them all."""

    def __init__(self) -> None:
        # Each frame is [time spent in wrapped children, span id].
        self._stack = [[0.0, 0]]
        self._ids = itertools.count(1)
        self._patches: list[tuple[type, str, object]] = []
        #: (span id, parent id, name, start, end) — kept in memory.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        #: Free-form per-call tallies filled by ``note`` callbacks.
        self.tally: dict = defaultdict(int)

    def span(self, owner: type, attr: str, name: str, note=None) -> None:
        """Record one span per call of ``owner.attr``."""
        self._wrap(owner, attr, name, note, keep_span=True)

    def count(self, owner: type, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and accumulate their time."""
        self._wrap(owner, attr, name, None, keep_span=False)

    def _wrap(self, owner: type, attr: str, name: str, note, keep_span: bool) -> None:
        original = owner.__dict__[attr]
        is_property = isinstance(original, property)
        fn = original.fget if is_property else original
        stack, ids, spans = self._stack, self._ids, self.spans
        calls, self_s, total_s, tally = self.calls, self.self_s, self.total_s, self.tally
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if note is not None:
                note(tally, args)
            parent = stack[-1]
            frame = [0.0, next(ids) if keep_span else parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]
                parent[0] += dt
                if keep_span:
                    spans.append((frame[1], parent[1], name, t0, t1))

        wrapper.__wrapped__ = fn
        setattr(owner, attr, property(wrapper) if is_property else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def inclusive_under(self, name: str, parent_name: str) -> float:
        """Total duration of ``name`` spans whose parent is a ``parent_name`` span."""
        names = {span_id: span_name for span_id, _, span_name, _, _ in self.spans}
        return sum(
            end - start
            for _, parent, span_name, start, end in self.spans
            if span_name == name and names.get(parent) == parent_name
        )

    def write(self, path) -> None:
        """Write the spans as Chrome trace-event JSON (microseconds)."""
        names = {span_id: span_name for span_id, _, span_name, _, _ in self.spans}
        events = [
            {
                "name": name, "ph": "X", "pid": 0, "tid": 0,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent, "parent_name": names.get(parent)},
            }
            for span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[3])
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)


def _plan_rows(tally, args) -> None:
    batch = args[1]
    tally["fastpath.rows"] += batch.shape[0]
    tally[("fastpath.rows", tuple(batch.shape[1:]))] += batch.shape[0]


def _images(tally, args) -> None:
    tally["models.images"] += args[1].shape[0]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the metrics name."""
    from repro.cluster import admission, policies
    from repro.cluster.engine import Cluster
    from repro.cluster.replica import Replica
    from repro.faults.breaker import CircuitBreaker
    from repro.models.autoencoder import ConvertingAutoencoder
    from repro.models.lightweight import LightweightClassifier
    from repro.netsim.shared import SharedLink
    from repro.netsim.transport import SessionTransport
    from repro.nn.fastpath import plan
    from repro.offload import policies as offload_policies
    from repro.offload.engine import EdgeTier
    from repro.serving.batcher import MicroBatcher
    from repro.serving.engine import Server
    from repro.serving.priority import PriorityBatcher
    from repro.sim.oracle import OracleBackend

    tracer.span(Cluster, "serve_log", "cluster")
    tracer.span(Server, "serve_log", "serving")
    tracer.span(EdgeTier, "serve", "offload")
    tracer.span(OracleBackend, "route", "oracle")
    tracer.span(OracleBackend, "predict", "oracle")
    tracer.span(ConvertingAutoencoder, "convert", "models.ae", note=_images)
    tracer.span(LightweightClassifier, "predict", "models.classifier")
    tracer.span(plan.InferencePlan, "run", "fastpath.plan", note=_plan_rows)
    tracer.span(SessionTransport, "send", "netsim.send")
    tracer.span(SessionTransport, "send_down", "netsim.send_down")

    tracer.count(Replica, "next_deadline_s", "cluster.next_deadline")
    tracer.count(Replica, "purge", "cluster.purge")
    tracer.count(Replica, "outstanding", "cluster.outstanding")
    # serving.Server batches with the same MicroBatcher, so its calls
    # count here too.
    for batcher in (MicroBatcher, PriorityBatcher):
        tracer.count(batcher, "flush", "cluster.batcher")
        tracer.count(batcher, "deadline_s", "cluster.batcher")
    for cls in _subclasses_defining(policies.LoadBalancer, "choose"):
        tracer.count(cls, "choose", "cluster.balancer")
    for cls in _subclasses_defining(admission.AdmissionController, "decide_for"):
        tracer.count(cls, "decide_for", "cluster.admission")
    tracer.count(CircuitBreaker, "record", "faults.breaker")
    tracer.count(CircuitBreaker, "allow", "faults.breaker")
    for cls in _subclasses_defining(offload_policies.OffloadPolicy, "offload"):
        tracer.count(cls, "offload", "offload.policy")
    tracer.count(SessionTransport, "estimate_s", "netsim.estimate")
    tracer.count(SessionTransport, "estimate_down_s", "netsim.estimate")
    tracer.count(SharedLink, "reserve", "netsim.reserve")
    kinds = {plan.ConvStep: "conv", plan.LinearStep: "linear",
             plan.MaxPoolStep: "pool", plan.AvgPoolStep: "pool"}
    for cls in _subclasses_defining(plan.Step, "run"):
        tracer.count(cls, "run", f"fastpath.{kinds.get(cls, 'other')}")


def _subclasses_defining(base: type, attr: str) -> list[type]:
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if attr in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def layer_metrics(tracer: Tracer, n_requests: int, flops_per_row: dict) -> dict:
    """Host-side per-layer metrics of one traced replay."""
    calls, self_s, total_s, tally = tracer.calls, tracer.self_s, tracer.total_s, tracer.tally
    plan_runs = calls["fastpath.plan"]
    busy = total_s["fastpath.plan"]
    images = tally["models.images"]
    flops = sum(tally[("fastpath.rows", shape)] * f for shape, f in flops_per_row.items())
    ae, classifier = total_s["models.ae"], total_s["models.classifier"]

    def per_req(name: str) -> float:
        return calls[name] / n_requests

    return {
        "fastpath.plan_runs": float(plan_runs),
        "fastpath.rows_per_run": tally["fastpath.rows"] / plan_runs if plan_runs else 0.0,
        "fastpath.busy_s": busy,
        "fastpath.us_per_image": 1e6 * busy / images if images else 0.0,
        "fastpath.conv_s": self_s["fastpath.conv"],
        "fastpath.linear_s": self_s["fastpath.linear"],
        "fastpath.pool_s": self_s["fastpath.pool"],
        "fastpath.other_s": self_s["fastpath.other"],
        "fastpath.gflop_per_s": flops / busy / 1e9 if busy else 0.0,
        "models.ae_convert_s": ae,
        "models.classifier_s": classifier,
        "models.ae_share": ae / (ae + classifier) if ae + classifier else 0.0,
        "oracle.lookups": float(calls["oracle"]),
        "oracle.lookup_s": self_s["oracle"],
        "serving.self_s": self_s["serving"],
        "cluster.self_s": self_s["cluster"],
        "cluster.deadline_scans_per_req": per_req("cluster.next_deadline"),
        "cluster.purges_per_req": per_req("cluster.purge"),
        "cluster.outstanding_calls_per_req": per_req("cluster.outstanding"),
        "cluster.scan_s": (
            self_s["cluster.next_deadline"] + self_s["cluster.purge"]
            + self_s["cluster.outstanding"]
        ),
        "cluster.balancer_s": self_s["cluster.balancer"],
        "cluster.batcher_s": self_s["cluster.batcher"],
        "cluster.admission_s": self_s["cluster.admission"],
        "faults.breaker_s": self_s["faults.breaker"],
        "offload.self_s": self_s["offload"],
        "offload.policy_s": self_s["offload.policy"],
        "offload.cloud_s": tracer.inclusive_under("serving", "offload"),
        "netsim.sends": float(calls["netsim.send"]),
        "netsim.send_s": self_s["netsim.send"],
        "netsim.send_down_s": self_s["netsim.send_down"],
        "netsim.estimates": float(calls["netsim.estimate"]),
        "netsim.estimate_s": self_s["netsim.estimate"],
        "netsim.reserve_s": self_s["netsim.reserve"],
    }
