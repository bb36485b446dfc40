"""Metric names, units and how each is computed from one run.

``END_TO_END`` and ``PER_LAYER`` must list exactly the metrics named in
``BENCHMARK.json`` (``test_smoke.py`` checks that).  Every workload
prints every name.  Each per-layer row has one fixed source per
workload: the workload's own traffic, or, for the layers that traffic
never reaches (``PROBED_ROWS``), the layer probe (see README.md,
"Per-layer metrics").
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import spans as sp
from hostref import INTERVAL_S, REF_MS, HostRef
from workloads import CORR_KERNEL_CIRCUITS, PLAIN_KERNEL_CIRCUITS

END_TO_END = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = (
    [("circuits.resolve_ms", "ms"),
     ("probability.weights_ms", "ms"),
     ("compiled_pass.lower_plain_ms", "ms"),
     ("compiled_pass.lower_corr_ms", "ms")]
    + [(f"compiled_pass.kernel_plain_ms.{c}", "ms")
       for c in PLAIN_KERNEL_CIRCUITS]
    + [(f"compiled_pass.kernel_plain32_ms.{c}", "ms")
       for c in PLAIN_KERNEL_CIRCUITS]
    + [(f"compiled_pass.kernel_corr_ms.{c}", "ms")
       for c in CORR_KERNEL_CIRCUITS]
    + [(f"compiled_pass.plain_groups.{c}", "count")
       for c in PLAIN_KERNEL_CIRCUITS]
    + [(f"compiled_pass.plain_levels.{c}", "count")
       for c in PLAIN_KERNEL_CIRCUITS]
    + [(f"compiled_pass.corr_rows.{c}", "count")
       for c in CORR_KERNEL_CIRCUITS]
    + [("tensor_pass.kernel_ms", "ms"),
       ("tensor_pass.calls", "count"),
       ("engine.submit_ms", "ms"),
       ("engine.self_ms", "ms"),
       ("engine.payload_ms", "ms"),
       ("engine.kernel_calls_per_request", "count"),
       ("engine.envelope_kernel_ms", "ms"),
       ("serve.encode_ms", "ms"),
       ("serve.reply_bytes", "bytes"),
       ("serve.transport_ms", "ms"),
       ("serve.rejected", "count"),
       ("incremental.edit_ms", "ms"),
       ("incremental.reanalyze_ms", "ms"),
       ("trace.overhead_p50_ms", "ms"),
       ("trace.overhead_rps", "req/s")])

_PLAIN_PLAN = ("compiled_pass.lower_plain_ms", "compiled_pass.plain_groups.",
               "compiled_pass.plain_levels.")
_CORR = ("compiled_pass.lower_corr_ms", "compiled_pass.kernel_corr_ms.",
         "compiled_pass.corr_rows.")
_E1 = ("compiled_pass.kernel_plain_ms.",)
_E32 = ("compiled_pass.kernel_plain32_ms.",)
_INCREMENTAL = ("incremental.",)
#: Closed-loop traffic merges requests into a tensor pass too rarely for
#: a per-call figure, so every workload probes it.
_TENSOR = ("tensor_pass.kernel_ms",)

#: Per workload, the (prefixes of) per-layer rows its traffic does not
#: reach; these always come from the layer probe, every other row always
#: from the traffic.  ``catalog_plain`` sends E=1 plain points,
#: ``catalog_correlated`` only correlated ones, ``serve_sweep_edit`` E=32
#: plain sweeps and the only edits.
PROBED_ROWS: Dict[str, Tuple[str, ...]] = {
    "catalog_plain": _CORR + _E32 + _INCREMENTAL + _TENSOR,
    "catalog_correlated": _PLAIN_PLAN + _E1 + _E32 + _INCREMENTAL + _TENSOR,
    "serve_sweep_edit": _CORR + _E1 + _TENSOR,
}


def probed(workload: str, name: str) -> bool:
    return name.startswith(PROBED_ROWS[workload])


class Phase:
    """What one timed phase (or several, merged) recorded.

    Latencies are kept as measured and with their host scale (see
    ``hostref.py``): the phase is cut into segments by reference bursts
    (``calibrate``), and every request of a segment is scaled by
    ``REF_MS`` over the mean of the bursts that bound it.  The metrics
    read the scaled figures; the raw ones are printed beside them.
    """

    def __init__(self, seconds: float = 0.0, min_requests: int = 0) -> None:
        self.latency_s: List[float] = []
        #: Host scale of each request, parallel to ``latency_s``.
        self.scale: List[float] = []
        #: ``kind:circuit`` of each request, parallel to ``latency_s``.
        self.keys: List[str] = []
        self.failed = 0
        self.rejected = 0
        #: Seconds of traffic (reference bursts excluded), as measured
        #: and scaled.
        self.elapsed_s = 0.0
        self.scaled_s = 0.0
        #: Reference burst figures (ms), in order.
        self.ref_ms: List[float] = []
        #: The program's own envelope ``kernel_ms`` (cross-check only).
        self.envelope_kernel_ms: List[float] = []
        #: Client-observed latency by request id.
        self.rtt_s: Dict[str, float] = {}
        #: Encoded reply sizes.
        self.reply_bytes: List[int] = []
        self._min_requests = min_requests
        self._deadline = perf_counter() + seconds
        #: Start of the current segment, its first request's index, and
        #: the last completion in it.
        self._segment = (perf_counter(), 0)
        self._last = 0.0

    def completed(self, at_cycle_end: bool) -> bool:
        """Note that a request just completed; true when the phase is
        over: at a cycle end, with ``seconds`` and ``min_requests`` met."""
        self._last = now = perf_counter()
        return (at_cycle_end and now >= self._deadline
                and self.attempted >= self._min_requests)

    def due(self) -> bool:
        """True once the current segment has run ``INTERVAL_S``."""
        return perf_counter() - self._segment[0] >= INTERVAL_S

    def calibrate(self, host: HostRef) -> None:
        """Time one reference burst and close the current segment: its
        requests get their host scale, its traffic time is added.  A
        phase calls this before its first request, whenever ``due``
        between requests with none in flight, and after its last."""
        burst = host.burst()
        start, first = self._segment
        if first < self.attempted:
            scale = REF_MS / ((self.ref_ms[-1] + burst) / 2)
            self.scale += [scale] * (self.attempted - first)
            self.elapsed_s += self._last - start
            self.scaled_s += (self._last - start) * scale
        self.ref_ms.append(burst)
        self._segment = (perf_counter(), self.attempted)

    def merge(self, other: "Phase") -> None:
        """Add ``other``'s requests; phases that ran one after the other
        (not side by side) also add their elapsed time."""
        self.latency_s += other.latency_s
        self.scale += other.scale
        self.keys += other.keys
        self.failed += other.failed
        self.rejected += other.rejected
        self.ref_ms += other.ref_ms
        self.envelope_kernel_ms += other.envelope_kernel_ms
        self.reply_bytes += other.reply_bytes
        self.rtt_s.update(other.rtt_s)
        self.elapsed_s += other.elapsed_s
        self.scaled_s += other.scaled_s

    def to_json(self) -> Dict[str, Any]:
        """What ``run.py`` needs of a worker's phase."""
        return {"latency_s": self.latency_s, "scale": self.scale,
                "keys": self.keys, "failed": self.failed,
                "rejected": self.rejected, "elapsed_s": self.elapsed_s,
                "scaled_s": self.scaled_s, "ref_ms": self.ref_ms}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Phase":
        phase = cls()
        for name, value in data.items():
            setattr(phase, name, value)
        return phase

    @property
    def attempted(self) -> int:
        return len(self.latency_s)

    def _ms(self, scaled: bool) -> List[float]:
        if not scaled:
            return [s * 1e3 for s in self.latency_s]
        return [s * k * 1e3 for s, k in zip(self.latency_s, self.scale)]

    def latency_ms(self, scaled: bool = True) -> Dict[str, float]:
        ms = self._ms(scaled)
        p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
        return {"p50": statistics.median(ms), "p90": p90,
                "beyond_p90": sum(1 for v in ms if v > p90)}

    def bands(self) -> Dict[str, List[float]]:
        """Per ``kind:circuit``: share of requests and median scaled
        latency (ms), in latency order, to show which band p50 and p90
        fall in."""
        by_key: Dict[str, List[float]] = {}
        for key, ms in zip(self.keys, self._ms(True)):
            by_key.setdefault(key, []).append(ms)
        rows = {key: [len(v) / self.attempted, statistics.median(v)]
                for key, v in by_key.items()}
        return dict(sorted(rows.items(), key=lambda kv: kv[1][1]))

    def throughput_rps(self, scaled: bool = True) -> float:
        return self.attempted / (self.scaled_s if scaled
                                 else self.elapsed_s)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tag(tag: Any) -> str:
    """The request tag of a span (the first one, for a batch)."""
    if isinstance(tag, list):
        tag = tag[0] if tag else None
    return tag if isinstance(tag, str) else ""


def _ms(rows: Iterable[Dict[str, Any]]) -> List[float]:
    return [(r["end"] - r["start"]) * 1e3 for r in rows]


def _labels(label: Any) -> List[Any]:
    return label if isinstance(label, list) else [label]


def layer_metrics(workload: str, records: List[Dict[str, Any]],
                  plans: Dict[Any, Dict[str, int]],
                  traced: Phase, untraced: Phase
                  ) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Per-layer metrics from one traced run's spans, and each row's
    source (``"traffic"`` or ``"probe"``).

    Spans are split by request tag into setup (``s:``), timed (``t:``)
    and probe (``p:``, see ``probe.py``).  A row in ``PROBED_ROWS`` for
    this workload is computed from the probe's spans, any other row from
    the setup's or timed phase's: the statistic is the same either way.
    Lowering rows are the self time of the first lowering of each kernel
    circuit, summed; per-circuit kernel, tensor and incremental rows are
    medians per call; the remaining request-path rows are per timed
    request.  ``traced`` and ``untraced`` are the run's two timed
    phases; their difference is the tracing overhead.
    """
    setup = [r for r in records if _tag(r["tag"]).startswith("s:")]
    timed = [r for r in records if _tag(r["tag"]).startswith("t:")]
    probe = [r for r in records if _tag(r["tag"]).startswith("p:")]
    n = traced.attempted
    out: Dict[str, float] = {}
    sources = {name: "probe" if probed(workload, name) else "traffic"
               for name, _unit in PER_LAYER}

    def pick(name, traffic):
        return probe if sources[name] == "probe" else traffic

    def rows(subset, layer, label=None, points=None):
        return [r for r in subset if r["layer"] == layer
                and (label is None or r["label"] == label)
                and (points is None or r["points"] == points)]

    def outermost(subset):
        return [r for r in subset if r["layer"] in sp.ENGINE_LAYERS
                and (r["parent"] is None or records[r["parent"]]["layer"]
                     not in sp.ENGINE_LAYERS)]

    def lowering_ms(subset, layer, circuits):
        first: Dict[str, float] = {}
        for r in rows(subset, layer):
            if r["label"] in circuits:
                first.setdefault(r["label"], r["self_s"])
        return sum(first.values()) * 1e3

    out["circuits.resolve_ms"] = sum(
        r["self_s"] for r in rows(setup, sp.RESOLVE)) * 1e3
    out["probability.weights_ms"] = sum(
        r["self_s"] for r in rows(setup, sp.WEIGHTS)) * 1e3
    name = "compiled_pass.lower_plain_ms"
    out[name] = lowering_ms(pick(name, setup), sp.LOWER_PLAIN,
                            PLAIN_KERNEL_CIRCUITS)
    name = "compiled_pass.lower_corr_ms"
    out[name] = lowering_ms(pick(name, setup), sp.LOWER_CORR,
                            CORR_KERNEL_CIRCUITS)
    for c in PLAIN_KERNEL_CIRCUITS:
        for name, points in ((f"compiled_pass.kernel_plain_ms.{c}", 1),
                             (f"compiled_pass.kernel_plain32_ms.{c}", 32)):
            out[name] = _median(_ms(rows(pick(name, timed), sp.KERNEL_PLAIN,
                                         label=c, points=points)))
    for c in CORR_KERNEL_CIRCUITS:
        name = f"compiled_pass.kernel_corr_ms.{c}"
        out[name] = _median(_ms(rows(pick(name, timed), sp.KERNEL_CORR,
                                     label=c)))
    # Plan shapes are deterministic; the first plan built per circuit
    # name (traffic or probe) is the catalog circuit's.
    for c in PLAIN_KERNEL_CIRCUITS:
        counts = plans.get(("plain", c), {})
        out[f"compiled_pass.plain_groups.{c}"] = counts.get("groups", 0)
        out[f"compiled_pass.plain_levels.{c}"] = counts.get("levels", 0)
    for c in CORR_KERNEL_CIRCUITS:
        out[f"compiled_pass.corr_rows.{c}"] = plans.get(
            ("corr", c), {}).get("rows", 0)

    out["tensor_pass.kernel_ms"] = _median(_ms(rows(probe, sp.TENSOR)))
    out["tensor_pass.calls"] = len(rows(timed, sp.TENSOR))

    top = outermost(timed)
    out["engine.submit_ms"] = sum(_ms(top)) / n
    out["engine.self_ms"] = sum(r["self_s"] for r in timed
                                if r["layer"] in sp.ENGINE_LAYERS) * 1e3 / n
    out["engine.payload_ms"] = sum(
        r["self_s"] for r in rows(timed, sp.PAYLOAD)) * 1e3 / n
    out["engine.kernel_calls_per_request"] = sum(
        1 for r in timed if r["layer"] in sp.KERNEL_LAYERS) / n
    out["engine.envelope_kernel_ms"] = _mean(traced.envelope_kernel_ms)

    out["serve.encode_ms"] = sum(
        r["self_s"] for r in rows(timed, sp.ENCODE)) * 1e3 / n
    out["serve.reply_bytes"] = _mean(traced.reply_bytes)
    # Client-observed latency minus the engine-side call that answered
    # it: in process, payload build and call overhead; over TCP, queue
    # wait, encoding, both sockets and the client's read.
    engine_ms = {}
    for r in top:
        for rid in _labels(r["tag"]):
            engine_ms[rid] = (r["end"] - r["start"]) * 1e3
    out["serve.transport_ms"] = _mean(
        [s * 1e3 - engine_ms[rid] for rid, s in traced.rtt_s.items()
         if rid in engine_ms])
    out["serve.rejected"] = traced.rejected

    out["incremental.edit_ms"] = _median(_ms(rows(
        pick("incremental.edit_ms", timed), sp.EDIT)))
    out["incremental.reanalyze_ms"] = _median(_ms(
        r for r in outermost(pick("incremental.reanalyze_ms", timed))
        if "reanalyze" in _labels(r["label"])))

    out["trace.overhead_p50_ms"] = (traced.latency_ms()["p50"]
                                    - untraced.latency_ms()["p50"])
    out["trace.overhead_rps"] = (traced.throughput_rps()
                                 - untraced.throughput_rps())
    return out, sources
