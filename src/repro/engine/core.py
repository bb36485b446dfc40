"""The persistent analysis engine: sessions, scheduling, fallback.

:class:`AnalysisEngine` owns an LRU registry of
:class:`~repro.engine.session.CircuitSession` objects so that the Nth
query on a circuit pays only kernel time — weights, compiled plans and
closed-form models all stay hot in memory, with the ``weight_cache`` disk
tier as backing store across processes.

On top of the registry sits a small request scheduler:

* :meth:`AnalysisEngine.submit` executes one declarative
  :class:`~repro.engine.requests.AnalysisRequest` and returns an
  :class:`~repro.engine.requests.AnalysisResponse` envelope;
* :meth:`AnalysisEngine.submit_many` **coalesces** single-pass
  analyze/sweep requests that target the same session into one batched
  ``sweep`` kernel call (one vectorized pass answers them all), merges
  plain-mode requests for **different** sessions into one cross-circuit
  :class:`~repro.reliability.tensor_pass.TensorBatch` pass, and fans
  the rest out over a pool of sticky worker processes;
* per-request ``timeout_s`` deadlines are enforced cooperatively along
  the fallback ladder **compiled → scalar → closed-form**: a request
  whose deadline has passed before the pass starts is answered by the
  session's closed-form model instead, and every downgrade is recorded in
  the envelope's ``fallbacks`` list.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import zlib
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..circuit import Circuit, SequentialCircuit
from ..incremental import parse_edit
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..obs import trace as obs_trace
from ..obs.propagate import TelemetryPayload, capture as capture_telemetry
from ..reliability.compiled_pass import CompiledSinglePass
from ..reliability.tensor_pass import TensorBatch
from ..sim.montecarlo import monte_carlo_reliability
from ..spec import EpsilonSpec
from .requests import (
    AnalysisRequest,
    AnalysisResponse,
    analyze_payload,
    curve_payload,
    result_payload,
)
from .session import (
    CircuitRef,
    CircuitSession,
    SessionConfig,
    resolve_analysis_circuit,
    resolve_circuit,
)
from .stats import EngineStats

#: Analyzer kwargs that cannot key a shared session (unhashable or
#: identity-bearing); their presence makes the session transient.
#: ``weights`` is transient only when it carries a WeightData object —
#: a *string* ``weights`` is the CLI's alias for ``weight_method``.
_TRANSIENT_OPTIONS = ("weights", "input_errors")

#: Cache-probe answer for requests that never reached the probe.
_UNKNOWN_CACHE = {"session": "unknown", "weights": "unknown",
                  "plan": "unknown"}

#: Memoized cross-circuit tensor batches kept per engine (LRU).  Each
#: entry holds merged coefficient tensors for one batch composition, so
#: a serve loop replaying the same mixed workload pays the merge once.
_TENSOR_BATCH_CACHE_CAP = 16


def _split_options(options: Dict[str, Any]
                   ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Partition request options into (config options, transient extras)."""
    config_opts: Dict[str, Any] = {}
    extra: Dict[str, Any] = {}
    for key, value in options.items():
        if key in _TRANSIENT_OPTIONS and not (
                key == "weights" and isinstance(value, str)):
            extra[key] = value
        else:
            config_opts[key] = value
    return config_opts, extra


def _check_outputs_method(session: "CircuitSession", method: str) -> None:
    """Reject outputs=-restricted sessions on whole-circuit methods.

    Only the single-pass path knows how to lower just the union cone;
    closed-form / mc / consolidated / exact model the entire circuit and
    would silently answer for all outputs.
    """
    if session.config.outputs and method != "single-pass":
        raise ValueError(
            f"method {method!r} does not support an outputs= restriction; "
            f"use method='single-pass'")


class AnalysisEngine:
    """A long-lived, multi-circuit reliability analysis service.

    Parameters
    ----------
    max_sessions:
        LRU capacity of the session registry; pinned sessions don't
        count against evictions.
    weights_cache_dir:
        Default disk tier for every session (overridable per request via
        ``options={"weights_cache_dir": ...}``).
    jobs:
        Default process fan-out for :meth:`submit_many` (0/1 = inline).
    default_timeout_s:
        Deadline applied to requests that don't carry their own.
    """

    def __init__(self, max_sessions: int = 8,
                 weights_cache_dir: Optional[str] = None,
                 jobs: int = 0,
                 default_timeout_s: Optional[float] = None,
                 state_dir: Optional[str] = None):
        self.max_sessions = max_sessions
        self.weights_cache_dir = weights_cache_dir
        self.jobs = jobs
        self.default_timeout_s = default_timeout_s
        #: Default directory for :meth:`save_state` / :meth:`load_state`
        #: snapshots (the serve tier's ``--state-dir``).
        self.state_dir = state_dir
        #: The async serve front-end's admission controller, when one is
        #: attached; surfaces through :meth:`stats` for ``repro top``.
        self._admission = None
        self._sessions: "OrderedDict[Tuple, CircuitSession]" = OrderedDict()
        #: Named mutable sessions (``edit``/``reanalyze`` targets).  They
        #: hold incremental workspaces, so they are keyed by client-chosen
        #: name, never shared structurally, and exempt from LRU eviction.
        self._edit_sessions: Dict[str, CircuitSession] = {}
        self._pinned: set = set()
        self.session_hits = 0
        self.session_misses = 0
        self.requests_served = 0
        self._lanes: List[ProcessPoolExecutor] = []
        #: Wall-clock birth time (labels long-running serve processes).
        self.started_at = time.time()
        #: Rolling latency/cache/lane aggregation (always on; cheap).
        self.engine_stats = EngineStats()
        #: Worker-lane index this engine runs in (None in the parent).
        self.lane_index: Optional[int] = None
        self._request_seq = itertools.count(1)
        #: Merged cross-circuit tensor batches, keyed by plan identity and
        #: version (the batch holds its plans, so ids stay valid while
        #: cached).
        self._tensor_batches: "OrderedDict[tuple, TensorBatch]" \
            = OrderedDict()
        #: Per-thread scratch the ladder uses to report kernel time to
        #: the telemetry assembly without widening return signatures.
        self._scratch = threading.local()

    # -- session registry ----------------------------------------------
    def _session_key(self, ref: CircuitRef,
                     config: SessionConfig) -> Tuple:
        if isinstance(ref, SequentialCircuit):
            # Structure + flop wiring; config carries ``frames``, so the
            # same netlist at different unroll depths keys separately.
            return (ref.structural_signature(), config)
        if isinstance(ref, Circuit):
            # Structure-keyed: two equal netlists share a session even if
            # the caller rebuilt the object.
            from ..probability.weight_cache import structural_hash
            return (structural_hash(ref), config)
        return (str(ref), config)

    def _config_from_options(self, options: Dict[str, Any]) -> SessionConfig:
        opts, _ = _split_options(options)
        if "weights_cache_dir" not in opts and self.weights_cache_dir:
            opts["weights_cache_dir"] = self.weights_cache_dir
        return SessionConfig.from_options(opts)

    def session(self, circuit_or_name: CircuitRef,
                **options: Any) -> CircuitSession:
        """The hot session for one circuit (creating/evicting as needed).

        Options carrying non-keyable analyzer arguments (explicit
        ``weights=`` or ``input_errors=``) produce a transient session
        that bypasses the registry entirely.
        """
        _, extra = _split_options(options)
        config = self._config_from_options(options)
        if extra:
            return CircuitSession(
                resolve_analysis_circuit(circuit_or_name, config.frames),
                config, extra_analyzer_kwargs=extra)
        key = self._session_key(circuit_or_name, config)
        session = self._sessions.get(key)
        label = (circuit_or_name.name
                 if isinstance(circuit_or_name, (Circuit, SequentialCircuit))
                 else str(circuit_or_name))
        if session is not None:
            self._sessions.move_to_end(key)
            self.session_hits += 1
            if obs_metrics.is_enabled():
                obs_metrics.inc("engine.session.hits", circuit=label)
            return session
        self.session_misses += 1
        if obs_metrics.is_enabled():
            obs_metrics.inc("engine.session.misses", circuit=label)
        with trace_span("engine.session.create", circuit=label):
            session = CircuitSession(
                resolve_analysis_circuit(circuit_or_name, config.frames),
                config)
            session.pin()
        self._sessions[key] = session
        self._evict()
        return session

    def _evict(self) -> None:
        while len(self._sessions) > self.max_sessions:
            victim_key = next((k for k in self._sessions
                               if k not in self._pinned), None)
            if victim_key is None:
                break
            victim = self._sessions.pop(victim_key)
            victim.unpin()
            if obs_metrics.is_enabled():
                obs_metrics.inc("engine.session.evictions",
                                circuit=victim.circuit.name)

    def pin_session(self, circuit_or_name: CircuitRef,
                    **options: Any) -> CircuitSession:
        """Create (or fetch) a session and exempt it from LRU eviction."""
        session = self.session(circuit_or_name, **options)
        config = self._config_from_options(options)
        self._pinned.add(self._session_key(circuit_or_name, config))
        return session

    def _edit_session(self, request: AnalysisRequest) -> CircuitSession:
        """The named mutable session a request targets.

        Created on first sight (the creating request must carry a
        ``circuit``); thereafter the name alone addresses it, and its
        incremental workspace keeps weights/plans warm across edits.
        """
        name = request.session
        session = self._edit_sessions.get(name)
        if session is None:
            if request.circuit is None:
                raise ValueError(
                    f"unknown session {name!r}: create it by sending "
                    "'circuit' together with 'session'")
            options = {k: v for k, v in request.options.items()
                       if k != "mc_patterns"}
            config = self._config_from_options(options)
            _, extra = _split_options(options)
            extra.pop("weights", None)  # the workspace owns its weights
            with trace_span("engine.edit_session.create", session=name):
                session = CircuitSession(
                    resolve_analysis_circuit(request.circuit, config.frames),
                    config, extra_analyzer_kwargs=extra)
            self._edit_sessions[name] = session
            if obs_metrics.is_enabled():
                obs_metrics.inc("engine.edit_sessions.created",
                                circuit=session.circuit.name)
        return session

    # -- direct analysis API -------------------------------------------
    def analyze(self, circuit_or_name: CircuitRef, eps: EpsilonSpec, *,
                method: str = "single-pass", correlation: bool = True,
                eps10: Optional[EpsilonSpec] = None,
                output: Optional[str] = None,
                timeout_s: Optional[float] = None,
                **opts: Any):
        """One eps vector through the engine; returns the result object.

        The return type follows the method — ``single-pass`` gives the
        same :class:`SinglePassResult` a direct
        ``SinglePassAnalyzer.run`` call would, ``closed-form`` a
        :class:`ClosedFormResult`, ``mc`` a :class:`MonteCarloResult`,
        ``consolidated`` / ``exact`` likewise — all sharing the
        :class:`~repro.reliability.protocol.ResultProtocol` surface.
        """
        mc_patterns = opts.pop("mc_patterns", 1 << 16)
        correlation = opts.pop("use_correlation", correlation)
        session = self.session(circuit_or_name, **opts)
        _check_outputs_method(session, method)
        session.touch()
        self.requests_served += 1
        deadline = self._deadline(timeout_s)
        with trace_span("engine.analyze", circuit=session.circuit.name,
                        method=method):
            if method == "single-pass":
                result, _, _, _ = self._single_pass_with_ladder(
                    session, correlation, [eps],
                    None if eps10 is None else [eps10], deadline)
                return result[0]
            if method == "closed-form":
                return session.closed_form(output).analyze(eps)
            if method == "mc":
                return monte_carlo_reliability(
                    session.circuit, eps, n_patterns=mc_patterns,
                    seed=session.config.seed)
            if method == "consolidated":
                return session.consolidated().run(eps)
            if method == "exact":
                from ..reliability.exact import exhaustive_exact_reliability
                return exhaustive_exact_reliability(session.circuit, eps)
            raise ValueError(f"unknown method {method!r}")

    def sweep(self, circuit_or_name: CircuitRef,
              eps_values: Sequence[EpsilonSpec], *,
              method: str = "single-pass", correlation: bool = True,
              eps10_values: Optional[Sequence[EpsilonSpec]] = None,
              output: Optional[str] = None,
              jobs: int = 1,
              **opts: Any):
        """Many eps vectors in one call.

        ``single-pass`` returns the dense
        :class:`~repro.reliability.compiled_pass.SweepResult`;
        ``closed-form``, ``consolidated`` and ``mc`` return
        ``{eps: delta}`` curves (matching the shapes their historical
        free functions produced).  ``jobs`` forwards to
        :meth:`SinglePassAnalyzer.sweep` — it only parallelizes the
        scalar fallback; the compiled kernel batches the points instead
        (and warns when both are requested).
        """
        mc_patterns = opts.pop("mc_patterns", 1 << 16)
        correlation = opts.pop("use_correlation", correlation)
        session = self.session(circuit_or_name, **opts)
        _check_outputs_method(session, method)
        session.touch()
        self.requests_served += 1
        with trace_span("engine.sweep", circuit=session.circuit.name,
                        method=method, points=len(list(eps_values))):
            if method == "single-pass":
                return session.analyzer(correlation).sweep(
                    list(eps_values),
                    None if eps10_values is None else list(eps10_values),
                    jobs=jobs)
            if method == "closed-form":
                model = session.closed_form(output)
                if hasattr(model, "curve"):
                    return model.curve(eps_values)
                return {e: model.any_output_delta(e) for e in eps_values}
            if method == "consolidated":
                return session.consolidated().curve(eps_values)
            if method == "mc":
                return {
                    e: monte_carlo_reliability(
                        session.circuit, e, n_patterns=mc_patterns,
                        seed=session.config.seed + i).delta(output)
                    for i, e in enumerate(eps_values)}
            raise ValueError(f"unknown method {method!r}")

    # -- ladder ---------------------------------------------------------
    def _deadline(self, timeout_s: Optional[float]) -> Optional[float]:
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        if timeout_s is None:
            return None
        return time.monotonic() + float(timeout_s)

    def _single_pass_with_ladder(self, session: CircuitSession,
                                 correlation: bool,
                                 specs: List[EpsilonSpec],
                                 eps10_specs: Optional[List[EpsilonSpec]],
                                 deadline: Optional[float]):
        """Run eps points down the compiled → scalar → closed-form ladder.

        Returns ``(results, method_used, fallbacks, timed_out)`` where
        ``results`` has one protocol result object per point.  Deadlines
        are cooperative: they are checked *between* rungs, never mid-pass,
        so a pass that started in time runs to completion (and is merely
        flagged ``timed_out`` if it overran).
        """
        fallbacks: List[Dict[str, str]] = []
        analyzer = session.analyzer(correlation)
        rung = ("single-pass-compiled" if analyzer.uses_compiled
                else "single-pass-scalar")
        if session.config.compiled == "auto" and not analyzer.uses_compiled:
            fallbacks.append({"from": "single-pass-compiled",
                              "to": "single-pass-scalar",
                              "reason": "no compiled plan for this circuit"})
        if (deadline is not None and time.monotonic() >= deadline
                and not session.config.outputs):
            # The closed-form rung models the full circuit, so a
            # restricted session skips it (its pass runs flagged late).
            fallbacks.append({"from": rung, "to": "closed-form",
                              "reason": "timeout"})
            k0 = time.perf_counter()
            model = session.closed_form(None)
            results = [model.analyze(spec) for spec in specs]
            self._scratch.kernel_s = time.perf_counter() - k0
            return results, "closed-form", fallbacks, True
        k0 = time.perf_counter()
        sweep = analyzer.sweep(specs, eps10_specs)
        self._scratch.kernel_s = time.perf_counter() - k0
        results = [sweep.point(j) for j in range(len(specs))]
        timed_out = deadline is not None and time.monotonic() > deadline
        return results, rung, fallbacks, timed_out

    # -- request scheduler ---------------------------------------------
    def submit(self, request: Union[AnalysisRequest, Dict[str, Any]],
               received_at: Optional[float] = None) -> AnalysisResponse:
        """Execute one declarative request and envelope the outcome.

        Never raises for analysis-level failures: bad circuits, bad eps
        specs, and method errors come back as ``ok=False`` envelopes so a
        serve loop survives malformed traffic.  ``received_at`` is the
        wall-clock time the request was first seen (a serve loop's parse
        time, or a fan-out's dispatch time); the gap to execution start
        becomes the envelope's ``queue_wait_ms``.
        """
        queue_wait_ms = (max(0.0, (time.time() - received_at) * 1e3)
                         if received_at is not None else 0.0)
        if isinstance(request, dict):
            try:
                request = AnalysisRequest.from_dict(request)
            except ValueError as exc:
                response = AnalysisResponse(
                    ok=False, op=str(request.get("op", "analyze")),
                    circuit=str(request.get("circuit", "?")),
                    id=request.get("id"), error=str(exc))
                self._attach_telemetry(response, cache=_UNKNOWN_CACHE,
                                       queue_wait_ms=queue_wait_ms,
                                       kernel_s=0.0)
                self.engine_stats.record(response.op, 0.0, ok=False,
                                         lane=self.lane_index)
                return response
        cache = self._cache_probe(request)
        self._scratch.kernel_s = 0.0
        t0 = time.perf_counter()
        try:
            response = self._execute(request)
        except Exception as exc:  # noqa: BLE001 - envelope, don't crash
            response = AnalysisResponse(
                ok=False, op=request.op, circuit=request.circuit_label(),
                id=request.id, error=f"{type(exc).__name__}: {exc}")
        response.elapsed_s = time.perf_counter() - t0
        self._attach_telemetry(response, cache=cache,
                               queue_wait_ms=queue_wait_ms)
        self.engine_stats.record(response.op, response.elapsed_s,
                                 ok=response.ok, cache=cache,
                                 lane=self.lane_index,
                                 frames=response.frames)
        self._attach_obs(request, response)
        return response

    def submit_many(self, requests: Sequence[Union[AnalysisRequest,
                                                   Dict[str, Any]]],
                    jobs: Optional[int] = None,
                    received_at: Optional[float] = None
                    ) -> List[AnalysisResponse]:
        """Execute a batch: coalesce per session, fan out across lanes.

        Single-pass analyze/sweep requests sharing a session (same
        circuit + options + correlation mode, no deadline) are answered
        by **one** batched kernel sweep.  Plain-mode groups (correlation
        off, no ``eps10``) targeting *different* sessions go further:
        their compiled plans merge into one cross-circuit
        :class:`~repro.reliability.tensor_pass.TensorBatch` pass, so a
        mixed-catalog batch costs one level-scheduled sweep instead of
        one kernel invocation per circuit.  With ``jobs > 1``
        independent sessions run in parallel worker processes with
        sticky routing (the same circuit always lands on the same
        worker, so its session stays warm across batches).  Responses
        come back in request order.
        """
        jobs = self.jobs if jobs is None else jobs
        parsed: List[Tuple[int, Union[AnalysisRequest, Dict[str, Any]]]] = \
            list(enumerate(requests))
        if jobs and jobs > 1:
            return self._fan_out(parsed, jobs)
        return self._run_batch_local(parsed, received_at)

    # -- local batch execution with coalescing -------------------------
    def _run_batch_local(self, indexed,
                         received_at: Optional[float] = None
                         ) -> List[AnalysisResponse]:
        responses: Dict[int, AnalysisResponse] = {}
        groups: "OrderedDict[Tuple, List[Tuple[int, AnalysisRequest]]]" = \
            OrderedDict()
        blocked_sessions = self._stateful_sessions(indexed)
        for idx, raw in indexed:
            request = raw
            if isinstance(raw, dict):
                try:
                    request = AnalysisRequest.from_dict(raw)
                except ValueError as exc:
                    responses[idx] = AnalysisResponse(
                        ok=False, op=str(raw.get("op", "analyze")),
                        circuit=str(raw.get("circuit", "?")),
                        id=raw.get("id"), error=str(exc))
                    continue
            key = self._coalesce_key(request, blocked_sessions)
            if key is None:
                responses[idx] = self.submit(request, received_at)
            else:
                groups.setdefault(key, []).append((idx, request))
        for idx, response in self._run_tensor_batch(groups, received_at):
            responses[idx] = response
        for members in groups.values():
            if len(members) == 1:
                idx, request = members[0]
                responses[idx] = self.submit(request, received_at)
            else:
                for idx, response in self._run_coalesced(members,
                                                         received_at):
                    responses[idx] = response
        return [responses[i] for i in range(len(indexed))]

    @staticmethod
    def _stateful_sessions(indexed) -> frozenset:
        """Session names receiving stateful ops somewhere in this batch.

        A named session whose batch traffic includes anything beyond the
        read-only ops (``analyze``/``sweep``/``reanalyze``) — an ``edit``,
        most importantly — must run strictly solo and in order: coalescing
        a read across a mutation would answer from the wrong circuit.
        """
        blocked = set()
        for _, raw in indexed:
            if isinstance(raw, dict):
                name = raw.get("session")
                op = str(raw.get("op", "analyze"))
            else:
                name = getattr(raw, "session", None)
                op = getattr(raw, "op", "analyze")
            if (name is not None
                    and op not in ("analyze", "sweep", "reanalyze")):
                blocked.add(name)
        return frozenset(blocked)

    def _coalesce_key(self, request: AnalysisRequest,
                      blocked_sessions: frozenset = frozenset()
                      ) -> Optional[Tuple]:
        """Group key for batchable requests, or None to run solo.

        Circuit-targeted requests key on ``(circuit, config, mode)`` as
        ever.  Read-only *session*-targeted requests now coalesce too,
        keyed by the workspace's **structural hash** + config: two named
        edit sessions whose mutated circuits are structurally identical
        (and whose weights are therefore bit-identical, by the
        incremental parity guarantee) share one kernel sweep — and, in
        plain mode, join the cross-session tensor batch.  Sessions with a
        stateful op in the same batch, unknown session names, and
        sessions carrying transient analyzer kwargs stay solo.
        """
        if request.method != "single-pass" or request.timeout_s is not None:
            return None
        if request.session is not None:
            if request.op not in ("analyze", "sweep", "reanalyze"):
                return None
            if request.session in blocked_sessions:
                return None
            session = self._edit_sessions.get(request.session)
            if session is None or session.extra_analyzer_kwargs:
                return None
            return ("session", session.structural_key, session.config,
                    bool(request.correlation), request.eps10 is None)
        if request.op not in ("analyze", "sweep"):
            return None
        if _split_options(request.options)[1]:
            return None
        try:
            config = self._config_from_options(request.options)
        except ValueError:
            return None
        if isinstance(request.circuit, Circuit):
            circuit_key: Any = id(request.circuit)
        else:
            circuit_key = str(request.circuit)
        return ("circuit", circuit_key, config, bool(request.correlation),
                request.eps10 is None)

    def _member_sessions(self, members) -> List[CircuitSession]:
        """Resolve each member's session for one coalesced group.

        Session-targeted groups map each request to its own named
        session (no registry counters — existence was verified by
        ``_coalesce_key``); circuit groups share one registry session,
        resolved (and counted) once.
        """
        first = members[0][1]
        if first.session is not None:
            return [self._edit_sessions[req.session] for _, req in members]
        shared = self.session(first.circuit, **first.options)
        return [shared] * len(members)

    @staticmethod
    def _member_specs(request: AnalysisRequest,
                      session: CircuitSession) -> List[EpsilonSpec]:
        """One member's eps points (honouring reanalyze's live-eps rule)."""
        if request.op == "reanalyze" and request.eps is None:
            return [session.workspace().current_eps()]
        return list(request.eps_points())

    def _run_coalesced(self, members,
                       received_at: Optional[float] = None
                       ) -> List[Tuple[int, AnalysisResponse]]:
        """Answer several same-session requests from one kernel sweep."""
        first = members[0][1]
        queue_wait_ms = (max(0.0, (time.time() - received_at) * 1e3)
                         if received_at is not None else 0.0)
        cache = self._cache_probe(first)
        self._scratch.kernel_s = 0.0
        t0 = time.perf_counter()
        try:
            sessions = self._member_sessions(members)
            slices: List[Tuple[int, int]] = []
            specs: List[EpsilonSpec] = []
            eps10_specs: Optional[List[EpsilonSpec]] = (
                None if first.eps10 is None else [])
            for (_, request), session in zip(members, sessions):
                points = self._member_specs(request, session)
                slices.append((len(specs), len(points)))
                specs.extend(points)
                if eps10_specs is not None:
                    e10 = request.eps10_points()
                    if e10 is None or len(e10) != len(points):
                        raise ValueError(
                            "eps10 must cover every eps point")
                    eps10_specs.extend(e10)
            for session in {id(s): s for s in sessions}.values():
                session.touch()
            exec_session = sessions[0]
            self.requests_served += len(members)
            with trace_span("engine.coalesced_sweep",
                            circuit=exec_session.circuit.name,
                            requests=len(members), points=len(specs)):
                results, method, fallbacks, timed_out = \
                    self._single_pass_with_ladder(
                        exec_session, first.correlation, specs, eps10_specs,
                        None)
            if obs_metrics.is_enabled():
                obs_metrics.inc("engine.coalesced_requests", len(members),
                                circuit=exec_session.circuit.name)
            elapsed = (time.perf_counter() - t0) / len(members)
            kernel_s = getattr(self._scratch, "kernel_s", 0.0) \
                / len(members)
            out = []
            for (idx, request), session, (start, count) in zip(
                    members, sessions, slices):
                payload = analyze_payload(
                    session.circuit.name, specs[start:start + count],
                    results[start:start + count])
                response = AnalysisResponse(
                    ok=True, op=request.op,
                    circuit=session.circuit.name, id=request.id,
                    method=method, fallbacks=list(fallbacks),
                    timed_out=timed_out, elapsed_s=elapsed,
                    coalesced=len(members),
                    frames=session.config.frames,
                    outputs=(list(session.config.outputs)
                             if session.config.outputs else None),
                    result=payload)
                self._attach_telemetry(response, cache=cache,
                                       queue_wait_ms=queue_wait_ms,
                                       kernel_s=kernel_s)
                self.engine_stats.record(response.op, elapsed,
                                         ok=True, cache=cache,
                                         lane=self.lane_index,
                                         frames=response.frames)
                self._attach_obs(request, response)
                out.append((idx, response))
            return out
        except Exception:  # noqa: BLE001 - degrade to solo execution
            return [(idx, self.submit(request, received_at))
                    for idx, request in members]

    # -- cross-session tensor batching ---------------------------------
    def _run_tensor_batch(self, groups, received_at: Optional[float] = None
                          ) -> List[Tuple[int, AnalysisResponse]]:
        """Answer plain-mode groups for *different* sessions from one
        merged tensor sweep (the cross-session analogue of
        :meth:`_run_coalesced`).

        Eligible groups — correlation off, no ``eps10``, a compiled
        independence plan available — are popped from ``groups`` and
        answered by a single :class:`~repro.reliability.tensor_pass.
        TensorBatch` pass; everything else stays behind for the
        per-session path.  Read-only *edit-session* groups qualify too
        (their workspace plans are ``CompiledSinglePass`` instances like
        any other), so a serve batch mixing named sessions and plain
        circuit traffic still merges into one tensor sweep.  Needs at least two eligible groups (one group
        is exactly what ``_run_coalesced`` already handles).  Any
        batch-level failure leaves ``groups`` untouched and returns
        ``[]``, so the caller degrades to the existing per-group path.
        """
        try:
            # Per-group resolution: probe the cache *before* touching the
            # registry (so telemetry reports pre-request warmth), then
            # require a CompiledSinglePass plan.  A group that fails to
            # resolve simply stays on the per-group path, where its error
            # envelope is produced with full context.
            eligible = []
            for key, members in groups.items():
                if key[3] or not key[4]:  # correlation on / eps10 present
                    continue
                first = members[0][1]
                try:
                    cache = self._cache_probe(first)
                    sessions = self._member_sessions(members)
                    plan = sessions[0].analyzer(False).plan
                    if not isinstance(plan, CompiledSinglePass):
                        continue
                    slices: List[Tuple[int, int]] = []
                    specs: List[EpsilonSpec] = []
                    for (_, request), session in zip(members, sessions):
                        points = self._member_specs(request, session)
                        slices.append((len(specs), len(points)))
                        specs.extend(points)
                except Exception:  # noqa: BLE001 - leave group behind
                    continue
                eligible.append(
                    {"key": key, "members": members, "sessions": sessions,
                     "plan": plan, "cache": cache, "specs": specs,
                     "slices": slices})
            if len(eligible) < 2:
                return []
            queue_wait_ms = (max(0.0, (time.time() - received_at) * 1e3)
                             if received_at is not None else 0.0)
            t0 = time.perf_counter()
            batch = self._tensor_batch_for([g["plan"] for g in eligible])
            total_requests = sum(len(g["members"]) for g in eligible)
            with trace_span("engine.tensor_batch",
                            circuits=batch.n_circuits,
                            requests=total_requests,
                            points=sum(len(g["specs"]) for g in eligible)):
                k0 = time.perf_counter()
                sweeps = batch.run_sweep([g["specs"] for g in eligible])
                kernel_total = time.perf_counter() - k0
            if obs_metrics.is_enabled():
                obs_metrics.inc("engine.tensor_batch.circuits",
                                batch.n_circuits)
                obs_metrics.inc("engine.tensor_batch.pad_waste_rows",
                                batch.pad_waste_rows)
            elapsed = (time.perf_counter() - t0) / total_requests
            kernel_s = kernel_total / total_requests
            out: List[Tuple[int, AnalysisResponse]] = []
            for group, sweep in zip(eligible, sweeps):
                sessions = group["sessions"]
                for session in {id(s): s for s in sessions}.values():
                    session.touch()
                members = group["members"]
                self.requests_served += len(members)
                specs = group["specs"]
                results = [sweep.point(j) for j in range(len(specs))]
                for (idx, request), session, (start, count) in zip(
                        members, sessions, group["slices"]):
                    payload = analyze_payload(
                        session.circuit.name, specs[start:start + count],
                        results[start:start + count])
                    response = AnalysisResponse(
                        ok=True, op=request.op,
                        circuit=session.circuit.name, id=request.id,
                        method="single-pass-tensor",
                        elapsed_s=elapsed, coalesced=len(members),
                        frames=session.config.frames,
                        outputs=(list(session.config.outputs)
                                 if session.config.outputs else None),
                        result=payload)
                    self._attach_telemetry(response, cache=group["cache"],
                                           queue_wait_ms=queue_wait_ms,
                                           kernel_s=kernel_s,
                                           batch_circuits=batch.n_circuits)
                    self.engine_stats.record(response.op, elapsed,
                                             ok=True, cache=group["cache"],
                                             lane=self.lane_index,
                                             frames=response.frames)
                    self._attach_obs(request, response)
                    out.append((idx, response))
            for group in eligible:
                del groups[group["key"]]
            return out
        except Exception:  # noqa: BLE001 - degrade to per-group path
            return []

    def _tensor_batch_for(self, plans: List[CompiledSinglePass]
                          ) -> TensorBatch:
        """The merged :class:`TensorBatch` for this batch composition.

        Keyed by plan identity and version — plans are memoized on their
        sessions and the cached batch holds them, so ids cannot be recycled
        while the entry lives, and an edit session's plan patched in place
        (``CompiledSinglePass.patch_weights``) bumps its version, so the
        batch merged from its old arrays is not reused.  LRU-capped so a
        serve loop cycling through many workload shapes doesn't hoard
        merged tensors.
        """
        key = tuple((id(plan), plan.version) for plan in plans)
        batch = self._tensor_batches.get(key)
        if batch is None:
            batch = TensorBatch(plans)
            self._tensor_batches[key] = batch
            while len(self._tensor_batches) > _TENSOR_BATCH_CACHE_CAP:
                self._tensor_batches.popitem(last=False)
        else:
            self._tensor_batches.move_to_end(key)
        return batch

    # -- single-request execution --------------------------------------
    def _execute(self, request: AnalysisRequest) -> AnalysisResponse:
        op = request.op
        self.requests_served += 1
        if obs_metrics.is_enabled():
            obs_metrics.inc("engine.requests", op=op,
                            circuit=request.circuit_label())
        if op == "report":
            return self._execute_report(request)
        if request.session is not None:
            session = self._edit_session(request)
        else:
            session = self.session(request.circuit, **{
                k: v for k, v in request.options.items()
                if k not in ("mc_patterns",)})
        session.touch()
        name = session.circuit.name
        deadline = self._deadline(request.timeout_s)
        with trace_span("engine.request", op=op, circuit=name):
            if op == "edit":
                return self._execute_edit(request, session)
            if op in ("analyze", "sweep", "reanalyze"):
                return self._execute_analyze(request, session, deadline)
            if op == "curve":
                eps_points = [float(e) for e in request.eps_points()]
                analyzer = session.analyzer(request.correlation)
                # The analyzer's circuit is the restricted cone when the
                # session carries outputs=, so its first output is always
                # a valid default.
                output = request.output or analyzer.circuit.outputs[0]
                sweep = analyzer.sweep(eps_points)
                deltas = sweep.delta(output)
                return AnalysisResponse(
                    ok=True, op=op, circuit=name, id=request.id,
                    method="single-pass",
                    outputs=(list(session.config.outputs)
                             if session.config.outputs else None),
                    result=curve_payload(name, output, eps_points, deltas))
            if op == "closed-form":
                _check_outputs_method(session, "closed-form")
                result = session.closed_form(request.output).analyze(
                    request.eps_points()[0])
                return AnalysisResponse(
                    ok=True, op=op, circuit=name, id=request.id,
                    method="closed-form",
                    result=result_payload(name, "closed-form", result))
            if op == "mc":
                _check_outputs_method(session, "mc")
                result = monte_carlo_reliability(
                    session.circuit, request.eps_points()[0],
                    n_patterns=request.options.get("mc_patterns", 1 << 16),
                    seed=session.config.seed)
                return AnalysisResponse(
                    ok=True, op=op, circuit=name, id=request.id,
                    method="mc", result=result_payload(name, "mc", result))
            raise ValueError(f"unknown op {op!r}")

    def _execute_edit(self, request: AnalysisRequest,
                      session: CircuitSession) -> AnalysisResponse:
        """Apply a batch of edits to a named session's workspace."""
        edits = request.edits
        if not isinstance(edits, (list, tuple)) or not edits:
            raise ValueError(
                "op 'edit' requires a non-empty 'edits' list")
        reports = session.apply_edits([parse_edit(e) for e in edits])
        name = session.circuit.name
        result = {
            "circuit": name,
            "command": "edit",
            "session": request.session,
            "reports": [report.to_dict() for report in reports],
            "num_gates": session.circuit.num_gates,
            "eps": session.workspace().current_eps(),
        }
        return AnalysisResponse(ok=True, op="edit", circuit=name,
                                id=request.id, method="incremental",
                                result=result)

    def _execute_analyze(self, request: AnalysisRequest,
                         session: CircuitSession,
                         deadline: Optional[float]) -> AnalysisResponse:
        name = session.circuit.name
        if request.op == "reanalyze" and request.eps is None:
            # No explicit eps: analyze at the session's live eps state.
            specs = [session.workspace().current_eps()]
        else:
            specs = request.eps_points()
        method = request.method
        frames = session.config.frames
        outputs = (list(session.config.outputs)
                   if session.config.outputs else None)
        if method != "single-pass":
            _check_outputs_method(session, method)
        if method == "single-pass":
            results, used, fallbacks, timed_out = \
                self._single_pass_with_ladder(
                    session, request.correlation, specs,
                    request.eps10_points(), deadline)
            return AnalysisResponse(
                ok=True, op=request.op, circuit=name, id=request.id,
                method=used, fallbacks=fallbacks, timed_out=timed_out,
                frames=frames, outputs=outputs,
                result=analyze_payload(name, specs, results))
        if method == "closed-form":
            model = session.closed_form(request.output)
            results = [model.analyze(spec) for spec in specs]
            return AnalysisResponse(
                ok=True, op=request.op, circuit=name, id=request.id,
                method="closed-form", frames=frames,
                result=analyze_payload(name, specs, results))
        if method == "mc":
            results = [monte_carlo_reliability(
                session.circuit, spec,
                n_patterns=request.options.get("mc_patterns", 1 << 16),
                seed=session.config.seed + i)
                for i, spec in enumerate(specs)]
            return AnalysisResponse(
                ok=True, op=request.op, circuit=name, id=request.id,
                method="mc", frames=frames,
                result=analyze_payload(name, specs, results))
        if method == "consolidated":
            results = [session.consolidated().run(spec) for spec in specs]
            return AnalysisResponse(
                ok=True, op=request.op, circuit=name, id=request.id,
                method="consolidated", frames=frames,
                result=analyze_payload(name, specs, results))
        if method == "exact":
            from ..reliability.exact import exhaustive_exact_reliability
            results = [exhaustive_exact_reliability(session.circuit, spec)
                       for spec in specs]
            return AnalysisResponse(
                ok=True, op=request.op, circuit=name, id=request.id,
                method="exact", frames=frames,
                result=analyze_payload(name, specs, results))
        raise ValueError(f"unknown method {method!r}")

    def _execute_report(self, request: AnalysisRequest) -> AnalysisResponse:
        from ..report import ReportConfig, build_report
        options = dict(request.options)
        circuit = resolve_analysis_circuit(request.circuit,
                                           options.get("frames"))
        config = ReportConfig(
            mc_patterns=options.get("mc_patterns", 1 << 14),
            seed=options.get("seed", 0),
            include_testability=options.get("include_testability", True),
            weights_cache_dir=options.get("weights_cache_dir",
                                          self.weights_cache_dir))
        report = build_report(circuit, config)
        return AnalysisResponse(
            ok=True, op="report", circuit=circuit.name, id=request.id,
            method="report", result=report.to_dict())

    # -- process-pool fan-out ------------------------------------------
    def _lane(self, index: int, total: int) -> ProcessPoolExecutor:
        while len(self._lanes) < total:
            self._lanes.append(ProcessPoolExecutor(
                max_workers=1, initializer=_lane_init,
                initargs=(self.max_sessions, self.weights_cache_dir)))
        return self._lanes[index]

    def _fan_out(self, indexed, jobs: int) -> List[AnalysisResponse]:
        """Distribute a batch across sticky single-process lanes.

        Routing CRC-hashes the session/circuit label (``zlib.crc32`` —
        deterministic across processes and runs, unlike builtin ``hash``),
        so requests for one session always reach the same worker — its
        session registry stays warm across batches.  Each lane dispatch
        carries a telemetry context (lane index, dispatch wall-clock,
        request ids, and whether tracing/metrics are live); workers ship
        their spans and metric deltas home in a
        :class:`~repro.obs.propagate.TelemetryPayload` which is spliced
        into this process's tracer/registry under a synthetic
        ``engine.lane`` span, yielding one coherent Chrome trace.
        """
        tracing = obs_trace.is_enabled()
        metering = obs_metrics.is_enabled()
        tracer = obs_trace.get_tracer()
        enclosing = tracer.current() if tracing else None
        by_lane: Dict[int, List[Tuple[int, Any]]] = {}
        for idx, raw in indexed:
            if isinstance(raw, dict):
                label = raw.get("session") or raw.get("circuit", "?")
            else:
                label = raw.session or raw.circuit_label()
            lane = zlib.crc32(str(label).encode()) % jobs
            by_lane.setdefault(lane, []).append((idx, raw))
        futures = []
        for lane_idx, members in by_lane.items():
            reqs = [raw for _, raw in members]
            ctx = {
                "lane": lane_idx,
                "dispatched_at": time.time(),
                "trace": tracing,
                "metrics": metering,
                "request_ids": [self._next_request_id() for _ in members],
            }
            dispatch_rel = time.perf_counter() - tracer.epoch
            future = self._lane(lane_idx, jobs).submit(_lane_run, reqs, ctx)
            futures.append((members, lane_idx, dispatch_rel, future))
        responses: Dict[int, AnalysisResponse] = {}
        for members, lane_idx, dispatch_rel, future in futures:
            lane_responses, payload = future.result()
            lane_elapsed = (time.perf_counter() - tracer.epoch
                            - dispatch_rel)
            self.engine_stats.record_lane(lane_idx, len(members),
                                          lane_elapsed)
            if tracing:
                depth = enclosing.depth + 1 if enclosing else 0
                tracer.record(obs_trace.Span(
                    name="engine.lane",
                    start=dispatch_rel, duration=lane_elapsed,
                    depth=depth,
                    parent=enclosing.name if enclosing else None,
                    thread_id=threading.get_ident(),
                    attrs={"lane": lane_idx, "requests": len(members)}))
            if payload is not None:
                payload.merge_into(tracer, at=dispatch_rel,
                                   parent="engine.lane",
                                   depth_base=(enclosing.depth + 2
                                               if enclosing else 1))
            for (idx, _), response in zip(members, lane_responses):
                # The worker's EngineStats died with its batch; fold the
                # per-request record into the parent's rolling window.
                self.engine_stats.record(
                    response.op, response.elapsed_s, ok=response.ok,
                    cache=(response.telemetry or {}).get("cache"),
                    lane=lane_idx)
                responses[idx] = response
        return [responses[i] for i in range(len(indexed))]

    # -- telemetry ------------------------------------------------------
    def _next_request_id(self) -> str:
        return f"{os.getpid():x}-{next(self._request_seq):06x}"

    def _cache_probe(self, request: AnalysisRequest) -> Dict[str, str]:
        """Predict cache warmth for a request *before* executing it.

        Returns ``{"session", "weights", "plan"}`` each mapped to
        ``hit``/``miss`` (session tier) or ``warm``/``cold`` (artifact
        tiers); ``transient`` marks requests that bypass the registry,
        ``unknown`` an unprobeable request.  Probing never raises — a
        malformed request is answered by ``_execute``'s error envelope.
        """
        try:
            if request.op == "report":
                return {"session": "transient", "weights": "cold",
                        "plan": "cold"}
            if request.session is not None:
                session = self._edit_sessions.get(request.session)
            else:
                options = {k: v for k, v in request.options.items()
                           if k != "mc_patterns"}
                if _split_options(options)[1]:
                    return {"session": "transient", "weights": "cold",
                            "plan": "cold"}
                config = self._config_from_options(options)
                key = self._session_key(request.circuit, config)
                session = self._sessions.get(key)
            if session is None:
                return {"session": "miss", "weights": "cold",
                        "plan": "cold"}
            return {
                "session": "hit",
                "weights": "warm" if session.weights_ready else "cold",
                "plan": ("warm"
                         if session.plan_ready(request.correlation)
                         else "cold"),
            }
        except Exception:  # noqa: BLE001 - probes must never fail requests
            return dict(_UNKNOWN_CACHE)

    def _attach_telemetry(self, response: AnalysisResponse, *,
                          cache: Dict[str, str],
                          queue_wait_ms: float,
                          kernel_s: Optional[float] = None,
                          batch_circuits: Optional[int] = None) -> None:
        """Assemble the always-on per-request ``telemetry`` block.

        Unlike ``_attach_obs`` this is not gated on the obs flags: the
        block is plain counters/timestamps already measured on the
        request path, so populating it costs one dict build (guarded by
        ``benchmarks/test_obs_overhead.py``).
        """
        if kernel_s is None:
            kernel_s = getattr(self._scratch, "kernel_s", 0.0)
        response.telemetry = {
            "request_id": self._next_request_id(),
            "queue_wait_ms": round(queue_wait_ms, 3),
            "coalesced": response.coalesced,
            "lane": self.lane_index,
            "cache": dict(cache),
            "ladder": response.method,
            "kernel_ms": round((kernel_s or 0.0) * 1e3, 3),
            "total_ms": round(response.elapsed_s * 1e3, 3),
        }
        if batch_circuits is not None:
            # Cross-session tensor batch: how many circuits shared the
            # merged kernel pass that answered this request.
            response.telemetry["batch_circuits"] = batch_circuits

    # -- lifecycle ------------------------------------------------------
    def uptime_s(self) -> float:
        """Seconds since this engine was constructed (monotonic)."""
        return self.engine_stats.uptime_s()

    def stats(self) -> Dict[str, Any]:
        """Registry, scheduler, and rolling-SLO state (the `stats` op).

        Lifetime counters keep their PR-5 keys; ``uptime_s`` /
        ``started_at`` / ``version`` identify the process, and
        ``rolling`` carries the :class:`EngineStats` snapshot (per-op
        p50/p95/p99 latencies, cache hit-rate windows, lane utilization).
        """
        from .. import __version__  # lazy: package defines it after us
        data = {
            "sessions": len(self._sessions),
            "edit_sessions": len(self._edit_sessions),
            "max_sessions": self.max_sessions,
            "session_hits": self.session_hits,
            "session_misses": self.session_misses,
            "requests_served": self.requests_served,
            "lanes": len(self._lanes),
            "uptime_s": self.uptime_s(),
            "started_at": self.started_at,
            "version": __version__,
            "rolling": self.engine_stats.snapshot(),
        }
        if self._admission is not None:
            data["admission"] = self._admission.snapshot()
        return data

    # -- durable state ---------------------------------------------------
    def _resolve_state_dir(self, state_dir: Optional[str]) -> str:
        state_dir = state_dir or self.state_dir
        if not state_dir:
            raise ValueError(
                "no state directory configured: pass state_dir= or "
                "construct the engine with state_dir (CLI: --state-dir)")
        return state_dir

    def save_state(self, state_dir: Optional[str] = None) -> Dict[str, Any]:
        """Snapshot every named edit session to disk (see engine/state.py).

        Returns the summary the serve ``save`` control op echoes:
        ``{state_dir, sessions, elapsed_ms}``.
        """
        from .state import save_engine_state
        return save_engine_state(self, self._resolve_state_dir(state_dir))

    def load_state(self, state_dir: Optional[str] = None) -> Dict[str, Any]:
        """Restore named edit sessions from a prior :meth:`save_state`.

        Best-effort and additive: corrupt entries are skipped (reported
        in the summary's ``errors``), and session names already live in
        this engine are never overwritten.
        """
        from .state import load_engine_state
        return load_engine_state(self, self._resolve_state_dir(state_dir))

    def prometheus(self) -> str:
        """Prometheus text exposition: engine SLO stats + obs registry."""
        text = self.engine_stats.to_prometheus()
        registry_text = obs_metrics.get_registry().to_prometheus()
        return text + registry_text

    def close(self) -> None:
        """Shut down worker lanes and release pinned cache entries."""
        for lane in self._lanes:
            lane.shutdown(wait=False, cancel_futures=True)
        self._lanes.clear()
        for session in self._sessions.values():
            session.unpin()
        self._sessions.clear()
        self._edit_sessions.clear()
        self._pinned.clear()
        self._tensor_batches.clear()

    def __enter__(self) -> "AnalysisEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- obs ------------------------------------------------------------
    def _attach_obs(self, request, response: AnalysisResponse) -> None:
        if not obs_metrics.is_enabled():
            return
        labels = {"op": response.op, "circuit": response.circuit}
        obs_metrics.inc("engine.responses", **labels)
        obs_metrics.observe("engine.request_seconds", response.elapsed_s,
                            **labels)
        response.obs = {
            "labels": labels,
            "session_hits": self.session_hits,
            "session_misses": self.session_misses,
        }


# ----------------------------------------------------------------------
# Sticky-lane worker plumbing: each lane is a one-process executor whose
# worker holds its own AnalysisEngine, so a circuit routed to the same
# lane twice finds its session (weights + compiled plans) already hot.
# ----------------------------------------------------------------------

_LANE_ENGINE: Optional[AnalysisEngine] = None


def _lane_init(max_sessions: int,
               weights_cache_dir: Optional[str]) -> None:
    global _LANE_ENGINE
    _LANE_ENGINE = AnalysisEngine(max_sessions=max_sessions,
                                  weights_cache_dir=weights_cache_dir,
                                  jobs=0)


def _lane_run(requests, ctx: Optional[Dict[str, Any]] = None
              ) -> Tuple[List[AnalysisResponse],
                         Optional[TelemetryPayload]]:
    """Run one lane batch; optionally capture telemetry to ship home.

    ``ctx`` is the parent's dispatch context: lane index, dispatch
    wall-clock (for queue-wait), pre-assigned request ids, and whether
    the parent wants spans/metrics back.  Worker obs state is reset per
    batch — with the ``fork`` start method the process inherits the
    parent's enabled flags and any spans recorded before the pool was
    created, so the payload must carry exactly this batch's telemetry.
    """
    from .. import obs
    ctx = ctx or {}
    want_trace = bool(ctx.get("trace"))
    want_metrics = bool(ctx.get("metrics"))
    obs.reset()
    if want_trace or want_metrics:
        obs.enable(tracing=want_trace, metrics_=want_metrics)
    else:
        obs.disable()
    _LANE_ENGINE.lane_index = ctx.get("lane")
    responses = _LANE_ENGINE.submit_many(
        requests, jobs=0, received_at=ctx.get("dispatched_at"))
    request_ids = ctx.get("request_ids")
    for i, response in enumerate(responses):
        if response.telemetry is not None:
            if request_ids and i < len(request_ids):
                response.telemetry["request_id"] = request_ids[i]
            response.telemetry["lane"] = ctx.get("lane")
    payload = None
    if want_trace or want_metrics:
        payload = capture_telemetry()
        obs.disable()
        obs.reset()
    return responses, payload
