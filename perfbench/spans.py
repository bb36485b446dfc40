"""Span recorder for the traced benchmark run.

The recorder wraps public entry points of the analyzer's modules from the
outside (``setattr`` on the owning class or module) and records one span
per call: layer name, a label (usually the circuit), start, end, the
span that caused it and the request tag it ran under.  Nothing in
``src/`` knows it is being traced; :meth:`SpanRecorder.uninstall`
restores every original attribute, so the same process can measure an
untraced phase and a traced phase back to back.

A layer's self time is its span's duration minus the time its child
spans cover.  Spans stay in memory; :meth:`SpanRecorder.dump` writes
them out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span layer names, one per wrapped entry point (see ``install``).
RESOLVE = "circuits.resolve"
WEIGHTS = "probability.weights"
LOWER_PLAIN = "compiled_pass.lower_plain"
LOWER_CORR = "compiled_pass.lower_corr"
KERNEL_PLAIN = "compiled_pass.kernel_plain"
KERNEL_CORR = "compiled_pass.kernel_corr"
TENSOR = "tensor_pass.kernel"
SUBMIT = "engine.submit"
SUBMIT_MANY = "engine.submit_many"
PAYLOAD = "engine.payload"
EDIT = "incremental.edit"
ENCODE = "serve.encode"

ENGINE_LAYERS = (SUBMIT, SUBMIT_MANY)
KERNEL_LAYERS = (KERNEL_PLAIN, KERNEL_CORR, TENSOR)


class Span:
    __slots__ = ("layer", "label", "tag", "points", "start", "end",
                 "child_s", "parent")

    def __init__(self, layer: str, label: Any, tag: Any, points: int,
                 parent: Optional["Span"]):
        self.layer = layer
        self.label = label
        self.tag = tag
        self.points = points
        self.parent = parent
        self.child_s = 0.0
        self.start = self.end = 0.0

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class SpanRecorder:
    """Wraps entry points, records spans and the plans they built."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(kind, circuit) -> {count: value}`` read off built plans.
        self.plan_counts: Dict[Tuple[str, str], Dict[str, int]] = {}
        self._tls = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- request tags ---------------------------------------------------
    @property
    def tag(self) -> Any:
        return getattr(self._tls, "tag", None)

    @tag.setter
    def tag(self, value: Any) -> None:
        self._tls.tag = value

    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -- wrapping -------------------------------------------------------
    def wrap(self, fn: Callable, layer: str,
             describe: Callable[..., Tuple[Any, int]],
             after: Optional[Callable[..., None]] = None,
             tag_of: Optional[Callable[..., Any]] = None) -> Callable:
        """``fn`` recording one span per call.

        ``describe`` maps the call's arguments to ``(label, points)``;
        ``after`` runs after a successful call; ``tag_of`` reads the
        request tag off the arguments, for calls made outside any tagged
        request (the serve tier encodes envelopes on its event-loop
        thread)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, points = describe(*args, **kwargs)
            tag = recorder.tag
            if tag is None and tag_of is not None:
                tag = tag_of(*args, **kwargs)
            stack = recorder._stack()
            span = Span(layer, label, tag, points,
                        stack[-1] if stack else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration_s
                recorder.spans.append(span)
            if after is not None:
                after(*args, **kwargs)
            return result

        return wrapper

    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap_method(self, cls: type, name: str, layer: str,
                    describe: Callable[..., Tuple[Any, int]],
                    after: Optional[Callable[..., None]] = None,
                    tag_of: Optional[Callable[..., Any]] = None) -> None:
        self._patch(cls, name, self.wrap(cls.__dict__[name], layer,
                                         describe, after, tag_of))

    def wrap_function(self, fn: Callable, layer: str,
                      describe: Callable[..., Tuple[Any, int]]) -> None:
        """Wrap ``fn`` under every name a loaded ``repro`` module binds
        it to (``from x import fn`` copies the binding)."""
        wrapper = self.wrap(fn, layer, describe)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self, serve_module: Optional[types.ModuleType] = None
                ) -> None:
        """Wrap every layer entry point the benchmark reports on.

        ``serve_module`` (``repro.engine.serve``) is given only in the
        server process, where the envelope's ``json.dumps`` is timed.
        """
        from repro.engine import AnalysisEngine, AnalysisResponse
        from repro.engine import session as engine_session
        from repro.incremental import CircuitWorkspace
        from repro.probability import weights as prob_weights
        from repro.reliability.compiled_pass import (
            CompiledCorrelatedPass,
            CompiledSinglePass,
        )
        from repro.reliability.tensor_pass import TensorBatch

        def circuit_ref(ref, *_a, **_k):
            return str(getattr(ref, "name", ref)), 0

        def circuit_arg(circuit, *_a, **_k):
            return circuit.name, 0

        def ctor(plan, circuit, *_a, **_k):
            return circuit.name, 0

        def sweep(plan, eps_specs, *_a, **_k):
            return plan.circuit.name, len(eps_specs)

        def tensor_sweep(batch, eps_specs, *_a, **_k):
            return (tuple(p.circuit.name for p in batch.plans),
                    max(len(s) for s in eps_specs))

        def request_op(engine, request, *_a, **_k):
            return _op_of(request), 1

        def batch_ops(engine, requests, *_a, **_k):
            return tuple(_op_of(r) for r in requests), len(requests)

        def response(resp, *_a, **_k):
            return resp.op, 0

        def apply_edit(workspace, edit, *_a, **_k):
            return workspace.circuit.name, 0

        # The first plan built per circuit name is the catalog circuit's;
        # later builds may be of edited copies under the same name.
        def plain_counts(plan, circuit, *_a, **_k):
            self.plan_counts.setdefault(("plain", circuit.name), {
                "groups": plan.num_groups, "levels": len(plan.levels)})

        def corr_counts(plan, circuit, *_a, **_k):
            self.plan_counts.setdefault(("corr", circuit.name), {
                "rows": plan.n_rows})

        self.wrap_function(engine_session.resolve_circuit, RESOLVE,
                           circuit_ref)
        self.wrap_function(prob_weights.compute_weights, WEIGHTS,
                           circuit_arg)
        self.wrap_method(CompiledSinglePass, "__init__", LOWER_PLAIN, ctor,
                         plain_counts)
        self.wrap_method(CompiledCorrelatedPass, "__init__", LOWER_CORR,
                         ctor, corr_counts)
        self.wrap_method(CompiledSinglePass, "run_sweep", KERNEL_PLAIN,
                         sweep)
        self.wrap_method(CompiledCorrelatedPass, "run_sweep", KERNEL_CORR,
                         sweep)
        self.wrap_method(TensorBatch, "run_sweep", TENSOR, tensor_sweep)
        self.wrap_method(AnalysisEngine, "submit", SUBMIT, request_op)
        self._wrap_submit_many(AnalysisEngine, batch_ops)
        self.wrap_method(AnalysisResponse, "to_dict", PAYLOAD, response,
                         tag_of=lambda resp, *_a, **_k: resp.id)
        self.wrap_method(CircuitWorkspace, "apply", EDIT, apply_edit)
        if serve_module is not None:
            self._wrap_encoder(serve_module)

    def _wrap_submit_many(self, engine_cls: type,
                          describe: Callable[..., Tuple[Any, int]]) -> None:
        """``submit_many`` spans tag everything under them with the ids
        of the batch, so server-side spans map back to client requests."""
        inner = self.wrap(engine_cls.__dict__["submit_many"], SUBMIT_MANY,
                          describe)
        recorder = self

        @functools.wraps(inner)
        def submit_many(engine, requests, *args, **kwargs):
            outer = recorder.tag
            recorder.tag = tuple(_id_of(r) for r in requests)
            try:
                return inner(engine, requests, *args, **kwargs)
            finally:
                recorder.tag = outer

        self._patch(engine_cls, "submit_many", submit_many)

    def _wrap_encoder(self, serve_module: types.ModuleType) -> None:
        """Swap the serve module's ``json`` for a copy whose ``dumps`` is
        wrapped, so only the serve tier's envelope encoding is timed."""
        def envelope_id(obj, *_a, **_k):
            return obj.get("id") if isinstance(obj, dict) else None

        shim = types.ModuleType("json")
        shim.__dict__.update(json.__dict__)
        shim.dumps = self.wrap(json.dumps, ENCODE,
                               lambda obj, *_a, **_k: (None, 0),
                               tag_of=envelope_id)
        self._patch(serve_module, "json", shim)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------
    def to_records(self) -> List[Dict[str, Any]]:
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [{"layer": s.layer, "label": _jsonable(s.label),
                 "tag": _jsonable(s.tag), "points": s.points,
                 "start": s.start, "end": s.end, "self_s": s.self_s,
                 "parent": index.get(id(s.parent))}
                for s in self.spans]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.to_records(),
                       "plans": [[kind, name, counts] for (kind, name), counts
                                 in sorted(self.plan_counts.items())]}, fh)


def load_records(path: str) -> Tuple[List[Dict[str, Any]],
                                     Dict[Tuple[str, str], Dict[str, int]]]:
    """Read a :meth:`SpanRecorder.dump` file back."""
    with open(path) as fh:
        data = json.load(fh)
    plans = {(kind, name): counts for kind, name, counts in data["plans"]}
    return data["spans"], plans


def _op_of(request: Any) -> str:
    if isinstance(request, dict):
        return str(request.get("op", "analyze"))
    return str(getattr(request, "op", "analyze"))


def _id_of(request: Any) -> Any:
    if isinstance(request, dict):
        return request.get("id")
    return getattr(request, "id", None)


def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value
