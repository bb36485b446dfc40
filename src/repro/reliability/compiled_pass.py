"""Compiled single-pass kernel: vectorized error propagation with an eps axis.

The paper's scalability argument (Sec. 4, Table 2) is that weight vectors
are computed once and the O(n) propagation pass is re-run cheaply for every
failure-probability vector — eps sweeps, SER estimation, design-space
exploration.  The scalar pass in :mod:`repro.reliability.single_pass`
honors the split but spends its time in per-gate Python loops over ``2**k``
truth rows and perturbation tuples, and repeats all of it per eps point.

:class:`CompiledSinglePass` removes both costs.  It lowers a circuit plus
its :class:`~repro.probability.weights.WeightData` into integer-indexed
numpy arrays **once** (mirroring how :class:`repro.sim.simulator.
CompiledCircuit` compiles for bit-parallel simulation):

* node error state lives in one stacked ``(2, nodes + 1, E)`` array
  indexed by topological slot — ``p01`` and ``p10`` are its two planes,
  ``E`` is the number of eps points (the *trailing eps axis*), and the
  extra row is never written, so it reads 0.0;
* :func:`_lower_plain_groups` builds the one level-fused schedule: per
  topological level, gates are grouped by **arity** (by arity and truth
  table above ``_FUSE_MAX_ARITY`` inputs), in topological order.  Every
  gate of an arity shares the fanin-bit tensor, so gates of different
  functions evaluate together; a group keeps one shared ``(V, V)`` flip
  mask when all its gates have the same truth table and stacks per-gate
  ``(m, V, V)`` masks otherwise
  (:func:`repro.probability.error_propagation.transition_lowering`).
  Unary gates (NOT/BUF) join their level's arity-2 group, reading the
  zero row as a second fanin, so a level of arity-1 and arity-2 gates —
  every level of the catalog — is one group;
* each group carries a flat gather index that reads every fanin's
  ``p01`` or ``p10`` (by the fanin's bit in each error-free vector) in
  one ``take``; evaluating it (:func:`_eval_group`) is about a dozen
  vectorized ops over ``(2**k, gates, 2**k, E)`` — every gate, every
  error-free vector, every perturbation, and every eps point at once.

:meth:`CompiledSinglePass.run_sweep` therefore computes the entire
delta(eps) curve — including asymmetric ``eps10`` channels and per-gate
eps maps, broadcast to ``(gates, E)`` — in one pass instead of ``E``
Python passes.  That kernel implements the plain Sec. 4 independence
algorithm; parity with the scalar pass is pinned to <= 1e-12 by
``tests/test_compiled_pass.py``.  The multi-circuit
:class:`~repro.reliability.tensor_pass.TensorBatch` runs the same schedule
and the same :func:`_eval_group` over several plans at once.

:class:`CompiledCorrelatedPass` extends the same lowering to the Sec. 4.1
**correlation-corrected** pass.  On top of the plain plan it compiles the
:class:`~repro.probability.correlation.ErrorCorrelationEngine`'s lazy
per-pair coefficient state into an integer-indexed *coefficient row table*:

* structural pair discovery (a closure over the Fig. 4 expansion, using
  the same :class:`~repro.probability.correlation.PairStructure`
  classification and canonical pair ordering as the scalar engine) assigns
  every reachable ``(wire, event, wire, event)`` pair a row index;
* at run time the rows live in one dense ``(rows, E)`` matrix ``C`` —
  same-wire rows read a wire's propagated state, expansion rows execute a
  pre-lowered Fig. 4 program — evaluated in a level schedule that
  guarantees every child row and every fanin state is final before use;
* gates whose transitions reference only the constant-1 row are lowered
  by :func:`_lower_plain_groups` and run through :func:`_eval_group`
  unchanged; the remainder execute per-gate programs whose elementwise
  arithmetic (clamp/cap for clamp/cap) mirrors the scalar
  ``_correlated_transition`` over the trailing eps axis.

:class:`~repro.reliability.single_pass.SinglePassAnalyzer` dispatches to
one of the two kernels in **all** modes, keeping the scalar engine as a
parity oracle (``compiled="off"``) and as the fallback when a plan cannot
be built (oversized arity, pair budget exceeded).  Correlated parity is
pinned to <= 1e-10 on the full circuit catalog.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..circuit import Circuit, truth_table
from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..probability.correlation import PairStructure
from ..probability.error_propagation import (
    EVENT_1TO0,
    ErrorProbability,
    correlated_transition_lowering,
    transition_lowering,
)
from ..probability.weight_cache import (
    load_correlation_plan,
    store_correlation_plan,
)
from ..probability.weights import WeightData
from ..spec import (
    EpsilonSpec,
    epsilon_of,
    validate_epsilon,
    validate_sweep_specs,
)


class CompiledPassUnsupported(ValueError):
    """The circuit cannot be lowered into the vectorized kernel.

    Raised at plan-construction time (e.g. a gate arity whose ``4**k``
    transition tensors would not fit in memory); callers fall back to the
    scalar pass.
    """


#: Widest gate the kernel lowers; the per-class tensors scale as ``4**k``.
MAX_COMPILED_ARITY = 12

#: Soft cap on elements of one ``(V, gates, V, E)`` intermediate; gate
#: batches are chunked so each slice stays under roughly this many floats
#: (~128 MB at 8 bytes/element for the default).
_CHUNK_ELEMENTS = 1 << 24

#: Reserved coefficient rows of the correlated plan: every structurally
#: independent (or dropped) pair reads the constant row 1.0; a same-wire
#: cross-direction pair reads the constant row 0.0.
ROW_ONE = 0
ROW_ZERO = 1


#: Widest gate grouped across truth classes with per-gate flip masks;
#: wider gates group per truth class, since a per-gate mask costs
#: ``4**k`` floats.
_FUSE_MAX_ARITY = 6


def _group_key(arity: int, truth: Optional[Tuple[int, ...]]) -> tuple:
    """Schedule key of a gate (or group) within its level: the arity,
    plus the truth table above :data:`_FUSE_MAX_ARITY` inputs."""
    return (arity, truth if arity > _FUSE_MAX_ARITY else ())


@dataclass
class _OpGroup:
    """All same-level gates sharing one :func:`_group_key`.

    The kernel reads and writes a stacked ``(2, rows, E)`` state —
    plane 0 holds ``p01``, plane 1 ``p10``, and one row of every plan is
    never written, so it stays 0.0.  ``gather`` and ``dest`` are flat
    indices into that state: in a single-circuit plan ``rows`` is the
    node count plus that zero row; the multi-circuit tensor pass
    (:mod:`repro.reliability.tensor_pass`) concatenates same-key groups
    of several plans and re-derives both over its ``circuits * rows``
    planes.  The remaining arrays are in plan-local slots.
    """

    arity: int
    #: Node slots written by this group, shape (m,).
    slots: np.ndarray
    #: Rows into the (gates, E) local-failure matrices, shape (m,).
    eps_rows: np.ndarray
    #: Fanin node slots, shape (m, k); a gate lifted from a narrower
    #: arity reads the plan's zero row in its padded positions.
    fanin_slots: np.ndarray
    #: bits[v, t] = value of fanin t in error-free vector v, shape (V, k).
    bits: np.ndarray
    #: flip_mask[v, u] = 1.0 iff flip set u changes the output: one
    #: (V, V) mask when every gate has the same truth table, else
    #: per-gate (m, V, V).
    flip_mask: np.ndarray
    #: Weight vectors masked by output side: w_masked[b, v, m] is gate m's
    #: weight of vector v when its truth[v] == b, else 0.  Shape (2, V, m).
    w_masked: np.ndarray
    #: Total weight per side W(b), shape (2, m).
    w_side: np.ndarray
    #: Flat state row of fanin t under vector v: ``bits[v, t]`` picks the
    #: plane (p10 where the fanin reads 1, else p01).  Shape (V, m, k).
    gather: np.ndarray
    #: Flat state rows written per gate, in plane 0 and plane 1: (2, m).
    dest: np.ndarray
    #: The group's truth table when it has a single one (the shared-mask
    #: form); None for a mixed group.
    truth: Optional[Tuple[int, ...]] = field(default=None, compare=False)
    #: W(b) as a (2, m, 1) divisor, 1.0 where W(b) is 0: every masked
    #: weight is 0 there, so the weighted flip and the ratio are exactly
    #: 0 with no zero division.  Derived from ``w_side``.
    divisor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.refresh_divisor()

    def refresh_divisor(self) -> None:
        """Re-derive :attr:`divisor` after ``w_side`` changed."""
        self.divisor = np.where(self.w_side > 0.0, self.w_side,
                                1.0)[:, :, None]

    @property
    def w_masked0(self) -> np.ndarray:
        return self.w_masked[0]

    @property
    def w_masked1(self) -> np.ndarray:
        return self.w_masked[1]

    @property
    def w_side0(self) -> np.ndarray:
        return self.w_side[0]

    @property
    def w_side1(self) -> np.ndarray:
        return self.w_side[1]


class _LazyNodeErrors(MappingABC):
    """``{node: ErrorProbability}`` view over one sweep point's columns.

    Materializing every internal node's :class:`ErrorProbability` per
    point is the dominant cost of extracting large-circuit sweep results
    (thousands of tiny objects per point, almost all discarded — serve
    envelopes only keep ``per_output``).  This view defers construction
    to first access per node while behaving like the eager dict for
    every mapping operation the consumers use.
    """

    __slots__ = ("_p01", "_p10", "_j", "_names", "_index")

    def __init__(self, p01: np.ndarray, p10: np.ndarray, j: int,
                 names: List[str], index: Dict[str, int]):
        self._p01 = p01
        self._p10 = p10
        self._j = j
        self._names = names
        self._index = index

    def __getitem__(self, name: str) -> ErrorProbability:
        i = self._index[name]
        return ErrorProbability(p01=float(self._p01[i, self._j]),
                                p10=float(self._p10[i, self._j]))

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other):
        if isinstance(other, MappingABC):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other):
        result = self.__eq__(other)
        return result if result is NotImplemented else not result


@dataclass
class SweepResult:
    """A full eps sweep from the compiled (or batched scalar) pass.

    Node error state is kept in dense ``(nodes, E)`` matrices rather than
    ``E`` dicts of :class:`ErrorProbability`; :meth:`point` materializes
    the classic :class:`~repro.reliability.single_pass.SinglePassResult`
    view of one sweep point on demand.
    """

    circuit_name: str
    #: The eps specs the sweep evaluated, in order (scalars or per-gate maps).
    eps_specs: List[EpsilonSpec]
    eps10_specs: Optional[List[EpsilonSpec]]
    #: Topological node order; row i of p01/p10 is node_names[i].
    node_names: List[str]
    outputs: List[str]
    #: delta per output per eps point, shape (outputs, E).
    per_output: np.ndarray
    #: Propagated conditional error probabilities, shape (nodes, E).
    p01: np.ndarray
    p10: np.ndarray
    signal_prob: Dict[str, float]
    used_correlation: bool = False
    #: Correlation pairs per point (zero on the independence kernel; the
    #: structural pair-row count on the correlated kernel).
    correlation_pairs: Optional[np.ndarray] = None
    #: Canonical pair keys ``(a, ea, b, eb)`` of the correlated plan's
    #: expansion rows, sorted by wire ids (the deterministic order of
    #: ``ErrorCorrelationEngine.coefficient_items``); None when the sweep
    #: ran the independence kernel.
    correlation_pair_keys: Optional[List[Tuple[str, int, str, int]]] = field(
        default=None, repr=False, compare=False)
    #: Coefficient values aligned with ``correlation_pair_keys``, shape
    #: ``(pairs, E)`` — used to seed a scalar engine for any sweep point.
    correlation_coefficients: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)
    #: Time-frame count when the swept circuit is an unrolled sequential
    #: netlist (None for plain combinational sweeps).  Stamped by the
    #: analyzer/engine; :meth:`point` threads it into each materialized
    #: :class:`SinglePassResult` so per-frame views survive slicing.
    frames: Optional[int] = None
    #: ``{name: row}`` over ``node_names``.  A plan passes its own index
    #: (shared, like ``node_names`` and ``signal_prob``: read-only); built
    #: on first use otherwise.
    node_index: Optional[Dict[str, int]] = field(
        default=None, repr=False, compare=False)

    @property
    def n_points(self) -> int:
        return len(self.eps_specs)

    def delta(self, output: Optional[str] = None) -> np.ndarray:
        """delta(eps) of one output over the sweep, shape (E,)."""
        if output is None:
            if len(self.outputs) != 1:
                raise ValueError("output name required for multi-output result")
            return self.per_output[0].copy()
        return self.per_output[self.outputs.index(output)].copy()

    def curve(self, output: Optional[str] = None) -> Dict[float, float]:
        """``{eps: delta}`` for scalar eps sweeps (the classic curve API)."""
        for spec in self.eps_specs:
            if isinstance(spec, Mapping):
                raise TypeError(
                    "curve() requires scalar eps specs; use delta() for "
                    "per-gate sweeps")
        values = self.delta(output)
        return {float(e): float(v) for e, v in zip(self.eps_specs, values)}

    def _name_index(self) -> Dict[str, int]:
        if self.node_index is None:
            self.node_index = {name: i
                               for i, name in enumerate(self.node_names)}
        return self.node_index

    def point(self, j: int):
        """Materialize sweep point ``j`` as a :class:`SinglePassResult`.

        ``node_errors`` is a lazy per-node view (see
        :class:`_LazyNodeErrors`): indexing and iteration behave like the
        classic dict, but nothing is built until accessed.
        """
        from .single_pass import SinglePassResult
        node_errors = _LazyNodeErrors(self.p01, self.p10, j,
                                      self.node_names, self._name_index())
        per_output = {out: float(self.per_output[o, j])
                      for o, out in enumerate(self.outputs)}
        pairs = (0 if self.correlation_pairs is None
                 else int(self.correlation_pairs[j]))
        return SinglePassResult(
            per_output=per_output,
            node_errors=node_errors,
            signal_prob=self.signal_prob,
            used_correlation=self.used_correlation,
            correlation_pairs=pairs,
            correlation_engine=None,
            frames=self.frames,
        )


#: Output side b along the leading axis of :func:`_side_weights`' masks.
_SIDES = np.array([False, True]).reshape(2, 1, 1)


def _side_weights(side1: np.ndarray, w: np.ndarray):
    """Split per-gate weight rows ``w`` (m, V) by output side ``side1``.

    Returns ``(w_masked, w_side)`` in the :class:`_OpGroup` layout.  The
    fresh lowering and the in-place column patch both go through here, so
    their totals sum in the same order.
    """
    wm = np.where(side1 == _SIDES, w, 0.0)              # (2, m, V)
    return np.ascontiguousarray(wm.transpose(0, 2, 1)), wm.sum(axis=2)


def _lift(truth: Tuple[int, ...], w) -> Tuple[Tuple[int, ...], tuple]:
    """``(truth, weights)`` of a unary gate as an arity-2 gate whose
    second fanin reads the always-zero state row.

    The vectors where that fanin reads 1 carry weight 0 and its flip
    probability is 0, so every padded term of the kernel is an exact 0.0
    and the lifted gate's result is bit for bit its arity-1 result.
    """
    return truth + truth, (w[0], w[1], 0.0, 0.0)


def _lower_plain_groups(circuit: Circuit, weights: WeightData,
                        index: Mapping[str, int],
                        gate_row: Mapping[str, int],
                        gates: Sequence[str],
                        max_arity: int,
                        dtype: np.dtype = np.float64,
                        ) -> Dict[int, List["_OpGroup"]]:
    """Lower ``gates`` into the level-fused schedule.

    The one place that decides how plain gates are grouped: per
    topological level, by :func:`_group_key`, keeping the order of
    ``gates`` (topological) inside each group.  Unary gates (NOT/BUF)
    join their level's arity-2 group when it has one, reading the zero
    state row ``len(index)`` as their second fanin (see :func:`_lift`),
    so a level of arity-1 and arity-2 gates is one group.  A group whose
    gates share one truth table gets that class's ``(V, V)`` flip mask, a
    mixed group per-gate ``(m, V, V)`` masks.  Used by the independence
    kernel (all gates), the correlated kernel (the gates whose transition
    math references no nontrivial coefficient row) and
    :meth:`CompiledSinglePass.patch_weights` (re-lowered levels).  Returns
    ``{level: [_OpGroup, ...]}`` indexing a ``(2, len(index) + 1, E)``
    state.  ``dtype`` is the accumulator precision of the eventual sweep:
    every float array of the lowered groups is materialized in it so a
    float32 plan never smuggles float64 operands into the kernel.
    """
    dtype = np.dtype(dtype)
    zero_row = len(index)
    grouped: Dict[tuple, List[tuple]] = {}
    for gate in gates:
        node = circuit.node(gate)
        k = node.arity
        if k > max_arity:
            raise CompiledPassUnsupported(
                f"gate {gate!r} has arity {k} > {max_arity}; "
                "use the scalar pass")
        truth = truth_table(node.gate_type, k)
        grouped.setdefault((circuit.level(gate), _group_key(k, truth)),
                           []).append((
                               index[gate], gate_row[gate],
                               [index[f] for f in node.fanins], truth,
                               weights.weights[gate]))
    # Lift each level's unary gates into its arity-2 group; sorting by
    # slot restores the topological order of ``gates``.
    for level, _ in [key for key in grouped if key[1] == (1, ())]:
        binary = grouped.get((level, (2, ())))
        if binary is not None:
            for slot, row, fanins, truth, w in grouped.pop((level, (1, ()))):
                binary.append((slot, row, fanins + [zero_row],
                               *_lift(truth, w)))
            binary.sort(key=lambda member: member[0])

    levels: Dict[int, List[_OpGroup]] = {}
    for (level, (k, _)), members in sorted(grouped.items()):
        slots, eps_rows, fanins, truths, w = zip(*members)
        classes = {t: transition_lowering(t, k) for t in set(truths)}
        single = len(classes) == 1
        # transition_lowering's cache holds shared float64 arrays; astype
        # narrows a copy (or stacks a new array), never the original.
        flip_mask = (classes[truths[0]][1] if single
                     else np.stack([classes[t][1] for t in truths]))
        w_masked, w_side = _side_weights(
            np.asarray(truths, dtype=bool), np.asarray(w, dtype=dtype))
        bits = classes[truths[0]][0]
        slots = np.asarray(slots, dtype=np.intp)
        fanin_slots = np.asarray(fanins, dtype=np.intp).reshape(len(slots), k)
        levels.setdefault(level, []).append(_OpGroup(
            arity=k,
            slots=slots,
            eps_rows=np.asarray(eps_rows, dtype=np.intp),
            fanin_slots=fanin_slots,
            bits=bits,
            flip_mask=flip_mask.astype(dtype, copy=False),
            w_masked=w_masked,
            w_side=w_side,
            gather=_gather_index(bits, fanin_slots, zero_row + 1),
            dest=_dest_index(slots, zero_row + 1),
            truth=truths[0] if single else None,
        ))
    return levels


def _gather_index(bits: np.ndarray, rows: np.ndarray,
                  plane_rows: int) -> np.ndarray:
    """Flat ``(V, m, k)`` index of every fanin read into a stacked
    ``(2, plane_rows, E)`` state viewed as ``(2 * plane_rows, E)``."""
    return bits[:, None, :] * plane_rows + rows[None]


def _dest_index(rows: np.ndarray, plane_rows: int) -> np.ndarray:
    """Flat ``(2, m)`` rows of a group's outputs in both state planes."""
    return np.array([[0], [plane_rows]]) + rows


def _stack_eps(e01: np.ndarray, e10: np.ndarray) -> np.ndarray:
    """The kernel's ``(4, gates, E)`` local-failure operand:
    ``e01, e10, 1 - e10, 1 - e01``, built once per sweep."""
    return np.stack((e01, e10, 1.0 - e10, 1.0 - e01))


class CompiledSinglePass:
    """A circuit + weight data lowered for vectorized eps sweeps.

    Construct once per (circuit, weights); call :meth:`run_sweep` for each
    batch of failure-probability vectors.  The plan is read-only after
    construction and contains only numpy arrays and plain containers, so it
    pickles cleanly (process-pool fan-out) and is safe to share between
    threads.

    Parameters
    ----------
    circuit:
        Circuit under analysis.
    weights:
        Precomputed weight vectors / signal probabilities.
    input_errors:
        Optional error probabilities at the primary inputs (same initial
        conditions as the scalar pass).
    max_arity:
        Refuse (with :class:`CompiledPassUnsupported`) gates wider than
        this — the per-class tensors scale as ``4**k``.
    dtype:
        Accumulator precision of the sweep (default ``float64``).  The
        lowering materializes every float array in this dtype and the
        kernel allocates its accumulators from it, so a ``float32`` plan
        runs the whole sweep in float32 — no silent float64 up-cast.
    """

    def __init__(self, circuit: Circuit,
                 weights: WeightData,
                 input_errors: Optional[Mapping[str, ErrorProbability]] = None,
                 max_arity: int = MAX_COMPILED_ARITY,
                 dtype: np.dtype = np.float64):
        circuit.validate()
        self.circuit = circuit
        self.weights = weights
        self.dtype = np.dtype(dtype)
        #: Bumped by every :meth:`patch_weights`; anything derived from
        #: the lowered arrays (a merged tensor batch) keys on it.
        self.version = 0
        with trace_span("compiled_pass.compile", circuit=circuit.name):
            order = circuit.topological_order()
            self.node_names: List[str] = order
            self.index: Dict[str, int] = {n: i for i, n in enumerate(order)}
            gates = circuit.topological_gates()
            self.gate_names: List[str] = gates
            gate_row = {g: i for i, g in enumerate(gates)}
            self._gate_row = gate_row
            self.max_arity = max_arity

            #: (slot, ErrorProbability) rows seeded from input_errors.
            self.input_error_rows: List[Tuple[int, ErrorProbability]] = [
                (self.index[name], ep)
                for name, ep in dict(input_errors or {}).items()]

            levels = _lower_plain_groups(circuit, weights, self.index,
                                         gate_row, gates, max_arity,
                                         dtype=self.dtype)
            #: Topological level value of ``self.levels[i]``.
            self.level_values: List[int] = sorted(levels)
            self.levels: List[List[_OpGroup]] = [
                levels[lv] for lv in self.level_values]
            self.num_groups = sum(len(g) for g in self.levels)

            self.output_slots = np.asarray(
                [self.index[o] for o in circuit.outputs], dtype=np.intp)
            self._snapshot_weights(weights)
        if obs_metrics.is_enabled():
            obs_metrics.inc("compiled_pass.compiles", circuit=circuit.name)
            obs_metrics.set_gauge("compiled_pass.groups", self.num_groups,
                                  circuit=circuit.name)

    def _snapshot_weights(self, weights: WeightData) -> None:
        """Per-plan copies every sweep result shares (read-only): the
        signal probabilities and the outputs' Pr[1]."""
        self.signal_prob: Dict[str, float] = dict(weights.signal_prob)
        self.output_prob1 = np.asarray(
            [weights.signal_prob[o] for o in self.circuit.outputs],
            dtype=self.dtype)

    # ------------------------------------------------------------------
    def patch_weights(self, circuit: Circuit, weights: WeightData,
                      changed_gates: Sequence[str] = (),
                      retruthed_gates: Sequence[str] = ()) -> bool:
        """Update the lowered arrays in place after a node-set-preserving edit.

        ``changed_gates`` are gates whose weight vectors changed (their
        fanin cones were edited); ``retruthed_gates`` are gates whose truth
        table itself changed (a type-only ``swap_gate``).  The former are a
        pure column rewrite; the latter can change their group's mask form
        (or, above ``_FUSE_MAX_ARITY``, their group), so their entire
        topological level is re-lowered through :func:`_lower_plain_groups`
        — reproducing, group for group and float for float, what a fresh
        compile would build for that level.  Each patch bumps
        :attr:`version`.

        Returns ``False`` (leaving the plan untouched) when the circuit's
        node set or topological order differs from the compiled one; the
        caller then falls back to a full re-lower.
        """
        if (circuit.topological_order() != self.node_names
                or circuit.topological_gates() != self.gate_names):
            return False
        retruthed = set(retruthed_gates)
        relower_levels = {circuit.level(g) for g in retruthed}
        changed = {g for g in changed_gates
                   if circuit.level(g) not in relower_levels} - retruthed
        with trace_span("compiled_pass.patch", circuit=circuit.name,
                        changed=len(changed), relevel=len(relower_levels)):
            if relower_levels:
                level_gates = [g for g in self.gate_names
                               if circuit.level(g) in relower_levels]
                try:
                    lowered = _lower_plain_groups(
                        circuit, weights, self.index, self._gate_row,
                        level_gates, self.max_arity, dtype=self.dtype)
                except CompiledPassUnsupported:
                    return False
                for lv, groups in lowered.items():
                    self.levels[self.level_values.index(lv)] = groups
                self.num_groups = sum(len(g) for g in self.levels)
            if changed:
                targets = {self.index[g]: g for g in changed}
                for level_groups in self.levels:
                    for group in level_groups:
                        cols = [col for col, slot in enumerate(group.slots)
                                if int(slot) in targets]
                        for col in cols:
                            gate = targets[int(group.slots[col])]
                            node = circuit.node(gate)
                            truth = truth_table(node.gate_type, node.arity)
                            w = weights.weights[gate]
                            if node.arity < group.arity:
                                truth, w = _lift(truth, w)
                            w_masked, w_side = _side_weights(
                                np.asarray(truth, dtype=bool)[None],
                                np.asarray(w, dtype=self.dtype)[None])
                            group.w_masked[:, :, col] = w_masked[:, :, 0]
                            group.w_side[:, col] = w_side[:, 0]
                        if cols:
                            group.refresh_divisor()
            self.circuit = circuit
            self.weights = weights
            self._snapshot_weights(weights)
            self.version += 1
        if obs_metrics.is_enabled():
            obs_metrics.inc("compiled_pass.patches", circuit=circuit.name)
        return True

    def _eps_matrix(self, specs: Sequence[EpsilonSpec]) -> np.ndarray:
        """Broadcast a batch of eps specs to a dense (gates, E) matrix."""
        return _eps_matrix(self.gate_names, specs, dtype=self.dtype)

    def run(self, eps: EpsilonSpec,
            eps10: Optional[EpsilonSpec] = None) -> SweepResult:
        """One-point convenience wrapper around :meth:`run_sweep`."""
        return self.run_sweep([eps], None if eps10 is None else [eps10])

    def run_sweep(self, eps_specs: Sequence[EpsilonSpec],
                  eps10_specs: Optional[Sequence[EpsilonSpec]] = None
                  ) -> SweepResult:
        """Evaluate the propagation pass for every eps point at once.

        ``eps_specs`` is a sequence of failure-probability vectors (scalars
        or per-gate maps); ``eps10_specs``, when given, must have the same
        length and makes every gate's local channel asymmetric exactly as
        in :meth:`SinglePassAnalyzer.run`.
        """
        specs, eps10_list = _validated_specs(self.circuit, eps_specs,
                                             eps10_specs)
        n_nodes = len(self.node_names)
        n_points = len(specs)
        with trace_span("compiled_pass.run_sweep", circuit=self.circuit.name,
                        points=n_points):
            e01 = self._eps_matrix(specs)
            e10 = e01 if eps10_list is None else self._eps_matrix(eps10_list)
            eps = _stack_eps(e01, e10)
            # p01 / p10 planes plus the zero row lifted gates read.
            state = np.zeros((2, n_nodes + 1, n_points), dtype=self.dtype)
            for slot, ep in self.input_error_rows:
                state[:, slot] = ((ep.p01,), (ep.p10,))
            flat = state.reshape(-1, n_points)
            for level_groups in self.levels:
                for group in level_groups:
                    _eval_group(group, flat, eps)
            p01 = state[0, :n_nodes]
            p10 = state[1, :n_nodes]
            per_output = ((1.0 - self.output_prob1)[:, None]
                          * p01[self.output_slots]
                          + self.output_prob1[:, None]
                          * p10[self.output_slots])
        if obs_metrics.is_enabled():
            labels = {"circuit": self.circuit.name}
            obs_metrics.inc("compiled_pass.sweeps", **labels)
            obs_metrics.inc("compiled_pass.points", n_points, **labels)
            obs_metrics.inc("compiled_pass.gate_evals",
                            len(self.gate_names) * n_points, **labels)
        return SweepResult(
            circuit_name=self.circuit.name,
            eps_specs=specs,
            eps10_specs=eps10_list,
            node_names=self.node_names,
            outputs=list(self.circuit.outputs),
            per_output=per_output,
            p01=p01,
            p10=p10,
            signal_prob=self.signal_prob,
            used_correlation=False,
            correlation_pairs=np.zeros(n_points, dtype=np.int64),
            node_index=self.index,
        )


def _eval_group(group: _OpGroup, state: np.ndarray, eps: np.ndarray) -> None:
    """Evaluate one gate group over the eps axis — the only plain kernel.

    ``state`` is the stacked ``(2, rows, E)`` p01/p10 state viewed flat as
    ``(2 * rows, E)``; the group's rows are written in place.  ``eps`` is
    the sweep's :func:`_stack_eps` operand.  Shared by
    :class:`CompiledSinglePass`, the tensor pass and the correlated pass's
    plain gates.
    """
    n_vec, k = group.bits.shape               # V = 2**k
    m = len(group.eps_rows)
    n_eps = state.shape[1]
    pw = np.empty((2, m, n_eps), dtype=state.dtype)
    # Chunk the gate batch so the (V, chunk, V, E) intermediate stays small.
    rows = max(1, _CHUNK_ELEMENTS // max(1, n_vec * n_vec * n_eps))
    for start in range(0, m, rows):
        sl = slice(start, start + rows)
        # Per-fanin flip probability under each error-free vector v: the
        # scalar pass's probs[t][events[t]], p01 or p10 by the fanin's
        # bit (folded into the gather).  Shape (V, mc, k, E).
        p = state.take(group.gather[:, sl], axis=0)[:, :, :, None]
        q = np.concatenate((1.0 - p, p), axis=3)    # (V, mc, k, 2, E)
        # Distribution over flip sets u (bit t of u flips fanin t): the
        # left-associated outer product of the per-fanin (1-p, p) pairs.
        r = q[:, :, 0]
        for t in range(1, k):
            r = (q[:, :, t, :, None] * r[:, :, None]).reshape(
                n_vec, -1, 1 << (t + 1), n_eps)
        # Total probability that fanin errors flip the output, per v —
        # with a per-gate mask when the group mixes truth classes.
        if group.flip_mask.ndim == 3:
            flip = np.einsum("vmue,mvu->vme", r, group.flip_mask[sl])
        else:
            flip = np.einsum("vmue,vu->vme", r, group.flip_mask)
        np.minimum(flip, 1.0, out=flip)
        # Weighted components PW(b) = sum_v W[v] * flip[v] over side b.
        np.einsum("bvm,vme->bme", group.w_masked[:, :, sl], flip,
                  out=pw[:, sl])

    # Fold in the local failure channel: item (iii) of the paper's Sec. 4,
    # identical to combine_with_local_failure but over the whole batch:
    # out01 = r0 (1 - e10) + (1 - r0) e01, out10 = r1 (1 - e01) + (1 - r1) e10.
    ratio = pw / group.divisor
    np.minimum(ratio, 1.0, out=ratio)
    e = eps.take(group.eps_rows, axis=1)
    state[group.dest] = ratio * e[2:] + (1.0 - ratio) * e[:2]


# ======================================================================
# Correlated kernel (Sec. 4.1)
# ======================================================================

def _eps_matrix(gate_names: Sequence[str],
                specs: Sequence[EpsilonSpec],
                dtype: np.dtype = np.float64) -> np.ndarray:
    """Broadcast a batch of eps specs to a dense (gates, E) matrix."""
    mat = np.empty((len(gate_names), len(specs)), dtype=dtype)
    for j, spec in enumerate(specs):
        if isinstance(spec, Mapping):
            mat[:, j] = [epsilon_of(spec, g) for g in gate_names]
        else:
            mat[:, j] = float(spec)
    return mat


#: Shared sweep-argument validation of both kernels (canonical home:
#: :func:`repro.spec.validate_sweep_specs`).
_validated_specs = validate_sweep_specs


@dataclass
class _CorrGateProgram:
    """One gate whose transition math references nontrivial coefficient rows.

    ``vprogs`` holds one ``(weight, b, fetch, perts)`` tuple per active
    error-free input vector, in ascending-vector order (the scalar
    accumulation order):

    * ``fetch`` — ``(position, fanin_slot, is10)`` state reads;
    * ``perts`` — ``(flip_ops, pair_rows, nf_ops)`` per output-flipping
      perturbation: flip positions with their conditioning coefficient row
      (-1 when none), the capped pairwise rows among the flips, and the
      non-flipping positions with their coefficient-row scale chains.
    """

    slot: int
    eps_row: int
    k: int
    w_side0: float
    w_side1: float
    vprogs: List[tuple]


@dataclass
class _ExpandProgram:
    """One coefficient row: the Fig. 4 expansion of pair ``(a, ea | b, eb)``.

    Mirrors :meth:`ErrorCorrelationEngine._expand` elementwise: run the
    conditioned transition programs of the side-``ea`` input vectors of
    ``a``'s gate, fold in the local failure channel, divide by ``a``'s
    marginal and apply the feasibility/overflow caps.
    """

    row: int
    a_slot: int
    ea: int
    b_slot: int
    eb: int
    eps_row: int
    k: int
    w_side: float
    vprogs: List[tuple]


def _flip_probability(k: int, fetch: tuple, perts: tuple,
                      p01: np.ndarray, p10: np.ndarray,
                      C: np.ndarray) -> np.ndarray:
    """Total output-flip probability of one input vector, shape (E,).

    Elementwise replica of the scalar ``_correlated_transition`` summed
    over the vector's perturbations: identical operation order, with
    ``np.minimum``/``np.maximum`` standing in for the scalar clamps and
    caps, so the two paths agree to float rounding.  Coefficient rows equal
    to the constant 1.0 are dropped at plan-build time (multiplying by an
    exact 1.0 is the identity, and every cap they could trigger is already
    implied by the running invariants).
    """
    p = [None] * k
    for t, slot, is10 in fetch:
        p[t] = p10[slot] if is10 else p01[slot]
    total = None
    for flip_ops, pair_rows, nf_ops in perts:
        term = None
        if pair_rows:
            min_flip = None
            for t, cr in flip_ops:
                pt = p[t]
                if cr >= 0:
                    pt = np.minimum(pt * C[cr], 1.0)
                if term is None:
                    term = pt
                    min_flip = pt
                else:
                    term = term * pt
                    min_flip = np.minimum(min_flip, pt)
            for r in pair_rows:
                term = np.minimum(term * C[r], 1e12)
            # Feasibility: the joint of all flips cannot exceed any single
            # flip probability (same cap as the scalar pass).
            term = np.minimum(term, min_flip)
        else:
            for t, cr in flip_ops:
                pt = p[t]
                if cr >= 0:
                    pt = np.minimum(pt * C[cr], 1.0)
                term = pt if term is None else term * pt
        for t, rows in nf_ops:
            pt = p[t]
            if rows:
                scale = C[rows[0]]
                for r in rows[1:]:
                    scale = np.minimum(scale * C[r], 1e12)
                pt = np.minimum(pt * scale, 1.0)
            term = term * (1.0 - pt)
        total = term if total is None else total + term
    return total


def _eval_corr_gate(gp: _CorrGateProgram, p01: np.ndarray, p10: np.ndarray,
                    C: np.ndarray, e01g: np.ndarray,
                    e10g: np.ndarray) -> None:
    """Propagate one correlated gate over the eps axis (state update)."""
    pw0 = None
    pw1 = None
    for wv, b, fetch, perts in gp.vprogs:
        contrib = wv * np.minimum(
            1.0, _flip_probability(gp.k, fetch, perts, p01, p10, C))
        if b:
            pw1 = contrib if pw1 is None else pw1 + contrib
        else:
            pw0 = contrib if pw0 is None else pw0 + contrib
    if pw0 is not None and gp.w_side0 > 0.0:
        r0 = np.minimum(pw0 / gp.w_side0, 1.0)
        p01[gp.slot] = r0 * (1.0 - e10g) + (1.0 - r0) * e01g
    else:
        p01[gp.slot] = e01g
    if pw1 is not None and gp.w_side1 > 0.0:
        r1 = np.minimum(pw1 / gp.w_side1, 1.0)
        p10[gp.slot] = r1 * (1.0 - e01g) + (1.0 - r1) * e10g
    else:
        p10[gp.slot] = e10g


def _eval_expand(xp: _ExpandProgram, p01: np.ndarray, p10: np.ndarray,
                 C: np.ndarray, e01g: np.ndarray, e10g: np.ndarray) -> None:
    """Fill one expansion coefficient row for every eps point."""
    pw = None
    for wv, fetch, perts in xp.vprogs:
        contrib = wv * np.minimum(
            1.0, _flip_probability(xp.k, fetch, perts, p01, p10, C))
        pw = contrib if pw is None else pw + contrib
    local = e01g if xp.ea == 0 else e10g
    if pw is not None and xp.w_side > 0.0:
        r = np.minimum(pw / xp.w_side, 1.0)
        conditional = local + r * ((1.0 - e01g) - e10g)
        conditional = np.minimum(np.maximum(conditional, 0.0), 1.0)
    else:
        conditional = local
    marginal = (p01 if xp.ea == 0 else p10)[xp.a_slot]
    p_b = (p01 if xp.eb == 0 else p10)[xp.b_slot]
    # Degenerate lanes (zero/denormal marginals) read 1.0 exactly as the
    # scalar engine's early returns; `where` keeps their divisions safe.
    valid = (marginal > 1e-300) & (p_b > 0.0)
    coef = conditional / np.where(valid, marginal, 1.0)
    cap = 1.0 / np.where(valid, np.maximum(marginal, p_b), 1.0)
    coef = np.minimum(coef, cap)
    coef = np.maximum(0.0, np.minimum(coef, 1e9))
    C[xp.row] = np.where(valid, coef, 1.0)


class CompiledCorrelatedPass:
    """Circuit + weights lowered for vectorized correlation-corrected sweeps.

    The Sec. 4.1 engine's state — one lazily-memoized coefficient per
    ``(wire, event, wire, event)`` pair — is lowered at plan time into an
    integer-indexed row table; :meth:`run_sweep` then evaluates the entire
    corrected pass, coefficients included, with a trailing eps axis.

    Plan construction discovers the structural closure of the Fig. 4
    recursion: building each gate's transition program queries the
    coefficient rows it needs, and each new expansion row is queued until
    its own program is built.  The recursion is well-founded because a
    canonical pair always expands its topologically *later* wire through
    its gate, so every referenced pair is strictly earlier — which also
    makes the discovered set (and the coefficient values) independent of
    query order, the contract shared with the scalar engine via
    :class:`~repro.probability.correlation.PairStructure`.

    Parameters mirror the analyzer's correlation knobs: ``max_pairs``
    bounds the expansion-row count (beyond it the plan refuses with
    :class:`CompiledPassUnsupported` and the analyzer falls back to the
    scalar engine's per-query budget degradation), ``max_level_gap`` is
    the Sec. 4.1 locality cap, and ``cache_dir`` persists the discovered
    pair table across processes (see
    :func:`repro.probability.weight_cache.store_correlation_plan`).
    """

    def __init__(self, circuit: Circuit,
                 weights: WeightData,
                 input_errors: Optional[Mapping[str, ErrorProbability]] = None,
                 max_arity: int = MAX_COMPILED_ARITY,
                 max_pairs: int = 1_000_000,
                 max_level_gap: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 structure: Optional[PairStructure] = None):
        circuit.validate()
        self.circuit = circuit
        self.weights = weights
        self.max_pairs = max_pairs
        self.max_level_gap = max_level_gap
        with trace_span("compiled_pass.compile_correlated",
                        circuit=circuit.name):
            self._compile(dict(input_errors or {}), max_arity, cache_dir,
                          structure)
        if obs_metrics.is_enabled():
            obs_metrics.inc("compiled_pass.correlated_compiles",
                            circuit=circuit.name)
            obs_metrics.set_gauge("compiled_pass.coefficient_rows",
                                  self.n_rows, circuit=circuit.name)

    # -- plan construction ---------------------------------------------
    def _compile(self, input_errors, max_arity, cache_dir,
                 structure=None) -> None:
        circuit = self.circuit
        order = circuit.topological_order()
        self.node_names: List[str] = order
        self.index: Dict[str, int] = {n: i for i, n in enumerate(order)}
        gates = circuit.topological_gates()
        self.gate_names: List[str] = gates
        self._gate_row = {g: i for i, g in enumerate(gates)}
        self.input_error_rows: List[Tuple[int, ErrorProbability]] = [
            (self.index[name], ep) for name, ep in input_errors.items()]
        # A caller holding a still-valid PairStructure (same circuit
        # structure, same level-gap cap — e.g. an incremental workspace
        # re-lowering after a type-only swap) can pass it in to skip the
        # support-bitset recomputation.
        self.structure = (structure if structure is not None
                          else PairStructure(
                              circuit, max_level_gap=self.max_level_gap))

        # Wires whose error probability is identically zero at every eps
        # point: constants and noise-free primary inputs.  Their pruning in
        # the lowering mirrors the scalar pass's zero-probability exits.
        self._error_free = set()
        for name in order:
            if circuit.node(name).gate_type.is_logic:
                continue
            ep = input_errors.get(name)
            if ep is None or (ep.p01 == 0.0 and ep.p10 == 0.0):
                self._error_free.add(name)

        self._same_index: Dict[Tuple[str, int], int] = {}
        self._same_rows: List[Tuple[int, int, int, str]] = []
        self._row_index: Dict[Tuple[str, int, str, int], int] = {}
        self._pending = deque()
        self.n_rows = 2  # rows 0/1 are the 1.0 / 0.0 constants

        cached_plan = None
        if cache_dir is not None:
            cached_plan = load_correlation_plan(
                cache_dir, circuit, self.max_level_gap, self.max_pairs)
        if cached_plan is not None and cached_plan.get("unsupported"):
            raise CompiledPassUnsupported(
                f"correlated pair budget ({self.max_pairs}) exceeded for "
                f"{circuit.name!r} (cached plan)")
        if cached_plan is not None:
            # Seed the row index so discovery short-circuits its structural
            # classification; the closure below still builds every program.
            for a_slot, ea, b_slot, eb in cached_plan["pairs"]:
                key = (order[a_slot], int(ea), order[b_slot], int(eb))
                self._row_index[key] = self.n_rows
                self._pending.append((self.n_rows, key))
                self.n_rows += 1

        try:
            plain_gates: List[str] = []
            corr_progs: List[Tuple[int, _CorrGateProgram]] = []
            for gate in gates:
                node = circuit.node(gate)
                if node.arity > max_arity:
                    raise CompiledPassUnsupported(
                        f"gate {gate!r} has arity {node.arity} > {max_arity};"
                        " use the scalar pass")
                prog = self._gate_program(gate, node)
                if prog is None:
                    plain_gates.append(gate)
                else:
                    corr_progs.append((circuit.level(gate), prog))
            expand_progs: List[_ExpandProgram] = []
            while self._pending:
                row, (a, ea, b, eb) = self._pending.popleft()
                expand_progs.append(self._expand_program(row, a, ea, b, eb))
        except CompiledPassUnsupported:
            if cache_dir is not None and cached_plan is None:
                store_correlation_plan(cache_dir, circuit,
                                       self.max_level_gap, self.max_pairs,
                                       unsupported=True)
            raise
        if cache_dir is not None and cached_plan is None:
            store_correlation_plan(
                cache_dir, circuit, self.max_level_gap, self.max_pairs,
                pairs=[(self.index[a], ea, self.index[b], eb)
                       for (a, ea, b, eb) in sorted(self._row_index)])

        # -- level schedule --------------------------------------------
        # Per level: plain groups, then correlated gates (state of level L
        # is final after these), then same-wire rows (state reads only),
        # then expansion rows sorted child-before-parent (a child pair's
        # canonical later wire is strictly topologically earlier).
        st = self.structure
        plain_levels = _lower_plain_groups(
            circuit, self.weights, self.index, self._gate_row,
            plain_gates, max_arity)
        corr_by_level: Dict[int, List[_CorrGateProgram]] = {}
        for level, prog in corr_progs:
            corr_by_level.setdefault(level, []).append(prog)
        same_by_level: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for row, slot, ev, wire in self._same_rows:
            same_by_level.setdefault(st.level[wire], []).append(
                (row, slot, ev, st.topo_pos[wire]))
        for rows in same_by_level.values():
            rows.sort(key=lambda r: (r[3], r[2]))
        expand_by_level: Dict[int, List[tuple]] = {}
        for xp in expand_progs:
            a = self.node_names[xp.a_slot]
            b = self.node_names[xp.b_slot]
            lv = max(st.level[a], st.level[b])
            expand_by_level.setdefault(lv, []).append(
                (st.topo_pos[a], xp.ea, st.topo_pos[b], xp.eb, xp))
        for items in expand_by_level.values():
            items.sort(key=lambda it: it[:4])
        self._schedule: List[tuple] = []
        for lv in sorted(set(plain_levels) | set(corr_by_level)
                         | set(same_by_level) | set(expand_by_level)):
            self._schedule.append((
                tuple(plain_levels.get(lv, ())),
                tuple(corr_by_level.get(lv, ())),
                tuple((r, s, e) for r, s, e, _ in same_by_level.get(lv, ())),
                tuple(it[4] for it in expand_by_level.get(lv, ())),
            ))

        self.n_pair_rows = len(self._row_index)
        self.num_corr_gates = len(corr_progs)
        items = sorted(self._row_index.items())
        #: Canonical pair keys, sorted by wire ids (the deterministic
        #: iteration contract of ErrorCorrelationEngine.coefficient_items).
        self.pair_keys: List[Tuple[str, int, str, int]] = [
            key for key, _ in items]
        self._pair_rows_order = np.asarray([row for _, row in items],
                                           dtype=np.intp)

        self.output_slots = np.asarray(
            [self.index[o] for o in circuit.outputs], dtype=np.intp)
        self.output_prob1 = np.asarray(
            [self.weights.signal_prob[o] for o in circuit.outputs],
            dtype=np.float64)

    # ------------------------------------------------------------------
    def _row_of(self, a: str, ea: int, b: str, eb: int) -> int:
        """Coefficient row index for the joint (a: ea, b: eb) events.

        Mirrors the scalar engine's classification in the same order:
        same-wire, disjoint supports, canonicalization, level gap; anything
        left is an expansion row, created (and queued for program
        construction) on first sight.
        """
        if a == b:
            if ea != eb:
                return ROW_ZERO
            skey = (a, ea)
            row = self._same_index.get(skey)
            if row is None:
                row = self.n_rows
                self.n_rows += 1
                self._same_index[skey] = row
                self._same_rows.append((row, self.index[a], ea, a))
            return row
        st = self.structure
        key = st.canonical(a, ea, b, eb)
        row = self._row_index.get(key)
        if row is not None:
            return row
        if not st.overlaps(a, b):
            return ROW_ONE
        if st.gapped(key[0], key[2]):
            return ROW_ONE
        if not self.circuit.node(key[0]).gate_type.is_logic:
            return ROW_ONE  # cannot happen for a canonical later wire
        if len(self._row_index) >= self.max_pairs:
            raise CompiledPassUnsupported(
                f"correlated pair budget ({self.max_pairs}) exceeded while "
                f"lowering {self.circuit.name!r}; use the scalar pass")
        row = self.n_rows
        self.n_rows += 1
        self._row_index[key] = row
        self._pending.append((row, key))
        return row

    def _instance_masks(self, node, w) -> Tuple[int, int]:
        """(active input vectors, error-free fanin positions) bitmasks."""
        active = 0
        for v, wv in enumerate(w):
            if wv != 0.0:
                active |= 1 << v
        errfree = 0
        for t, f in enumerate(node.fanins):
            if f in self._error_free:
                errfree |= 1 << t
        return active, errfree

    def _vector_program(self, fanins, events, perts,
                        cond: Optional[Tuple[str, int]]):
        """Lower one input vector's perturbations to row-indexed programs.

        Returns ``(fetch, pert_progs, nontrivial)`` where ``nontrivial``
        reports whether any referenced coefficient row differs from the
        constant 1.0 (a gate whose vectors are all trivial runs on the
        batched independence kernel instead).
        """
        pair_memo: Dict[Tuple[int, int], int] = {}

        def prow(i: int, j: int) -> int:
            pkey = (i, j) if i < j else (j, i)
            r = pair_memo.get(pkey)
            if r is None:
                r = self._row_of(fanins[pkey[0]], events[pkey[0]],
                                 fanins[pkey[1]], events[pkey[1]])
                pair_memo[pkey] = r
            return r

        cond_memo: Dict[int, int] = {}

        def crow(t: int) -> int:
            r = cond_memo.get(t)
            if r is None:
                r = self._row_of(fanins[t], events[t], cond[0], cond[1])
                cond_memo[t] = r
            return r

        pert_progs = []
        positions = set()
        for flips, nonflips in perts:
            flip_ops = []
            for t in flips:
                cr = -1
                if cond is not None:
                    c = crow(t)
                    if c != ROW_ONE:
                        cr = c
                flip_ops.append((t, cr))
                positions.add(t)
            pair_rows = []
            n = len(flips)
            for ai in range(n):
                for bi in range(ai + 1, n):
                    r = prow(flips[ai], flips[bi])
                    if r != ROW_ONE:
                        pair_rows.append(r)
            nf_ops = []
            for t in nonflips:
                rows = []
                if cond is not None:
                    c = crow(t)
                    if c != ROW_ONE:
                        rows.append(c)
                for u in flips:
                    r = prow(t, u)
                    if r != ROW_ONE:
                        rows.append(r)
                nf_ops.append((t, tuple(rows)))
                positions.add(t)
            pert_progs.append((tuple(flip_ops), tuple(pair_rows),
                               tuple(nf_ops)))
        nontrivial = (any(r != ROW_ONE for r in pair_memo.values())
                      or any(r != ROW_ONE for r in cond_memo.values()))
        fetch = tuple((t, self.index[fanins[t]], events[t] == EVENT_1TO0)
                      for t in sorted(positions))
        return fetch, tuple(pert_progs), nontrivial

    def _gate_program(self, gate: str, node) -> Optional[_CorrGateProgram]:
        """Lower one gate's correlated transition; None when vacuous."""
        k = node.arity
        truth = truth_table(node.gate_type, k)
        w = [float(x) for x in self.weights.weights[gate]]
        active, errfree = self._instance_masks(node, w)
        lowered = correlated_transition_lowering(truth, k, active, errfree)
        nontrivial = False
        vprogs = []
        for v, b, events, perts in lowered:
            fetch, pert_progs, used = self._vector_program(
                node.fanins, events, perts, cond=None)
            nontrivial = nontrivial or used
            vprogs.append((w[v], b, fetch, pert_progs))
        if not nontrivial:
            return None
        w0 = 0.0
        w1 = 0.0
        for v, wv in enumerate(w):
            if truth[v]:
                w1 += wv
            else:
                w0 += wv
        return _CorrGateProgram(slot=self.index[gate],
                                eps_row=self._gate_row[gate],
                                k=k, w_side0=w0, w_side1=w1, vprogs=vprogs)

    def _expand_program(self, row: int, a: str, ea: int,
                        b: str, eb: int) -> _ExpandProgram:
        """Lower one coefficient row's Fig. 4 expansion program."""
        node = self.circuit.node(a)
        k = node.arity
        truth = truth_table(node.gate_type, k)
        w = [float(x) for x in self.weights.weights[a]]
        active, errfree = self._instance_masks(node, w)
        lowered = correlated_transition_lowering(truth, k, active, errfree)
        side = 0 if ea == 0 else 1
        w_side = 0.0
        for v, wv in enumerate(w):
            if truth[v] == side:
                w_side += wv
        vprogs = []
        for v, b_out, events, perts in lowered:
            if b_out != side:
                continue
            fetch, pert_progs, _ = self._vector_program(
                node.fanins, events, perts, cond=(b, eb))
            vprogs.append((w[v], fetch, pert_progs))
        return _ExpandProgram(row=row, a_slot=self.index[a], ea=ea,
                              b_slot=self.index[b], eb=eb,
                              eps_row=self._gate_row[a], k=k,
                              w_side=w_side, vprogs=vprogs)

    # -- execution ------------------------------------------------------
    def run(self, eps: EpsilonSpec,
            eps10: Optional[EpsilonSpec] = None) -> SweepResult:
        """One-point convenience wrapper around :meth:`run_sweep`."""
        return self.run_sweep([eps], None if eps10 is None else [eps10])

    def run_sweep(self, eps_specs: Sequence[EpsilonSpec],
                  eps10_specs: Optional[Sequence[EpsilonSpec]] = None
                  ) -> SweepResult:
        """Evaluate the corrected pass for every eps point at once."""
        specs, eps10_list = _validated_specs(self.circuit, eps_specs,
                                             eps10_specs)
        n_nodes = len(self.node_names)
        n_points = len(specs)
        with trace_span("compiled_pass.run_sweep_correlated",
                        circuit=self.circuit.name, points=n_points):
            e01 = _eps_matrix(self.gate_names, specs)
            e10 = (e01 if eps10_list is None
                   else _eps_matrix(self.gate_names, eps10_list))
            eps = _stack_eps(e01, e10)
            state = np.zeros((2, n_nodes + 1, n_points), dtype=np.float64)
            for slot, ep in self.input_error_rows:
                state[:, slot] = ((ep.p01,), (ep.p10,))
            flat = state.reshape(-1, n_points)
            p01, p10 = state
            C = np.empty((self.n_rows, n_points), dtype=np.float64)
            C[ROW_ONE] = 1.0
            C[ROW_ZERO] = 0.0
            for plain_groups, corr_gates, same_rows, expand_rows \
                    in self._schedule:
                for group in plain_groups:
                    _eval_group(group, flat, eps)
                for gp in corr_gates:
                    _eval_corr_gate(gp, p01, p10, C,
                                    e01[gp.eps_row], e10[gp.eps_row])
                for row, slot, ev in same_rows:
                    pval = (p01 if ev == 0 else p10)[slot]
                    big = pval > 1e-9
                    C[row] = np.where(
                        big,
                        np.minimum(1.0 / np.where(big, pval, 1.0), 1e9),
                        np.where(pval > 0.0, 1e9, 1.0))
                for xp in expand_rows:
                    _eval_expand(xp, p01, p10, C,
                                 e01[xp.eps_row], e10[xp.eps_row])
            per_output = ((1.0 - self.output_prob1)[:, None]
                          * p01[self.output_slots]
                          + self.output_prob1[:, None]
                          * p10[self.output_slots])
            p01 = p01[:n_nodes]
            p10 = p10[:n_nodes]
        if obs_metrics.is_enabled():
            labels = {"circuit": self.circuit.name}
            obs_metrics.inc("compiled_pass.correlated_sweeps", **labels)
            obs_metrics.inc("compiled_pass.points", n_points, **labels)
            obs_metrics.inc("compiled_pass.gate_evals",
                            len(self.gate_names) * n_points, **labels)
            obs_metrics.inc("correlation.pairs_tracked",
                            self.n_pair_rows * n_points, **labels)
        coefficients = (C[self._pair_rows_order] if self.n_pair_rows
                        else np.empty((0, n_points), dtype=np.float64))
        return SweepResult(
            circuit_name=self.circuit.name,
            eps_specs=specs,
            eps10_specs=eps10_list,
            node_names=self.node_names,
            outputs=list(self.circuit.outputs),
            per_output=per_output,
            p01=p01,
            p10=p10,
            signal_prob=dict(self.weights.signal_prob),
            used_correlation=True,
            correlation_pairs=np.full(n_points, self.n_pair_rows,
                                      dtype=np.int64),
            correlation_pair_keys=list(self.pair_keys),
            correlation_coefficients=coefficients,
            node_index=self.index,
        )
