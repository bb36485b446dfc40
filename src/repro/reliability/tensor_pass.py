"""Multi-circuit tensor kernel: one padded sweep over a batch of plans.

The compiled single-circuit kernel (:class:`~repro.reliability.
compiled_pass.CompiledSinglePass`) already evaluates every eps point of
one circuit in a single level-fused array pass.  Production traffic,
though, is many *different* circuits at once — and N back-to-back kernel
invocations serialize on the GIL, repay the per-group dispatch overhead
N times, and run each circuit's (often small) gate batches far below the
vector widths the arrays could sustain.

:class:`TensorBatch` removes the per-circuit axis from the dispatch.  It
pads a batch of compiled plans into one stacked ``(2, circuit, row,
eps)`` state (the p01 and p10 planes, each circuit's block one row wider
than the widest circuit) and runs their schedules as one:

* circuits are aligned by topological level **position** — level ``i``
  of the merged schedule runs level ``i`` of every plan that has one
  (correct because circuits are independent: a gate only ever reads
  state of its own circuit's earlier levels);
* within a level, the plans' groups with the same schedule key (see
  :func:`~repro.reliability.compiled_pass._group_key`) are concatenated
  gate-wise, and their flat gather and write indices are re-derived with
  each circuit's block offset, so every gate reads and writes its own
  circuit's rows.  The merged group keeps a shared flip mask only when
  every part is the same single truth class, so a NAND2 from circuit 3
  and a NOR2 from circuit 11 evaluate in the same einsum;
* the row axis is padded; pad rows are **inactive by construction** —
  no merged group ever writes them, so they stay at their zero
  initialization and masking is free (the waste is surfaced as
  :attr:`pad_waste_rows`).  Row ``len(node_names)`` of each circuit is
  always a pad row, so it is that plan's zero row: the padded fanin of
  its lifted NOT/BUF gates;
* eps batches of different lengths are padded by replicating each
  circuit's last column; pad columns compute harmless duplicate values
  that are sliced away before results are returned.

Gate-level arithmetic is the single-circuit kernel's —
:func:`~repro.reliability.compiled_pass._eval_group` is shared, only the
indices differ — so per-circuit results are bit-identical to solo
sweeps of equal length (pinned over the full catalog by
``tests/test_tensor_pass.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace_span
from ..spec import EpsilonSpec, validate_sweep_specs
from .compiled_pass import (
    CompiledSinglePass,
    SweepResult,
    _dest_index,
    _eps_matrix,
    _eval_group,
    _gather_index,
    _group_key,
    _OpGroup,
    _stack_eps,
)


def _concat_groups(parts: Sequence[Tuple[int, _OpGroup]],
                   gate_offsets: Sequence[int], block_rows: int,
                   n_circuits: int) -> _OpGroup:
    """Concatenate ``(circuit index, group)`` parts of one schedule key.

    Circuit ``ci``'s rows sit at ``ci * block_rows`` of each state plane,
    so its gather and write indices shift by that much.  The parts'
    shared ``(V, V)`` mask survives when they are all the same truth
    class; otherwise every part's mask is spread per gate.
    """
    groups = [group for _, group in parts]
    first = groups[0]
    single = (first.truth is not None
              and all(g.truth == first.truth for g in groups))
    if single:
        flip_mask = first.flip_mask
    else:
        v = len(first.bits)
        flip_mask = np.concatenate([
            np.broadcast_to(g.flip_mask, (len(g.slots), v, v))
            for g in groups])
    slots = np.concatenate([g.slots for g in groups])
    fanin_slots = np.concatenate([g.fanin_slots for g in groups])
    base = np.concatenate([np.full(len(g.slots), ci * block_rows,
                                   dtype=np.intp) for ci, g in parts])
    plane_rows = n_circuits * block_rows
    return _OpGroup(
        arity=first.arity,
        slots=slots,
        eps_rows=np.concatenate([g.eps_rows + gate_offsets[ci]
                                 for ci, g in parts]),
        fanin_slots=fanin_slots,
        bits=first.bits,
        flip_mask=flip_mask,
        w_masked=np.concatenate([g.w_masked for g in groups], axis=2),
        w_side=np.concatenate([g.w_side for g in groups], axis=1),
        gather=_gather_index(first.bits, fanin_slots + base[:, None],
                             plane_rows),
        dest=_dest_index(slots + base, plane_rows),
        truth=first.truth if single else None,
    )


class TensorBatch:
    """A batch of :class:`CompiledSinglePass` plans merged for one sweep.

    Construct once per batch composition; :meth:`run_sweep` then
    evaluates per-circuit eps batches in a single level-scheduled pass.
    The merge is pure bookkeeping over the plans' already-lowered arrays
    (no re-lowering, no weight recomputation), so building a
    ``TensorBatch`` is cheap relative to even one sweep.  It copies
    those arrays: a plan patched in place afterwards (see
    :attr:`CompiledSinglePass.version`) needs a new batch.

    Parameters
    ----------
    plans:
        Compiled single-pass plans (independence kernel only — the
        correlated kernel's coefficient rows are per-circuit state and
        do not batch).  Order is preserved: result ``i`` of
        :meth:`run_sweep` belongs to ``plans[i]``.
    dtype:
        Override accumulator precision; default requires every plan to
        agree and uses that common dtype.
    """

    def __init__(self, plans: Sequence[CompiledSinglePass],
                 dtype: Optional[np.dtype] = None):
        if not plans:
            raise ValueError("TensorBatch requires at least one plan")
        for plan in plans:
            if not isinstance(plan, CompiledSinglePass):
                raise TypeError(
                    "TensorBatch batches CompiledSinglePass plans; got "
                    f"{type(plan).__name__} (the correlated kernel does "
                    "not batch across circuits)")
        if dtype is None:
            dtypes = {plan.dtype for plan in plans}
            if len(dtypes) > 1:
                raise ValueError(
                    "plans disagree on dtype "
                    f"({sorted(d.name for d in dtypes)}); pass dtype= "
                    "explicitly to re-cast")
            dtype = next(iter(dtypes))
        self.dtype = np.dtype(dtype)
        self.plans: List[CompiledSinglePass] = list(plans)

        with trace_span("tensor_pass.merge", circuits=len(self.plans)):
            self._merge()
        if obs_metrics.is_enabled():
            obs_metrics.inc("tensor_pass.merges")
            obs_metrics.set_gauge("tensor_pass.batch_circuits",
                                  self.n_circuits)
            obs_metrics.set_gauge("tensor_pass.pad_waste_rows",
                                  self.pad_waste_rows)

    # ------------------------------------------------------------------
    @property
    def n_circuits(self) -> int:
        return len(self.plans)

    def _merge(self) -> None:
        plans = self.plans
        #: Row extent of the padded state tensor (widest circuit).
        self.n_rows = max(len(p.node_names) for p in plans)
        #: Pad rows across the whole batch — the cost of rectangularity.
        self.pad_waste_rows = sum(self.n_rows - len(p.node_names)
                                  for p in plans)
        # Each circuit's block has one more row than the widest circuit,
        # so row len(node_names) of every circuit — the zero row its
        # lifted gates read — is a pad row nothing writes.
        block_rows = self.n_rows + 1
        #: Row offset of each circuit in the merged (gates_total, E)
        #: local-failure matrices.
        self.gate_offsets: List[int] = []
        total = 0
        for p in plans:
            self.gate_offsets.append(total)
            total += len(p.gate_names)
        self.n_gate_rows = total

        # Merge level schedules by position; within a position,
        # concatenate same-key groups across circuits.  Iteration is plans
        # in order, then sorted keys, so the merged schedule is
        # deterministic per batch composition.
        merged: List[List[_OpGroup]] = []
        for li in range(max(len(p.levels) for p in plans)):
            parts: Dict[tuple, List[Tuple[int, _OpGroup]]] = {}
            for ci, plan in enumerate(plans):
                if li < len(plan.levels):
                    for group in plan.levels[li]:
                        parts.setdefault(
                            _group_key(group.arity, group.truth),
                            []).append((ci, group))
            merged.append([_concat_groups(parts[key], self.gate_offsets,
                                          block_rows, len(plans))
                           for key in sorted(parts)])
        self.levels: List[List[_OpGroup]] = merged
        self.num_groups = sum(len(g) for g in merged)
        #: Groups a sequential run would dispatch — the batching win.
        self.unmerged_groups = sum(p.num_groups for p in plans)

    # ------------------------------------------------------------------
    def run_sweep(self,
                  eps_specs: Sequence[Sequence[EpsilonSpec]],
                  eps10_specs: Optional[
                      Sequence[Optional[Sequence[EpsilonSpec]]]] = None,
                  ) -> List[SweepResult]:
        """Evaluate one eps batch per circuit in a single merged pass.

        ``eps_specs[i]`` is the sweep batch for ``plans[i]`` (the same
        scalars or per-gate maps :meth:`CompiledSinglePass.run_sweep`
        takes); batches may have different lengths — shorter ones are
        padded to the longest by replicating their last point and the
        pad columns are dropped from the returned results.
        ``eps10_specs``, when given, is a parallel sequence of optional
        asymmetric-channel batches.  Returns one :class:`SweepResult`
        per plan, in order, identical in shape and content to a solo
        :meth:`CompiledSinglePass.run_sweep` call.
        """
        plans = self.plans
        if len(eps_specs) != len(plans):
            raise ValueError(
                f"expected {len(plans)} eps batches (one per circuit), "
                f"got {len(eps_specs)}")
        if eps10_specs is not None and len(eps10_specs) != len(plans):
            raise ValueError(
                f"expected {len(plans)} eps10 batches, got "
                f"{len(eps10_specs)}")

        validated: List[tuple] = []
        for i, plan in enumerate(plans):
            e10b = None if eps10_specs is None else eps10_specs[i]
            validated.append(validate_sweep_specs(
                plan.circuit, eps_specs[i], e10b))
        n_points = [len(specs) for specs, _ in validated]
        n_eps = max(n_points)
        any_eps10 = any(e10 is not None for _, e10 in validated)

        with trace_span("tensor_pass", circuits=self.n_circuits,
                        points=n_eps, pad_waste_rows=self.pad_waste_rows):
            e01 = np.empty((self.n_gate_rows, n_eps), dtype=self.dtype)
            e10 = (np.empty((self.n_gate_rows, n_eps), dtype=self.dtype)
                   if any_eps10 else e01)
            for i, plan in enumerate(plans):
                specs, e10b = validated[i]
                off = self.gate_offsets[i]
                end = off + len(plan.gate_names)
                block = _eps_matrix(plan.gate_names, specs,
                                    dtype=self.dtype)
                e01[off:end, :n_points[i]] = block
                if n_points[i] < n_eps:
                    # Replicate the last point into the pad columns; the
                    # duplicates are sliced away below.
                    e01[off:end, n_points[i]:] = block[:, -1:]
                if any_eps10:
                    b10 = (block if e10b is None
                           else _eps_matrix(plan.gate_names, e10b,
                                            dtype=self.dtype))
                    e10[off:end, :n_points[i]] = b10
                    if n_points[i] < n_eps:
                        e10[off:end, n_points[i]:] = b10[:, -1:]

            eps = _stack_eps(e01, e10)
            state = np.zeros((2, self.n_circuits, self.n_rows + 1, n_eps),
                             dtype=self.dtype)
            for i, plan in enumerate(plans):
                for slot, ep in plan.input_error_rows:
                    state[:, i, slot] = ((ep.p01,), (ep.p10,))
            flat = state.reshape(-1, n_eps)
            for level_groups in self.levels:
                for group in level_groups:
                    _eval_group(group, flat, eps)
            p01, p10 = state

            results: List[SweepResult] = []
            for i, plan in enumerate(plans):
                specs, e10b = validated[i]
                n_nodes = len(plan.node_names)
                c01 = np.ascontiguousarray(p01[i, :n_nodes, :n_points[i]])
                c10 = np.ascontiguousarray(p10[i, :n_nodes, :n_points[i]])
                per_output = ((1.0 - plan.output_prob1)[:, None]
                              * c01[plan.output_slots]
                              + plan.output_prob1[:, None]
                              * c10[plan.output_slots])
                results.append(SweepResult(
                    circuit_name=plan.circuit.name,
                    eps_specs=specs,
                    eps10_specs=e10b,
                    node_names=plan.node_names,
                    outputs=list(plan.circuit.outputs),
                    per_output=per_output,
                    p01=c01,
                    p10=c10,
                    signal_prob=plan.signal_prob,
                    used_correlation=False,
                    correlation_pairs=np.zeros(n_points[i],
                                               dtype=np.int64),
                    node_index=plan.index,
                ))
        if obs_metrics.is_enabled():
            obs_metrics.inc("tensor_pass.sweeps")
            obs_metrics.inc("tensor_pass.circuit_sweeps", self.n_circuits)
            obs_metrics.inc("tensor_pass.points", sum(n_points))
        return results
