"""Correctness check: answers against the scalar single-pass oracle.

Every checked answer is recomputed with ``compiled="off"`` (the scalar
pass the repository keeps as its parity oracle) at the same weights: the
pinned sampled estimator, recomputed here from scratch.  An answer from
a named edit session is checked against a from-scratch analysis of the
circuit rebuilt with every edit the session had received.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.circuit import Circuit
from repro.circuit.gate import GateType
from repro.circuits import get_benchmark
from repro.probability.weights import compute_weights
from repro.reliability.single_pass import SinglePassAnalyzer

#: Largest |delta| difference accepted per output and point.
TOLERANCE = 1e-9


def apply_swaps(circuit: Circuit, edits: Sequence[Dict[str, str]]
                ) -> Circuit:
    """Rebuild ``circuit`` with type-only ``swap_gate`` edits applied."""
    new_type = {e["gate"]: GateType(e["gate_type"]) for e in edits}
    out = Circuit(circuit.name)
    for node in circuit:
        if node.gate_type.is_input:
            out.add_input(node.name)
        elif node.gate_type.is_constant:
            out.add_const(node.name,
                          1 if node.gate_type is GateType.CONST1 else 0)
        else:
            out.add_gate(node.name, new_type.get(node.name, node.gate_type),
                         node.fanins)
    for name in circuit.outputs:
        out.set_output(name)
    return out


class Oracle:
    """Scalar reference analyzers, built once per checked circuit."""

    def __init__(self, options: Dict[str, Any]):
        self.options = options
        self._analyzers: Dict[Tuple, SinglePassAnalyzer] = {}

    def analyzer(self, name: str, correlation: bool,
                 edits: Sequence[Dict[str, str]] = ()) -> SinglePassAnalyzer:
        key = (name, correlation, tuple(tuple(sorted(e.items()))
                                        for e in edits))
        analyzer = self._analyzers.get(key)
        if analyzer is None:
            circuit = get_benchmark(name)
            if edits:
                circuit = apply_swaps(circuit, edits)
            weights = compute_weights(
                circuit, method=self.options["weights"],
                n_patterns=self.options["n_patterns"],
                seed=self.options["seed"])
            analyzer = SinglePassAnalyzer(
                circuit, weights=weights, use_correlation=correlation,
                compiled="off",
                max_correlation_level_gap=self.options.get("level_gap"))
            self._analyzers[key] = analyzer
        return analyzer

    def mismatch(self, meta: Dict[str, Any], envelope: Dict[str, Any],
                 correlation: bool,
                 edit_logs: Optional[Dict[str, List[Dict[str, str]]]] = None
                 ) -> Optional[str]:
        """None when ``envelope`` answers ``meta`` correctly, else why not."""
        if not envelope.get("ok"):
            return f"{meta['kind']} {meta['circuit']}: {envelope.get('error')}"
        if meta["kind"] == "edit":
            return None
        edits: Sequence[Dict[str, str]] = ()
        if meta["kind"] == "reanalyze":
            edits = edit_logs[meta["session"]][:meta["log_len"]]
        analyzer = self.analyzer(meta["circuit"], correlation, edits)
        points = envelope["result"]["points"]
        if len(points) != len(meta["eps"]):
            return (f"{meta['kind']} {meta['circuit']}: {len(points)} points "
                    f"for {len(meta['eps'])} eps values")
        for eps, point in zip(meta["eps"], points):
            expected = analyzer.run(eps).per_output
            got = point["per_output"]
            if set(got) != set(expected):
                return f"{meta['kind']} {meta['circuit']}: output names differ"
            worst = max(abs(got[o] - expected[o]) for o in expected)
            if worst > TOLERANCE:
                return (f"{meta['kind']} {meta['circuit']} eps={eps:.6g}: "
                        f"max |delta diff| {worst:.3g} > {TOLERANCE:g}")
        return None
