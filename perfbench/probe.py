"""Layer probe: time the layers a workload's traffic does not reach.

``catalog_plain`` never runs the correlated kernel, ``catalog_correlated``
never runs the plain kernel, and only ``serve_sweep_edit`` edits.  Every
workload still reports every per-layer row, so after its traced phase a
traced run calls the entry points of the layers its traffic leaves out
(``metrics.PROBED_ROWS`` fixes which, per workload) on fixed inputs, with
the span recorder installed and tags starting with ``p:``.
``TensorBatch`` is probed on every workload: closed-loop traffic merges
requests into a tensor pass too rarely for a per-call figure.
"""

from __future__ import annotations

import random

from metrics import probed
from spans import SpanRecorder
from workloads import (
    COMPLEMENT,
    CORR_KERNEL_CIRCUITS,
    CORRELATED_OPTIONS,
    EDIT_CIRCUIT,
    PLAIN_KERNEL_CIRCUITS,
    PLAIN_OPTIONS,
    eps_sweep,
)

#: Calls per probed kernel, TensorBatch and edit (correlated: fewer,
#: an i10 correlated call takes about a second).
REPEATS = 5
CORR_REPEATS = 3


def run_probe(recorder: SpanRecorder, workload: str) -> None:
    """Probe the plain kernels (E=1 and E=32) and their ``TensorBatch``,
    plus the correlated kernels and a named edit session when the
    workload's rows for them are probed; the (installed) recorder keeps
    the spans."""
    from repro.circuits import get_benchmark
    from repro.probability.weights import compute_weights
    from repro.reliability.compiled_pass import (
        CompiledCorrelatedPass,
        CompiledSinglePass,
    )
    from repro.reliability.tensor_pass import TensorBatch

    rng = random.Random("perfbench-probe")
    sweep = eps_sweep(rng)

    def weights(circuit):
        return compute_weights(circuit, method=PLAIN_OPTIONS["weights"],
                               n_patterns=PLAIN_OPTIONS["n_patterns"],
                               seed=PLAIN_OPTIONS["seed"])

    try:
        recorder.tag = "p:plain"
        plans = []
        for name in PLAIN_KERNEL_CIRCUITS:
            circuit = get_benchmark(name)
            plans.append(CompiledSinglePass(circuit, weights(circuit)))
        for _ in range(REPEATS):
            for plan in plans:
                plan.run_sweep([0.05])
                plan.run_sweep(sweep)

        recorder.tag = "p:tensor"
        batch = TensorBatch(plans)
        for _ in range(REPEATS):
            batch.run_sweep([sweep] * len(plans))

        if probed(workload, "compiled_pass.kernel_corr_ms."):
            recorder.tag = "p:corr"
            for name in CORR_KERNEL_CIRCUITS:
                circuit = get_benchmark(name)
                plan = CompiledCorrelatedPass(
                    circuit, weights(circuit),
                    max_level_gap=CORRELATED_OPTIONS["level_gap"])
                for _ in range(CORR_REPEATS):
                    plan.run_sweep([0.05])

        if probed(workload, "incremental.edit_ms"):
            recorder.tag = "p:edit"
            _probe_edits(get_benchmark(EDIT_CIRCUIT), rng)
    finally:
        recorder.tag = None


def _probe_edits(circuit, rng: random.Random) -> None:
    """``swap_gate`` edits + ``reanalyze`` on a named session."""
    from repro.engine import AnalysisEngine

    engine = AnalysisEngine()
    types = {g: circuit.node(g).gate_type.value for g in circuit.gates
             if circuit.node(g).gate_type.value in COMPLEMENT}
    swappable = sorted(types)
    try:
        for _ in range(REPEATS):
            gate = rng.choice(swappable)
            types[gate] = COMPLEMENT[types[gate]]
            engine.submit({"op": "edit", "session": "probe",
                           "circuit": circuit.name, "options": PLAIN_OPTIONS,
                           "edits": [{"kind": "swap_gate", "gate": gate,
                                      "gate_type": types[gate]}]})
            engine.submit({"op": "reanalyze", "session": "probe",
                           "eps": 0.05, "correlation": False})
    finally:
        engine.close()
