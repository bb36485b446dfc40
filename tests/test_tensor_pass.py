"""Multi-circuit parity suite for the tensor kernel.

The contract under test: a :class:`~repro.reliability.tensor_pass.
TensorBatch` sweep returns, per circuit, the same numbers a solo
:meth:`CompiledSinglePass.run_sweep` produces — bit-identical when the
per-circuit eps batches have equal length (no padding), and within
1e-10 when ragged padding changes array extents (einsum reduction
order may differ at the ULP level with a different trailing-axis
extent).  On top of the kernel, the engine's cross-session batching
must hand back response payloads matching solo ``submit`` calls.
"""

import json

import numpy as np
import pytest

from repro.circuits.catalog import get_benchmark, list_benchmarks
from repro.engine import AnalysisEngine
from repro.probability.weights import compute_weights
from repro.reliability.compiled_pass import CompiledSinglePass
from repro.reliability.single_pass import SinglePassAnalyzer
from repro.reliability.tensor_pass import TensorBatch

EPS = [0.001, 0.02, 0.1]


def _plan(circuit, **kwargs):
    """A compiled plan with cheap (sampled) weights — parity doesn't
    care how accurate the weight vectors are, only that both arms use
    the same ones."""
    weights = compute_weights(circuit, method="sampled",
                              n_patterns=1 << 8, seed=0)
    return CompiledSinglePass(circuit, weights, **kwargs)


# -- full-catalog parity (acceptance criterion) -------------------------
def test_full_catalog_parity():
    """Tensor batch over all 18 catalog circuits matches solo kernels."""
    names = list_benchmarks()
    assert len(names) == 18
    plans = [_plan(get_benchmark(name)) for name in names]
    batch = TensorBatch(plans)
    assert batch.n_circuits == 18
    assert batch.num_groups < batch.unmerged_groups
    sweeps = batch.run_sweep([EPS] * len(plans))
    for plan, sweep in zip(plans, sweeps):
        solo = plan.run_sweep(EPS)
        assert sweep.circuit_name == solo.circuit_name
        assert sweep.p01.shape == solo.p01.shape
        # Equal-length batches: padding never fires, results are
        # bit-identical (and trivially within the 1e-10 bound).
        assert np.array_equal(sweep.p01, solo.p01), plan.circuit.name
        assert np.array_equal(sweep.p10, solo.p10), plan.circuit.name
        assert np.array_equal(sweep.per_output, solo.per_output)
        np.testing.assert_allclose(sweep.per_output, solo.per_output,
                                   atol=1e-10)


def test_ragged_batches():
    """Mixed-length eps batches pad to the longest and slice back."""
    plans = [_plan(get_benchmark(n)) for n in ("c17", "c432", "b9")]
    specs = [[0.01], [0.005, 0.05, 0.2, 0.4], [0.1, 0.3]]
    sweeps = TensorBatch(plans).run_sweep(specs)
    for plan, sp, sweep in zip(plans, specs, sweeps):
        solo = plan.run_sweep(sp)
        assert sweep.p01.shape == solo.p01.shape
        np.testing.assert_allclose(sweep.p01, solo.p01, atol=1e-10)
        np.testing.assert_allclose(sweep.p10, solo.p10, atol=1e-10)
        np.testing.assert_allclose(sweep.per_output, solo.per_output,
                                   atol=1e-10)


def test_batch_of_one():
    plan = _plan(get_benchmark("c880"))
    sweeps = TensorBatch([plan]).run_sweep([EPS])
    solo = plan.run_sweep(EPS)
    assert len(sweeps) == 1
    assert np.array_equal(sweeps[0].p01, solo.p01)
    assert np.array_equal(sweeps[0].per_output, solo.per_output)


def test_duplicate_circuit_in_batch():
    """The same plan may appear twice (two result slots, same numbers)."""
    plan = _plan(get_benchmark("c17"))
    sweeps = TensorBatch([plan, plan]).run_sweep([EPS, EPS])
    assert np.array_equal(sweeps[0].p01, sweeps[1].p01)


def test_per_gate_eps_maps():
    circuit = get_benchmark("c17")
    plan = _plan(circuit)
    other = _plan(get_benchmark("b9"))
    gate = plan.gate_names[0]
    specs = [{"default": 0.05, gate: 0.2}, {"default": 0.01}]
    sweeps = TensorBatch([plan, other]).run_sweep([specs, [0.05, 0.01]])
    solo = plan.run_sweep(specs)
    assert np.array_equal(sweeps[0].p01, solo.p01)


def test_eps10_batches():
    """Asymmetric channels batch too (parallel eps10 spec lists)."""
    plans = [_plan(get_benchmark(n)) for n in ("c17", "cu")]
    eps = [[0.01, 0.05], [0.02, 0.1]]
    eps10 = [[0.005, 0.02], None]
    sweeps = TensorBatch(plans).run_sweep(eps, eps10)
    for plan, e, e10, sweep in zip(plans, eps, eps10, sweeps):
        solo = plan.run_sweep(e, e10)
        np.testing.assert_allclose(sweep.p01, solo.p01, atol=1e-10)
        np.testing.assert_allclose(sweep.p10, solo.p10, atol=1e-10)


def test_sweep_point_results_match_solo():
    """Sliced SinglePassResult views agree with the solo kernel's."""
    plans = [_plan(get_benchmark(n)) for n in ("c17", "fig1a")]
    sweeps = TensorBatch(plans).run_sweep([EPS, EPS])
    for plan, sweep in zip(plans, sweeps):
        solo = plan.run_sweep(EPS)
        for j in range(len(EPS)):
            a, b = sweep.point(j), solo.point(j)
            assert a.per_output == b.per_output


# -- construction contracts ---------------------------------------------
def test_rejects_empty_batch():
    with pytest.raises(ValueError, match="at least one plan"):
        TensorBatch([])


def test_rejects_non_single_pass_plans(reconvergent_circuit):
    analyzer = SinglePassAnalyzer(reconvergent_circuit,
                                  use_correlation=True)
    with pytest.raises(TypeError, match="CompiledSinglePass"):
        TensorBatch([analyzer.plan])


def test_rejects_mixed_dtypes_without_override():
    c17, cu = get_benchmark("c17"), get_benchmark("cu")
    p32 = _plan(c17, dtype=np.float32)
    p64 = _plan(cu)
    with pytest.raises(ValueError, match="disagree on dtype"):
        TensorBatch([p32, p64])
    batch = TensorBatch([p32, p64], dtype=np.float64)
    assert batch.dtype == np.float64


def test_wrong_batch_count_raises():
    plans = [_plan(get_benchmark("c17")), _plan(get_benchmark("cu"))]
    batch = TensorBatch(plans)
    with pytest.raises(ValueError, match="eps batches"):
        batch.run_sweep([EPS])


def test_float32_batch():
    plans = [_plan(get_benchmark(n), dtype=np.float32)
             for n in ("c17", "b9")]
    batch = TensorBatch(plans)
    sweeps = batch.run_sweep([EPS, EPS])
    for plan, sweep in zip(plans, sweeps):
        assert sweep.p01.dtype == np.float32
        np.testing.assert_allclose(sweep.p01, plan.run_sweep(EPS).p01,
                                   atol=1e-6)


def test_pad_accounting():
    plans = [_plan(get_benchmark(n)) for n in ("c17", "c432")]
    batch = TensorBatch(plans)
    widest = max(len(p.node_names) for p in plans)
    assert batch.n_rows == widest
    assert batch.pad_waste_rows == sum(widest - len(p.node_names)
                                       for p in plans)


# -- engine cross-session batching --------------------------------------
def _plain(circuit, eps):
    return {"op": "analyze", "circuit": circuit, "eps": eps,
            "correlation": False}


def test_engine_tensor_batch_matches_solo_submits():
    """Cross-session coalesced responses carry the same result payloads
    as solo requests (same point count → bit-identical kernels)."""
    reqs = [_plain("c17", [0.01, 0.05]), _plain("b9", [0.01, 0.05]),
            _plain("cu", [0.01, 0.05])]
    with AnalysisEngine() as eng:
        batched = eng.submit_many(reqs)
        assert [r.method for r in batched] == ["single-pass-tensor"] * 3
        for r in batched:
            assert r.ok
            assert r.telemetry["batch_circuits"] == 3
    with AnalysisEngine() as eng:
        solo = [eng.submit(dict(req)) for req in reqs]
    for b, s in zip(batched, solo):
        assert s.ok
        assert json.dumps(b.result, sort_keys=True) == \
            json.dumps(s.result, sort_keys=True)


def test_engine_tensor_batch_same_session_coalescing_still_works():
    """Same-circuit requests still coalesce inside their group."""
    reqs = [_plain("c17", [0.01]), _plain("c17", [0.05]),
            _plain("b9", [0.02])]
    with AnalysisEngine() as eng:
        responses = eng.submit_many(reqs)
    assert all(r.ok for r in responses)
    assert responses[0].coalesced == 2
    assert responses[2].coalesced == 1
    assert all(r.method == "single-pass-tensor" for r in responses)


def test_engine_correlation_requests_bypass_tensor_path():
    reqs = [
        {"op": "analyze", "circuit": "c17", "eps": [0.01],
         "correlation": True},
        {"op": "analyze", "circuit": "b9", "eps": [0.01],
         "correlation": True},
    ]
    with AnalysisEngine() as eng:
        responses = eng.submit_many(reqs)
    assert all(r.ok for r in responses)
    assert all(r.method != "single-pass-tensor" for r in responses)
    assert all("batch_circuits" not in r.telemetry for r in responses)


def test_engine_single_group_skips_tensor_path():
    """One eligible session is exactly what plain coalescing handles."""
    reqs = [_plain("c17", [0.01]), _plain("c17", [0.05])]
    with AnalysisEngine() as eng:
        responses = eng.submit_many(reqs)
    assert all(r.ok for r in responses)
    assert all(r.method != "single-pass-tensor" for r in responses)


def test_engine_bad_circuit_degrades_gracefully():
    """An unresolvable group falls out of the tensor set; the rest batch."""
    reqs = [_plain("c17", [0.01]), _plain("no-such-circuit", [0.01]),
            _plain("b9", [0.01])]
    with AnalysisEngine() as eng:
        responses = eng.submit_many(reqs)
    assert responses[0].ok and responses[2].ok
    assert not responses[1].ok
    assert responses[0].method == "single-pass-tensor"
    assert responses[2].method == "single-pass-tensor"


def test_engine_tensor_batch_cache_reused():
    reqs = [_plain("c17", [0.01]), _plain("b9", [0.01])]
    with AnalysisEngine() as eng:
        eng.submit_many(reqs)
        assert len(eng._tensor_batches) == 1
        first = next(iter(eng._tensor_batches.values()))
        eng.submit_many(reqs)
        assert len(eng._tensor_batches) == 1
        assert next(iter(eng._tensor_batches.values())) is first


def test_engine_tensor_batch_tracks_patched_edit_session():
    """A type-only ``swap_gate`` patches an edit session's plan in place;
    the next batch of the same sessions must not reuse the batch merged
    from the pre-edit arrays."""
    opts = {"weights": "sampled", "n_patterns": 1 << 10, "seed": 0}
    circuit = get_benchmark("x2")
    gate = next(g for g in circuit.topological_gates()
                if circuit.node(g).gate_type.value == "and")

    def reanalyze(session):
        return {"op": "reanalyze", "session": session, "eps": [0.01, 0.05],
                "correlation": False}

    with AnalysisEngine() as eng:
        for session, name in (("a", "x2"), ("b", "c17")):
            env = eng.submit({"op": "edit", "session": session,
                              "circuit": name, "options": opts,
                              "edits": [{"kind": "set_eps", "eps": 0.01}]})
            assert env.ok, env.error
        batch = [reanalyze("a"), reanalyze("b")]
        before = eng.submit_many(batch)
        assert [r.method for r in before] == ["single-pass-tensor"] * 2
        env = eng.submit({"op": "edit", "session": "a",
                          "edits": [{"kind": "swap_gate", "gate": gate,
                                     "gate_type": "nand"}]})
        assert env.ok, env.error
        after = eng.submit_many(batch)
        assert [r.method for r in after] == ["single-pass-tensor"] * 2
        solo = eng.submit(reanalyze("a"))
    assert solo.ok
    assert after[0].result["points"] != before[0].result["points"]
    assert json.dumps(after[0].result["points"], sort_keys=True) == \
        json.dumps(solo.result["points"], sort_keys=True)


def test_engine_tensor_metrics_emitted():
    from repro.obs import metrics as obs_metrics
    obs_metrics.reset()
    obs_metrics.set_enabled(True)
    try:
        with AnalysisEngine() as eng:
            eng.submit_many([_plain("c17", [0.01]), _plain("b9", [0.01])])
        names = {entry["name"] for entry in obs_metrics.snapshot()}
        assert "engine.tensor_batch.circuits" in names
        assert "engine.tensor_batch.pad_waste_rows" in names
        assert "tensor_pass.sweeps" in names
    finally:
        obs_metrics.set_enabled(False)
        obs_metrics.reset()
