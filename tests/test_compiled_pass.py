"""Compiled-kernel parity: the vectorized sweep must match the scalar pass.

The compiled plan (`repro.reliability.compiled_pass`) re-implements the
Sec. 4 independence propagation as batched tensor ops with a trailing eps
axis.  These tests pin it to the scalar reference path (``compiled="off"``)
to <= 1e-12 — per output *and* per internal node — on every catalog
benchmark, across symmetric eps, asymmetric ``eps10``, per-gate eps maps
and non-uniform input distributions, plus arbitrary generated circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import CircuitBuilder, GateType, truth_table
from repro.circuits import get_benchmark, list_benchmarks, random_circuit
from repro.probability.error_propagation import ErrorProbability
from repro.probability.weights import compute_weights
from repro.reliability import compiled_pass
from repro.reliability import (
    CompiledCorrelatedPass,
    CompiledPassUnsupported,
    CompiledSinglePass,
    SinglePassAnalyzer,
    SinglePassResult,
    SweepResult,
    TensorBatch,
)

TOL = 1e-12
EPS_POINTS = [0.0, 0.004, 0.05, 0.21]


def _pair(circuit, weights, **kwargs):
    """(scalar reference, compiled) analyzers sharing one WeightData."""
    scalar = SinglePassAnalyzer(circuit, weights=weights,
                                use_correlation=False, compiled="off",
                                **kwargs)
    fast = SinglePassAnalyzer(circuit, weights=weights,
                              use_correlation=False, **kwargs)
    assert not scalar.uses_compiled
    assert fast.uses_compiled
    return scalar, fast


def _assert_sweep_matches(scalar, sweep, eps_list, eps10_list=None):
    """Every sweep column must match an independent scalar run."""
    for j, eps in enumerate(eps_list):
        ref = scalar.run(eps, None if eps10_list is None else eps10_list[j])
        for o, out in enumerate(sweep.outputs):
            assert abs(ref.per_output[out] - sweep.per_output[o, j]) <= TOL
        for i, node in enumerate(sweep.node_names):
            assert abs(ref.node_errors[node].p01 - sweep.p01[i, j]) <= TOL
            assert abs(ref.node_errors[node].p10 - sweep.p10[i, j]) <= TOL


@pytest.mark.parametrize("name", list_benchmarks())
class TestCatalogParity:
    @pytest.fixture()
    def weights(self, name):
        return compute_weights(get_benchmark(name), method="sampled",
                               n_patterns=1 << 10, seed=0)

    def test_symmetric_sweep(self, name, weights):
        circuit = get_benchmark(name)
        scalar, fast = _pair(circuit, weights)
        sweep = fast.sweep(EPS_POINTS)
        assert sweep.n_points == len(EPS_POINTS)
        _assert_sweep_matches(scalar, sweep, EPS_POINTS)

    def test_asymmetric_eps10(self, name, weights):
        circuit = get_benchmark(name)
        scalar, fast = _pair(circuit, weights)
        eps10 = [0.3, 0.1, 0.0, 0.02]
        sweep = fast.sweep(EPS_POINTS, eps10)
        _assert_sweep_matches(scalar, sweep, EPS_POINTS, eps10)

    def test_per_gate_eps_map(self, name, weights):
        circuit = get_benchmark(name)
        scalar, fast = _pair(circuit, weights)
        gates = circuit.topological_gates()
        maps = [{g: 0.002 * ((i + shift) % 9) for i, g in enumerate(gates)}
                for shift in (0, 4)]
        sweep = fast.sweep(maps)
        _assert_sweep_matches(scalar, sweep, maps)

    def test_non_uniform_input_probs(self, name):
        circuit = get_benchmark(name)
        probs = {pi: 0.2 + 0.6 * (i % 3) / 2
                 for i, pi in enumerate(circuit.inputs)}
        weights = compute_weights(circuit, method="sampled",
                                  n_patterns=1 << 10, seed=1,
                                  input_probs=probs)
        scalar, fast = _pair(circuit, weights)
        sweep = fast.sweep([0.01, 0.12], [0.07, 0.0])
        _assert_sweep_matches(scalar, sweep, [0.01, 0.12], [0.07, 0.0])


class TestPropertyParity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           eps=st.floats(0.0, 0.5),
           eps10=st.floats(0.0, 0.5))
    def test_random_circuits(self, seed, eps, eps10):
        circuit = random_circuit(n_inputs=5, n_gates=14, n_outputs=2,
                                 seed=seed)
        weights = compute_weights(circuit, method="exhaustive")
        scalar, fast = _pair(circuit, weights)
        rng = np.random.default_rng(seed)
        gates = circuit.topological_gates()
        eps_map = {g: float(p) for g, p in
                   zip(gates, rng.uniform(0.0, 0.5, len(gates)))}
        specs = [eps, eps_map]
        eps10_specs = [eps10, eps10]
        sweep = fast.sweep(specs, eps10_specs)
        _assert_sweep_matches(scalar, sweep, specs, eps10_specs)


class TestDispatchAndApi:
    @pytest.fixture(scope="class")
    def c17(self):
        return get_benchmark("c17")

    @pytest.fixture(scope="class")
    def weights(self, c17):
        return compute_weights(c17, method="exhaustive")

    def test_run_dispatches_to_kernel(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        result = fast.run(0.05)
        assert isinstance(result, SinglePassResult)
        assert result.used_correlation is False
        assert result.correlation_pairs == 0
        ref = SinglePassAnalyzer(c17, weights=weights, use_correlation=False,
                                 compiled="off").run(0.05)
        for out in ref.per_output:
            assert abs(ref.per_output[out] - result.per_output[out]) <= TOL

    def test_correlated_analyzer_dispatches_compiled(self, c17, weights):
        corr = SinglePassAnalyzer(c17, weights=weights, use_correlation=True)
        assert corr.uses_compiled
        result = corr.run(0.05)
        assert result.used_correlation is True
        assert result.correlation_pairs > 0
        # Consolidation compatibility: the compiled run hands back a
        # seeded engine that answers every query like a scalar run's (the
        # scalar memo also holds trivially-1.0 pairs the compiled closure
        # prunes; those recompute lazily on the seeded engine).
        ref = SinglePassAnalyzer(c17, weights=weights, use_correlation=True,
                                 compiled="off").run(0.05)
        seeded = result.correlation_engine
        for (a, ea, b, eb), value in \
                ref.correlation_engine.coefficient_items():
            assert abs(seeded(a, ea, b, eb) - value) <= TOL

    def test_compiled_off_is_honored(self, c17, weights):
        off = SinglePassAnalyzer(c17, weights=weights, use_correlation=False,
                                 compiled="off")
        assert not off.uses_compiled

    def test_invalid_compiled_mode_rejected(self, c17, weights):
        with pytest.raises(ValueError, match="compiled"):
            SinglePassAnalyzer(c17, weights=weights, compiled="yes")

    def test_point_materializes_single_pass_result(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        sweep = fast.sweep([0.01, 0.2])
        point = sweep.point(1)
        assert isinstance(point, SinglePassResult)
        ref = fast.run(0.2)
        for out in ref.per_output:
            assert abs(point.per_output[out] - ref.per_output[out]) <= TOL
        assert point.node_errors.keys() == ref.node_errors.keys()

    def test_curve_matches_per_point_runs(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        eps = [0.0, 0.03, 0.4]
        curve = fast.curve(eps, output="22")
        for e in eps:
            assert abs(curve[e] - fast.run(e).delta("22")) <= TOL

    def test_curve_rejects_map_specs(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        sweep = fast.sweep([{g: 0.1 for g in c17.topological_gates()}])
        with pytest.raises(TypeError, match="scalar eps"):
            sweep.curve()

    def test_sweep_validation(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        with pytest.raises(ValueError, match="at least one"):
            fast.sweep([])
        with pytest.raises(ValueError, match="length"):
            fast.sweep([0.1, 0.2], [0.1])
        with pytest.raises(ValueError):
            fast.sweep([0.7])

    def test_input_errors_parity(self, c17, weights):
        errs = {c17.inputs[0]: ErrorProbability(p01=0.07, p10=0.02)}
        scalar = SinglePassAnalyzer(c17, weights=weights,
                                    use_correlation=False, compiled="off",
                                    input_errors=errs)
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False, input_errors=errs)
        _assert_sweep_matches(scalar, fast.sweep(EPS_POINTS), EPS_POINTS)

    def test_plan_reuse_across_sweeps(self, c17, weights):
        fast = SinglePassAnalyzer(c17, weights=weights,
                                  use_correlation=False)
        fast.sweep([0.1])
        plan = fast._plan
        assert plan is not None
        fast.sweep([0.2])
        assert fast._plan is plan

    def test_compiled_plan_direct_api(self, c17, weights):
        plan = CompiledSinglePass(c17, weights)
        sweep = plan.run_sweep([0.05])
        assert isinstance(sweep, SweepResult)
        one = plan.run(0.05)
        assert np.allclose(one.per_output, sweep.per_output)


class TestCorrelatedSweepDispatch:
    """Correlated sweeps run entirely on the compiled correlated kernel."""

    def test_tree_sweep_uses_kernel_and_matches(self, tree_circuit):
        weights = compute_weights(tree_circuit, method="exhaustive")
        corr = SinglePassAnalyzer(tree_circuit, weights=weights,
                                  use_correlation=True)
        assert corr.uses_compiled
        sweep = corr.sweep(EPS_POINTS)
        assert sweep.used_correlation is True
        # A fanout-free circuit has no structurally correlated pairs.
        assert not sweep.correlation_pairs.any()
        ref = SinglePassAnalyzer(tree_circuit, weights=weights,
                                 use_correlation=True, compiled="off")
        for j, eps in enumerate(EPS_POINTS):
            res = ref.run(eps)
            for o, out in enumerate(sweep.outputs):
                assert abs(res.per_output[out]
                           - sweep.per_output[o, j]) <= TOL

    def test_reconvergent_sweep_compiled_with_pairs(self,
                                                    reconvergent_circuit):
        corr = SinglePassAnalyzer(reconvergent_circuit,
                                  weight_method="exhaustive",
                                  use_correlation=True)
        sweep = corr.sweep([0.01, 0.1])
        assert corr.uses_compiled
        assert sweep.correlation_pairs.min() > 0
        assert len(sweep.correlation_pair_keys) == \
            sweep.correlation_pairs[0]
        ref = SinglePassAnalyzer(reconvergent_circuit,
                                 weight_method="exhaustive",
                                 use_correlation=True, compiled="off")
        for j, eps in enumerate([0.01, 0.1]):
            res = ref.run(eps)
            for o, out in enumerate(sweep.outputs):
                assert abs(res.per_output[out]
                           - sweep.per_output[o, j]) <= TOL


class TestParallelSweep:
    def test_jobs_fanout_matches_serial(self):
        circuit = get_benchmark("c17")
        # Force the scalar path: with a compiled plan the sweep is one
        # vectorized pass and the pool would never spin up.
        analyzer = SinglePassAnalyzer(circuit, weight_method="exhaustive",
                                      use_correlation=True, compiled="off")
        eps = [0.01, 0.05, 0.1, 0.2]
        serial = analyzer.sweep(eps)
        parallel = analyzer.sweep(eps, jobs=2)
        assert np.allclose(serial.per_output, parallel.per_output, atol=0.0)
        assert np.allclose(serial.p01, parallel.p01, atol=0.0)
        assert list(parallel.correlation_pairs) == \
            list(serial.correlation_pairs)


# -- gate shapes of the level-fused schedule -----------------------------
def _wide_circuit(l1_type=GateType.AND):
    """Arity-3 gates of mixed truth classes sharing level 1 and 2, and
    arity-7 gates of two truth classes at both levels.  ``l1_type`` sets
    the function of gate ``l1`` (one of two otherwise-AND3 gates)."""
    b = CircuitBuilder("wide")
    x = b.inputs(*[f"x{i}" for i in range(8)])
    b.gate(l1_type, x[0], x[1], x[2], name="l1")
    b.and_(x[5], x[6], x[7], name="l2")
    b.or_(x[1], x[2], x[3], name="o3")
    b.xor(x[2], x[3], x[4], name="e3")
    b.nand(x[3], x[4], x[5], name="n3")
    b.and_(*x[:7], name="a7")
    b.or_(*x[1:], name="o7")
    b.and_(*x[1:], name="b7")
    mid = ["l1", "l2", "o3", "e3", "n3", "a7", "o7", "b7"]
    b.xor("l1", "o3", "e3", name="y3")
    b.xnor("n3", "a7", "l2", name="z3")
    b.nor(*mid[:7], name="r7")
    b.or_(*mid[1:], name="s7")
    b.outputs("y3", "z3", "r7", "s7")
    return b.build()


def _groups(plan):
    return [group for level in plan.levels for group in level]


class TestFusedSchedule:
    def test_groups_per_level_and_arity(self):
        circuit = _wide_circuit()
        plan = CompiledSinglePass(
            circuit, compute_weights(circuit, method="exhaustive"))
        # Per level: one mixed arity-3 group, one group per arity-7 class.
        assert plan.num_groups == 6
        forms = sorted((g.arity, g.flip_mask.ndim, len(g.slots))
                       for g in _groups(plan))
        assert forms == [(3, 3, 2), (3, 3, 5), (7, 2, 1), (7, 2, 1),
                         (7, 2, 1), (7, 2, 2)]
        for group in _groups(plan):
            assert (group.truth is None) == (group.flip_mask.ndim == 3)
            # Topological order inside each group.
            assert list(group.slots) == sorted(group.slots)

    @pytest.mark.parametrize("name", list_benchmarks())
    def test_catalog_one_group_per_level_arity(self, name):
        """Catalog gates are all arity 1 or 2: one group per level, and a
        batch of one plan runs that same schedule bit for bit."""
        circuit = get_benchmark(name)
        plan = CompiledSinglePass(
            circuit, compute_weights(circuit, method="sampled",
                                     n_patterns=1 << 8, seed=0))
        gates = circuit.topological_gates()
        assert {circuit.node(g).arity for g in gates} <= {1, 2}
        # NOT/BUF ride in their level's arity-2 group: one group per level.
        assert plan.num_groups == len({circuit.level(g) for g in gates})
        solo = plan.run_sweep(EPS_POINTS)
        batched = TensorBatch([plan]).run_sweep([EPS_POINTS])[0]
        assert np.array_equal(batched.p01, solo.p01)
        assert np.array_equal(batched.p10, solo.p10)
        assert np.array_equal(batched.per_output, solo.per_output)

    def test_wide_gates_match_scalar_solo_and_batched(self):
        circuit = _wide_circuit()
        weights = compute_weights(circuit, method="exhaustive")
        scalar, fast = _pair(circuit, weights)
        eps10 = [0.3, 0.1, 0.0, 0.02]
        _assert_sweep_matches(scalar, fast.sweep(EPS_POINTS, eps10),
                              EPS_POINTS, eps10)
        other = _wide_circuit(GateType.NOR)
        other_weights = compute_weights(other, method="exhaustive")
        other_scalar, _ = _pair(other, other_weights)
        c17 = get_benchmark("c17")
        c17_weights = compute_weights(c17, method="exhaustive")
        c17_scalar, _ = _pair(c17, c17_weights)
        batch = TensorBatch([CompiledSinglePass(circuit, weights),
                             CompiledSinglePass(other, other_weights),
                             CompiledSinglePass(c17, c17_weights)])
        sweeps = batch.run_sweep([EPS_POINTS] * 3, [eps10] * 3)
        for ref, sweep in zip((scalar, other_scalar, c17_scalar), sweeps):
            _assert_sweep_matches(ref, sweep, EPS_POINTS, eps10)

    def test_max_arity_refusal(self):
        circuit = _wide_circuit()
        weights = compute_weights(circuit, method="exhaustive")
        with pytest.raises(CompiledPassUnsupported, match="arity 7 > 6"):
            CompiledSinglePass(circuit, weights, max_arity=6)
        with pytest.raises(CompiledPassUnsupported, match="arity 7 > 6"):
            CompiledCorrelatedPass(circuit, weights, max_arity=6)
        CompiledSinglePass(circuit, weights, max_arity=7)

    def test_type_swap_patch_makes_shared_group_mixed(self):
        """A type-only swap turns a shared-mask group into a mixed one;
        the patched plan equals a fresh compile bit for bit."""
        def build(t):
            b = CircuitBuilder("pair")
            x = b.inputs(*[f"x{i}" for i in range(4)])
            b.gate(t, x[0], x[1], x[2], name="l1")
            b.and_(x[1], x[2], x[3], name="l2")
            b.or_("l1", "l2", x[3], name="top")
            b.outputs("top")
            return b.build()

        before, after = build(GateType.AND), build(GateType.NOR)
        plan = CompiledSinglePass(
            before, compute_weights(before, method="exhaustive"))
        level1 = plan.levels[0]
        assert len(level1) == 1 and level1[0].flip_mask.ndim == 2
        weights = compute_weights(after, method="exhaustive")
        assert plan.patch_weights(after, weights, changed_gates=["top"],
                                  retruthed_gates=["l1"])
        assert plan.version == 1
        fresh = CompiledSinglePass(after, weights)
        assert plan.levels[0][0].flip_mask.ndim == 3
        assert plan.num_groups == fresh.num_groups
        for got, want in zip(_groups(plan), _groups(fresh)):
            for attr in ("slots", "eps_rows", "fanin_slots", "bits",
                         "flip_mask", "w_masked0", "w_masked1",
                         "w_side0", "w_side1"):
                assert np.array_equal(getattr(got, attr),
                                      getattr(want, attr)), attr
            assert got.truth == want.truth
        patched_sweep = plan.run_sweep(EPS_POINTS)
        fresh_sweep = fresh.run_sweep(EPS_POINTS)
        assert np.array_equal(patched_sweep.p01, fresh_sweep.p01)
        assert np.array_equal(patched_sweep.p10, fresh_sweep.p10)


# -- unary gates lifted into their level's arity-2 group -----------------
def _unary_circuit(n_type=GateType.NOT):
    """NOT/BUF gates sharing levels with arity-2 gates.  ``n`` (type
    ``n_type``) and ``u`` sit in level 2, ``m2`` in level 3 reads ``n``,
    so a swap of ``n`` changes ``m2``'s weights."""
    b = CircuitBuilder("unary")
    a, bb, c, d = b.inputs("a", "b", "c", "d")
    b.and_(a, bb, name="g1")
    b.or_(bb, c, name="g2")
    b.not_(d, name="i1")
    b.gate(n_type, "g1", name="n")
    b.buf("g2", name="u")
    b.xor("g1", "i1", name="h")
    b.nand("n", "h", name="k")
    b.buf("n", name="m2")
    b.outputs("k", "m2", "u")
    return b.build()


def _unary_recurrence(gate_type, w, f01, f10, e01, e10):
    """The kernel's arithmetic for one unary gate, on its own: the flip
    probability of input vector v is the fanin's p01 (v = 0) or p10
    (v = 1); the gate's side-b ratio is that vector's weighted flip over
    its weight."""
    truth = truth_table(gate_type, 1)
    ratio = {}
    for v, p in ((0, f01), (1, f10)):
        weighted = w[v] * np.minimum(p, 1.0)
        ratio[truth[v]] = (np.minimum(weighted / w[v], 1.0) if w[v] > 0.0
                           else np.zeros_like(p))
    return (ratio[0] * (1.0 - e10) + (1.0 - ratio[0]) * e01,
            ratio[1] * (1.0 - e01) + (1.0 - ratio[1]) * e10)


class TestUnaryLift:
    def test_unary_gates_join_the_arity2_group(self):
        circuit = _unary_circuit()
        plan = CompiledSinglePass(
            circuit, compute_weights(circuit, method="exhaustive"))
        assert plan.num_groups == len(plan.levels) == 3
        for group in _groups(plan):
            assert group.arity == 2 and group.truth is None
        # The padded fanin of every lifted gate is the zero row.
        zero_row = len(plan.node_names)
        level2 = plan.levels[1][0]
        cols = {plan.node_names[s]: c for c, s in enumerate(level2.slots)}
        assert level2.fanin_slots[cols["n"], 1] == zero_row
        assert level2.fanin_slots[cols["u"], 1] == zero_row

    def test_lifted_gate_equals_unary_recurrence(self):
        circuit = _unary_circuit()
        weights = compute_weights(circuit, method="exhaustive")
        plan = CompiledSinglePass(circuit, weights)
        eps10 = [0.3, 0.1, 0.0, 0.02]
        sweep = plan.run_sweep(EPS_POINTS, eps10)
        e01 = np.asarray(EPS_POINTS)
        e10 = np.asarray(eps10)
        for gate in ("i1", "n", "u", "m2"):
            node = circuit.node(gate)
            f = plan.index[node.fanins[0]]
            want01, want10 = _unary_recurrence(
                node.gate_type, weights.weights[gate],
                sweep.p01[f], sweep.p10[f], e01, e10)
            i = plan.index[gate]
            assert np.array_equal(sweep.p01[i], want01), gate
            assert np.array_equal(sweep.p10[i], want10), gate
        scalar, _ = _pair(circuit, weights)
        _assert_sweep_matches(scalar, sweep, EPS_POINTS, eps10)

    def test_not_buf_swap_in_lifted_group_patches_like_fresh(self):
        before = _unary_circuit(GateType.NOT)
        after = _unary_circuit(GateType.BUF)
        plan = CompiledSinglePass(
            before, compute_weights(before, method="exhaustive"))
        weights = compute_weights(after, method="exhaustive")
        # m2 (lifted, level 3) and k take the column rewrite; n's level 2
        # is re-lowered.
        assert plan.patch_weights(after, weights, changed_gates=["k", "m2"],
                                  retruthed_gates=["n"])
        fresh = CompiledSinglePass(after, weights)
        assert plan.num_groups == fresh.num_groups
        for got, want in zip(_groups(plan), _groups(fresh)):
            for attr in ("slots", "eps_rows", "fanin_slots", "bits",
                         "flip_mask", "w_masked", "w_side", "divisor",
                         "gather", "dest"):
                assert np.array_equal(getattr(got, attr),
                                      getattr(want, attr)), attr
            assert got.truth == want.truth
        patched_sweep = plan.run_sweep(EPS_POINTS)
        fresh_sweep = fresh.run_sweep(EPS_POINTS)
        assert np.array_equal(patched_sweep.p01, fresh_sweep.p01)
        assert np.array_equal(patched_sweep.p10, fresh_sweep.p10)
        assert np.array_equal(patched_sweep.per_output,
                              fresh_sweep.per_output)


def test_chunked_groups_match_unchunked(monkeypatch):
    """A small ``_CHUNK_ELEMENTS`` splits every group into gate chunks;
    the answer must not move by a bit — solo, batched, shared-mask and
    mixed-mask groups alike."""
    circuits = [get_benchmark("c17"), get_benchmark("b9"), _wide_circuit()]
    plans = [CompiledSinglePass(c, compute_weights(c, method="sampled",
                                                   n_patterns=1 << 8,
                                                   seed=0))
             for c in circuits]
    forms = {g.flip_mask.ndim for p in plans for g in _groups(p)}
    assert forms == {2, 3}
    eps10 = [0.3, 0.1, 0.0, 0.02]
    solo = [p.run_sweep(EPS_POINTS, eps10) for p in plans]
    batch = TensorBatch(plans)
    batched = batch.run_sweep([EPS_POINTS] * 3, [eps10] * 3)
    # Three arity-2 gates per chunk (V = 4, E = 4); one wide gate.
    monkeypatch.setattr(compiled_pass, "_CHUNK_ELEMENTS", 3 * 4 * 4 * 4)
    assert max(len(g.slots) for g in _groups(plans[1])) > 3
    for plan, want in zip(plans, solo):
        got = plan.run_sweep(EPS_POINTS, eps10)
        assert np.array_equal(got.p01, want.p01)
        assert np.array_equal(got.p10, want.p10)
    for got, want in zip(batch.run_sweep([EPS_POINTS] * 3, [eps10] * 3),
                         batched):
        assert np.array_equal(got.p01, want.p01)
        assert np.array_equal(got.p10, want.p10)


def test_sweep_result_shares_plan_index(full_adder_circuit):
    """Results share the plan's names, index and signal probabilities
    (no per-request copies); point views read the same as an unshared
    result's."""
    plan = CompiledSinglePass(
        full_adder_circuit,
        compute_weights(full_adder_circuit, method="exhaustive"))
    sweep = plan.run_sweep([0.01, 0.2])
    assert sweep.node_names is plan.node_names
    assert sweep.node_index is plan.index
    assert sweep.point(1).signal_prob is plan.signal_prob
    unshared = SweepResult(
        circuit_name=sweep.circuit_name, eps_specs=sweep.eps_specs,
        eps10_specs=None, node_names=list(sweep.node_names),
        outputs=list(sweep.outputs), per_output=sweep.per_output,
        p01=sweep.p01, p10=sweep.p10,
        signal_prob=dict(sweep.signal_prob),
        correlation_pairs=sweep.correlation_pairs)
    for j in range(2):
        assert (sweep.point(j).to_dict(include_nodes=True)
                == unshared.point(j).to_dict(include_nodes=True))


# -- dtype threading (no silent float64 up-cast) --------------------------
def test_float32_plan_stays_float32(reconvergent_circuit):
    analyzer = SinglePassAnalyzer(reconvergent_circuit,
                                  use_correlation=False,
                                  dtype=np.float32)
    plan = analyzer.plan
    assert plan is not None and plan.dtype == np.float32
    # g1 is alone on its level (shared mask); g4/g5 mix AND and NAND.
    assert {g.flip_mask.ndim for g in _groups(plan)} == {2, 3}
    for group in _groups(plan):
        assert group.flip_mask.dtype == np.float32
        assert group.w_masked0.dtype == np.float32
        assert group.w_masked1.dtype == np.float32
    sweep = plan.run_sweep([0.01, 0.05, 0.2])
    assert sweep.p01.dtype == np.float32
    assert sweep.p10.dtype == np.float32
    assert sweep.per_output.dtype == np.float32


def test_float32_parity_with_float64(reconvergent_circuit):
    eps = [0.01, 0.05, 0.2]
    s32 = SinglePassAnalyzer(reconvergent_circuit, use_correlation=False,
                             dtype=np.float32).sweep(eps)
    s64 = SinglePassAnalyzer(reconvergent_circuit,
                             use_correlation=False).sweep(eps)
    assert s64.p01.dtype == np.float64
    np.testing.assert_allclose(s32.p01, s64.p01, atol=1e-6)
    np.testing.assert_allclose(s32.per_output, s64.per_output, atol=1e-6)


def test_compiled_pass_dtype_parameter(full_adder_circuit):
    w = compute_weights(full_adder_circuit, method="exhaustive")
    plan = CompiledSinglePass(full_adder_circuit, w, dtype=np.float32)
    assert plan.dtype == np.float32
    plan64 = CompiledSinglePass(full_adder_circuit, w)
    assert plan64.dtype == np.float64
