"""Compiled single-pass kernel: per-point and swept-evaluation timings.

Times the scalar reference pass against the compiled (vectorized,
eps-batched) kernels on the medium/large stand-ins, both per eps point and
over a 32-point sweep — the workload ``repro curve`` runs.  Both analysis
modes are covered: the plain Sec. 4 independence kernel and the Sec. 4.1
correlation-corrected kernel (with the conftest ``LEVEL_GAP`` locality
cap, the configuration the scalar engine uses on these sizes).  Timings
land in ``results/compiled_perf.txt`` (human-readable) and, via the
conftest hook, in ``results/BENCH_singlepass.json`` (machine-readable
trajectory: ``{circuit, variant, mean_s, speedup_vs_scalar}`` rows).

Acceptance floors: the 32-point i10 sweep must beat 32 scalar ``run()``
calls by >= 5x in *both* modes, and one compiled plain point must beat
one scalar point on every circuit.
"""

import numpy as np
import pytest

from repro.circuits import get_benchmark
from repro.probability.weights import compute_weights
from repro.reliability import SinglePassAnalyzer

from conftest import LEVEL_GAP, record_singlepass, write_result

CIRCUITS = ("b9", "c499", "i10")

N_SWEEP = 32
EPS_SWEEP = [float(e) for e in np.linspace(0.005, 0.32, N_SWEEP)]

_means = {}


@pytest.fixture(scope="module")
def pairs():
    """Per circuit: (scalar analyzer, compiled analyzer), shared weights."""
    built = {}
    for name in CIRCUITS:
        circuit = get_benchmark(name)
        weights = compute_weights(circuit, method="sampled",
                                  n_patterns=1 << 14, seed=0)
        scalar = SinglePassAnalyzer(circuit, weights=weights,
                                    use_correlation=False, compiled="off")
        fast = SinglePassAnalyzer(circuit, weights=weights,
                                  use_correlation=False)
        fast.run(0.1)  # build the plan outside the timed region
        built[name] = (scalar, fast)
    return built


@pytest.fixture(scope="module")
def corr_pairs():
    """Correlated mode: (scalar oracle, compiled correlated) per circuit."""
    built = {}
    for name in CIRCUITS:
        circuit = get_benchmark(name)
        weights = compute_weights(circuit, method="sampled",
                                  n_patterns=1 << 14, seed=0)
        scalar = SinglePassAnalyzer(circuit, weights=weights,
                                    use_correlation=True, compiled="off",
                                    max_correlation_level_gap=LEVEL_GAP)
        fast = SinglePassAnalyzer(circuit, weights=weights,
                                  use_correlation=True,
                                  max_correlation_level_gap=LEVEL_GAP)
        fast.run(0.1)  # compile the correlated plan outside timed regions
        built[name] = (scalar, fast)
    return built


@pytest.mark.parametrize("name", CIRCUITS)
def test_scalar_point(benchmark, pairs, name):
    scalar, _ = pairs[name]
    result = benchmark(scalar.run, 0.1)
    assert all(0 <= v <= 1 for v in result.per_output.values())
    mean = benchmark.stats.stats.mean
    _means[(name, "scalar_point")] = mean
    record_singlepass(name, "scalar_point", mean)


@pytest.mark.parametrize("name", CIRCUITS)
def test_compiled_point(benchmark, pairs, name):
    scalar, fast = pairs[name]
    result = benchmark(fast.run, 0.1)
    ref = scalar.run(0.1)
    for out in ref.per_output:
        assert result.per_output[out] == pytest.approx(
            ref.per_output[out], abs=1e-12)
    mean = benchmark.stats.stats.mean
    speedup = _means[(name, "scalar_point")] / mean
    _means[(name, "compiled_point")] = mean
    record_singlepass(name, "compiled_point", mean, speedup)
    # Floor: one compiled point beats one scalar point on every circuit —
    # the level-grouped kernel's dispatch stays below the scalar loop's.
    assert speedup > 1.0


@pytest.mark.parametrize("name", CIRCUITS)
def test_scalar_sweep32(benchmark, pairs, name):
    """Baseline the kernel must beat: 32 independent scalar run() calls."""
    scalar, _ = pairs[name]

    def thirty_two_points():
        return [scalar.run(eps) for eps in EPS_SWEEP]

    benchmark.pedantic(thirty_two_points, rounds=2, iterations=1,
                       warmup_rounds=0)
    mean = benchmark.stats.stats.mean
    _means[(name, "scalar_sweep32")] = mean
    record_singlepass(name, "scalar_sweep32", mean)


@pytest.mark.parametrize("name", CIRCUITS)
def test_compiled_sweep32(benchmark, pairs, name):
    _, fast = pairs[name]
    sweep = benchmark(fast.sweep, EPS_SWEEP)
    assert sweep.n_points == N_SWEEP
    mean = benchmark.stats.stats.mean
    speedup = _means[(name, "scalar_sweep32")] / mean
    _means[(name, "compiled_sweep32")] = mean
    _means[(name, "sweep_speedup")] = speedup
    record_singlepass(name, "compiled_sweep32", mean, speedup)
    if name == "i10":
        # Acceptance floor: the whole curve in one pass, >= 5x the
        # point-at-a-time scalar loop.
        assert speedup >= 5.0


@pytest.mark.parametrize("name", CIRCUITS)
def test_corr_scalar_sweep32(benchmark, corr_pairs, name):
    """Correlated baseline: 32 independent scalar correlated run() calls."""
    scalar, _ = corr_pairs[name]

    def thirty_two_points():
        return [scalar.run(eps) for eps in EPS_SWEEP]

    benchmark.pedantic(thirty_two_points, rounds=1, iterations=1,
                       warmup_rounds=0)
    mean = benchmark.stats.stats.mean
    _means[(name, "corr_scalar_sweep32")] = mean
    record_singlepass(name, "corr_scalar_sweep32", mean)


@pytest.mark.parametrize("name", CIRCUITS)
def test_corr_compiled_sweep32(benchmark, corr_pairs, name):
    """The tentpole workload: a whole corrected curve in one compiled pass."""
    scalar, fast = corr_pairs[name]
    sweep = benchmark(fast.sweep, EPS_SWEEP)
    assert sweep.n_points == N_SWEEP
    assert sweep.used_correlation is True
    # Guard: the timed kernel really computed the Sec. 4.1 correction.
    ref = scalar.run(EPS_SWEEP[-1])
    for o, out in enumerate(sweep.outputs):
        assert sweep.per_output[o, -1] == pytest.approx(
            ref.per_output[out], abs=1e-10)
    mean = benchmark.stats.stats.mean
    speedup = _means[(name, "corr_scalar_sweep32")] / mean
    _means[(name, "corr_compiled_sweep32")] = mean
    _means[(name, "corr_sweep_speedup")] = speedup
    record_singlepass(name, "corr_compiled_sweep32", mean, speedup)
    if name == "i10":
        # Acceptance floor: correlated 32-point i10 sweep >= 5x scalar.
        assert speedup >= 5.0


def test_forced_scalar_oracle_still_works(corr_pairs):
    """The parity oracle path (compiled="off") stays functional."""
    scalar, fast = corr_pairs["b9"]
    assert not scalar.uses_compiled
    ref = scalar.run(0.1)
    res = fast.run(0.1)
    assert ref.correlation_pairs > 0
    assert ref.correlation_engine is not None
    for out in ref.per_output:
        assert res.per_output[out] == pytest.approx(ref.per_output[out],
                                                    abs=1e-10)


def test_compiled_perf_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if ("i10", "corr_compiled_sweep32") not in _means:
        pytest.skip("timing benchmarks did not all run")
    lines = [f"Compiled single-pass kernels vs scalar reference "
             f"(mean seconds; sweep = {N_SWEEP} eps points; "
             f"corr = Sec. 4.1 corrected, level gap {LEVEL_GAP})",
             f"{'circuit':8s} {'scalar/pt':>10s} {'compiled/pt':>12s} "
             f"{'scalar swp':>11s} {'compiled swp':>13s} {'speedup':>8s} "
             f"{'corr swp':>9s} {'corr compiled':>14s} {'speedup':>8s}"]
    for name in CIRCUITS:
        lines.append(
            f"{name:8s} {_means[(name, 'scalar_point')]:10.5f} "
            f"{_means[(name, 'compiled_point')]:12.5f} "
            f"{_means[(name, 'scalar_sweep32')]:11.4f} "
            f"{_means[(name, 'compiled_sweep32')]:13.4f} "
            f"{_means[(name, 'sweep_speedup')]:7.1f}x "
            f"{_means[(name, 'corr_scalar_sweep32')]:9.4f} "
            f"{_means[(name, 'corr_compiled_sweep32')]:14.4f} "
            f"{_means[(name, 'corr_sweep_speedup')]:7.1f}x")
    write_result("compiled_perf.txt", "\n".join(lines))
