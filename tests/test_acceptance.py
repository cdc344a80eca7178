"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Sizes, tolerances, and runtime budgets are pinned here and are not
calibration knobs.  Run with ``pytest tests/test_acceptance.py -s`` to
see the per-criterion lines as they complete.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import monotone_wfi
from monotone_wfi.estimator import (
    log_likelihood,
    npmle_fit,
    npmle_values,
    pava_fit,
    switch_check,
)
from monotone_wfi.experiments import (
    AuditConfig,
    StudyConfig,
    run_consistency_study,
    run_limit_comparison,
    run_lower_bound_audit,
    run_rate_study,
    run_tail_bound_probe,
)
from monotone_wfi.limits import (
    DEFAULT_EDGE_GRID,
    DEFAULT_TWO_SIDED_GRID,
    PathGrid,
    argmin_quadratic_batch,
    boundary_term,
    brownian_paths,
    chernoff_abs_mean,
    chernoff_batch,
    edge_layer_constant,
    local_width,
    mu_n,
)
from monotone_wfi.metrics import QuadratureCfg, ks_two_sample, l1_error
from monotone_wfi.model import (
    FeatureLaw,
    LinkSpec,
    Scenario,
    draw_sample,
    phi_n,
)
from monotone_wfi.streams import stream

SEED = 20260808
THREADS = 2

LOGISTIC = LinkSpec("logistic")
UNIFORM = FeatureLaw("uniform", 1.0)

LINK_MENU = [
    LinkSpec("logistic"),
    LinkSpec("probit", params=(1.0,)),
    LinkSpec("beta_flat", beta=3),
    LinkSpec("affine", params=(0.35, 0.2)),
]
LAW_MENU = [
    FeatureLaw("uniform", 1.0),
    FeatureLaw("polynomial", 1.0, (0.5,)),
    FeatureLaw("uniform", 2.0),
]


def _report(idx, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(
        f"[acceptance {idx:02d}] {name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {idx} ({name}): {detail}"
    assert elapsed < budget, f"criterion {idx} exceeded its runtime budget"


def _random_scenarios(rng, count, n_max=200):
    for _ in range(count):
        link = LINK_MENU[int(rng.integers(len(LINK_MENU)))]
        law = LAW_MENU[int(rng.integers(len(LAW_MENU)))]
        gamma = float(rng.choice([0.0, 0.25, 0.5]))
        scn = Scenario(link, law, 1.0, gamma, beta=link.beta)
        n = int(rng.integers(1, n_max + 1))
        yield scn, n


def test_01_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for i, (scn, n) in enumerate(_random_scenarios(rng, 1000)):
        s = draw_sample(scn, n, stream(SEED, 101, i))
        dev = float(np.max(np.abs(npmle_values(s) - pava_fit(s)(s.xs))))
        worst = max(worst, dev)
    elapsed = time.time() - start
    _report(
        1,
        "oracle equivalence (minorant slopes vs pooling)",
        worst <= 1e-12,
        f"max deviation {worst:.2e} over 1000 samples",
        elapsed,
        10.0,
    )


def _candidate_loglik(sample, cand):
    ones = sample.ones.astype(float)[None, :]
    zeros = (sample.weights - sample.ones).astype(float)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(ones > 0, ones * np.log(cand), 0.0)
        t0 = np.where(zeros > 0, zeros * np.log1p(-cand), 0.0)
    return t1.sum(axis=1) + t0.sum(axis=1)


def test_02_likelihood_optimality():
    start = time.time()
    rng = np.random.default_rng(SEED + 1)
    worst_slack = np.inf
    for i, (scn, n) in enumerate(_random_scenarios(rng, 200)):
        s = draw_sample(scn, n, stream(SEED, 102, i))
        k = s.xs.size
        fit_vals = npmle_values(s)
        sorted_u = np.sort(rng.random((250, k)), axis=1)
        powered = np.sort(rng.random((100, k)) ** 2, axis=1)
        noise = np.clip(fit_vals[None, :] + 0.05 * rng.standard_normal((150, k)), 0, 1)
        perturbed = np.sort(noise, axis=1)
        truth = np.asarray(phi_n(scn, n, s.xs), dtype=float).reshape(1, k)
        cand = np.vstack([sorted_u, powered, perturbed, truth])
        ll_best = float(np.max(_candidate_loglik(s, cand)))
        ll_fit = log_likelihood(lambda x, v=fit_vals: v, s)
        worst_slack = min(worst_slack, ll_fit - ll_best)
    elapsed = time.time() - start
    _report(
        2,
        "likelihood optimality vs 500 candidates + truth",
        worst_slack >= -1e-12,
        f"worst slack {worst_slack:.2e} over 200 samples",
        elapsed,
        30.0,
    )


def test_03_switch_relation_strict():
    start = time.time()
    rng = np.random.default_rng(SEED + 2)
    checked = 0
    for i, (scn, n) in enumerate(_random_scenarios(rng, 1000)):
        s = draw_sample(scn, n, stream(SEED, 103, i))
        lo, hi = float(s.xs[0]), float(s.xs[-1])
        levels = npmle_values(s)
        for _ in range(50):
            pick = rng.random()
            if pick < 0.5:
                x = float(rng.uniform(lo, hi))
            elif pick < 0.8:
                x = float(rng.choice(s.xs))
            else:
                x = max(float(rng.choice(s.xs)) - 1e-9, lo)
            a = float(rng.choice(levels)) if rng.random() < 0.2 else float(rng.random())
            rec = switch_check(s, x, a)
            assert rec["lhs"] == rec["rhs"], (i, x, a)
            checked += 1
    elapsed = time.time() - start
    _report(
        3,
        "strict switch relation",
        checked == 50_000,
        f"{checked} (x, a) checks, all lhs == rhs",
        elapsed,
        10.0,
    )


def test_04_argmin_scaling_law():
    start = time.time()
    m = 50_000
    results = []
    for j, (a, b, c) in enumerate(((1.0, 1.0, 0.0), (2.0, 0.5, 1.0))):
        wide = PathGrid(8.0, 0.002, True) if c != 0 else DEFAULT_TWO_SIDED_GRID
        direct = argmin_quadratic_batch(wide, m, stream(SEED, 104, j, 0), a, b, c)
        ref = (a / b) ** (2.0 / 3.0) * chernoff_batch(
            DEFAULT_TWO_SIDED_GRID, m, stream(SEED, 104, j, 1)
        ) + c / (2.0 * b)
        results.append(ks_two_sample(direct, ref))
    elapsed = time.time() - start
    _report(
        4,
        "argmin scaling law",
        all(ks <= 0.02 for ks in results),
        "KS " + ", ".join(f"{ks:.4f}" for ks in results) + " (tol 0.02)",
        elapsed,
        120.0,
    )


def test_05_rate_elbow():
    start = time.time()
    ns = (512, 1024, 2048, 4096, 8192, 16384, 32768)
    lines = []
    ok = True
    for gamma in (0.0, 0.25, 0.8):
        cfg = StudyConfig(
            Scenario(LOGISTIC, UNIFORM, 1.0, gamma),
            ns,
            400,
            seed_base=SEED,
            threads=THREADS,
            centering_draws=0,
        )
        res = run_rate_study(cfg)
        target = res.manifest["target_slope"]
        pw = res.manifest["slope_pointwise"]
        l1 = res.manifest["slope_l1"]
        ok &= abs(pw - target) <= 0.07 and abs(l1 - target) <= 0.07
        lines.append(f"g={gamma:g}: pw {pw:+.3f} l1 {l1:+.3f} (target {target:+.3f})")
    elapsed = time.time() - start
    _report(5, "rate elbow", ok, "; ".join(lines), elapsed, 300.0)


def _limit_criterion(idx, name, gamma, regime, budget, n=20_000, reps=2000):
    start = time.time()
    cfg = StudyConfig(
        Scenario(LOGISTIC, UNIFORM, 1.0, gamma),
        (n,),
        reps,
        seed_base=SEED,
        threads=THREADS,
        regime=regime,
        limit_draws=50_000,
    )
    res = run_limit_comparison(cfg)
    ks = res.manifest["ks"][str(n)]
    elapsed = time.time() - start
    _report(idx, name, ks <= 0.10, f"KS {ks:.4f} (tol 0.10)", elapsed, budget)
    return res


def test_06_slow_regime_pointwise_law():
    _limit_criterion(6, "slow-regime pointwise law", 0.25, "slow_pointwise", 300.0)


def test_07_fast_regime_pointwise_law():
    _limit_criterion(7, "fast-regime pointwise law", 0.9, "fast_pointwise", 300.0)


def test_08_fast_regime_l1_law():
    start = time.time()
    cfg = StudyConfig(
        Scenario(LOGISTIC, UNIFORM, 1.0, 0.9),
        (20_000,),
        2000,
        seed_base=SEED,
        threads=THREADS,
        regime="fast_l1",
        limit_draws=50_000,
    )
    res = run_limit_comparison(cfg)
    ks = res.manifest["ks"]["20000"]

    # representation check: Cov(W(1)-2W(u), W(1)-2W(v)) = 1 - 2|u - v|
    grid = PathGrid(1.0, 0.001, False)
    pts = grid.points()
    us = (0.1, 0.3, 0.5, 0.7, 0.9)
    idx = [int(np.searchsorted(pts, u)) for u in us]
    paths = brownian_paths(grid, 50_000, stream(SEED, 108))
    reps = paths[:, -1][:, None] - 2.0 * paths[:, idx]
    centered = reps - reps.mean(axis=0, keepdims=True)
    cov_ok = True
    worst_z = 0.0
    for i in range(5):
        for j in range(5):
            prod = centered[:, i] * centered[:, j]
            est = prod.mean()
            se = prod.std(ddof=1) / math.sqrt(prod.size)
            z = abs(est - (1.0 - 2.0 * abs(us[i] - us[j]))) / se
            worst_z = max(worst_z, z)
            cov_ok &= z <= 3.0
    elapsed = time.time() - start
    _report(
        8,
        "fast-regime L1 law + covariance identity",
        ks <= 0.10 and cov_ok,
        f"KS {ks:.4f} (tol 0.10), worst covariance z {worst_z:.2f} (tol 3)",
        elapsed,
        300.0,
    )


def test_09_slow_regime_l1_centering():
    start = time.time()
    n = 40_000
    scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.25)
    abs_mean = chernoff_abs_mean()  # exact, from the Airy-function density
    edge, edge_se = edge_layer_constant(DEFAULT_EDGE_GRID, 20_000, stream(SEED, 109, 2))
    assert edge_se <= 0.005
    first = mu_n(scn, n, abs_mean, QuadratureCfg(1e-9))
    layer = boundary_term(scn, n, edge)
    rate = (n / scn.delta(n)) ** (1.0 / 3.0)
    phi = scn.phi_fn(n)
    t = UNIFORM.half_width
    full = np.empty(1000)
    for r in range(1000):
        s = draw_sample(scn, n, stream(SEED, 109, 1, r))
        fit = npmle_fit(s)
        full[r] = l1_error(fit, phi, "lebesgue", interval=(-t, t))
    ratio = rate * full.mean() / (first + layer)
    elapsed = time.time() - start
    print(
        f"[acceptance 09] decomposition: against the first-order centering "
        f"mu_n = {first:.4f} the ratio is {rate * full.mean() / first:.4f}; the "
        f"support-boundary layer B_n = {layer:.4f} (edge constant D = {edge:.4f} "
        f"+- {edge_se:.4f}, local width h_n = {local_width(scn, n, t):.3f}) predicts "
        f"{1.0 + layer / first:.4f} and is {layer / (first + layer):.1%} of the "
        f"centering mu_n + B_n; it shrinks like (n delta_n^2)^(-1/3)"
    )
    _report(
        9,
        "slow-regime L1 centering",
        abs(ratio - 1.0) <= 0.10,
        f"mean scaled L1 / centering = {ratio:.4f} (tol 0.10 around 1)",
        elapsed,
        600.0,
    )


def test_10_lower_bound_audits():
    start = time.time()
    res = run_lower_bound_audit(AuditConfig(UNIFORM, quad_tol=1e-8))
    bad = [k for k, v in res.manifest["flags"].items() if not v]
    elapsed = time.time() - start
    _report(
        10,
        "lower-bound budgets and membership",
        res.passed,
        f"alpha {res.manifest['alpha']}" + (f"; failing: {bad}" if bad else ""),
        elapsed,
        30.0,
    )


def test_11_consistency_behaviors():
    start = time.time()
    cfg = StudyConfig(
        Scenario(LOGISTIC, UNIFORM, 1.0, 0.25),
        (512, 1024, 2048, 4096, 8192, 16384, 32768),
        200,
        seed_base=SEED,
        threads=THREADS,
    )
    res = run_consistency_study(cfg, hellinger_ns=(400, 6400), sup_gammas=(0.25, 0.8))
    ratio = res.manifest["hellinger_ratio"]
    decreasing = all(
        res.manifest["flags"][f"supnorm_decreasing_gamma{g}"] for g in (0.25, 0.8)
    )
    elapsed = time.time() - start
    _report(
        11,
        "consistency behaviors",
        ratio <= 0.55 and decreasing,
        f"distance ratio {ratio:.3f} (tol 0.55); sup-norm medians decreasing: {decreasing}",
        elapsed,
        120.0,
    )


def test_12_inverse_process_scaling():
    start = time.time()
    cfg = StudyConfig(
        Scenario(LOGISTIC, UNIFORM, 1.0, 0.25),
        (512, 2048, 8192, 32768),
        400,
        seed_base=SEED,
        threads=THREADS,
        probe_xs=(0.05, 0.2),
    )
    res = run_tail_bound_probe(cfg)
    slope = res.manifest["slope"]
    target = res.manifest["target_slope"]
    elapsed = time.time() - start
    _report(
        12,
        "inverse-process scaling",
        abs(slope - target) <= 0.1,
        f"slope {slope:+.4f} vs target {target:+.4f} (tol 0.1)",
        elapsed,
        120.0,
    )


def test_13_determinism_serial_vs_parallel(tmp_path):
    start = time.time()
    # the children find the package where this process imported it from
    env = {**os.environ, "PYTHONPATH": str(Path(monotone_wfi.__file__).resolve().parents[1])}
    outs = {}
    for tag, threads in (("serial", "1"), ("parallel", "8")):
        for rerun in ("a", "b"):
            out = tmp_path / f"{tag}_{rerun}"
            cmd = [
                sys.executable, "-m", "monotone_wfi.cli",
                "rate-study",
                "--out", str(out),
                "--seed", str(SEED),
                "--threads", threads,
                "--set", "study.gammas=0.25",
                "--set", "study.n_list=64,128,256",
                "--set", "study.replicates=64",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs[(tag, rerun)] = (
                (out / "rate_study.csv").read_bytes(),
                (out / "rate_study.pointwise.svg").read_bytes(),
            )
        out = tmp_path / f"lim_{tag}"
        cmd = [
            sys.executable, "-m", "monotone_wfi.cli",
            "simulate-limit",
            "--out", str(out),
            "--seed", str(SEED),
            "--threads", threads,
            "--set", "limit.draws=2000",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs[("limit", tag)] = ((out / "limit_batch.csv").read_bytes(),)
    identical = (
        outs[("serial", "a")] == outs[("serial", "b")]
        and outs[("parallel", "a")] == outs[("parallel", "b")]
        and outs[("serial", "a")] == outs[("parallel", "a")]
        and outs[("limit", "serial")] == outs[("limit", "parallel")]
    )
    elapsed = time.time() - start
    _report(
        13,
        "byte-identical reruns, serial vs 8-way parallel",
        identical,
        "rate-study CSV and SVG plus limit-batch CSV, reruns and thread counts",
        elapsed,
        120.0,
    )
