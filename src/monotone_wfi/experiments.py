"""Monte Carlo studies: rates, limit-law comparisons, audits, probes.

Every study is deterministic given its config: replicate ``r`` of
experiment ``e`` at sample size ``n`` draws from the stream
``(seed_base; e[, sub], gamma_code, n, r)``, where ``gamma_code`` is
``round(gamma * 10^6)`` and only the consistency study (``e = 4``) has
a ``sub`` id: 1 for its Hellinger half, 2 for its sup-norm half.  Serial
and worker-pool runs produce identical records, in replicate order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import limits
from .estimator import inverse_process, npmle_fit
from .metrics import QuadratureCfg, hellinger, ks_two_sample, l1_error, sup_norm_on
from .model import (
    FeatureLaw,
    Scenario,
    build_assouad_cube,
    build_pointwise_hypotheses,
    default_cube_constant,
    default_fast_pair_constant,
    default_slow_pair_constant,
    draw_sample,
    in_slope_band,
)
from .streams import stream

__all__ = [
    "StudyConfig",
    "AuditConfig",
    "StudyResult",
    "fit_loglog_slope",
    "expected_rate_slope",
    "check_rate_study",
    "run_rate_study",
    "run_limit_comparison",
    "run_lower_bound_audit",
    "run_tail_bound_probe",
    "run_consistency_study",
]

_EXP_RATE = 1
_EXP_LIMIT = 2
_EXP_TAIL = 3
_EXP_CONSISTENCY = 4
_EXP_CONSTANTS = 5

# study regime -> (scenario regime, limit-law tag at beta = 1)
REGIMES = {
    "slow_pointwise": ("slow", "scaled_chernoff"),
    "boundary_pointwise": ("boundary", "boundary_gbc"),
    "fast_pointwise": ("fast", "fast_w_slope"),
    "fast_l1": ("fast", "l1_fast_maxA"),
}


def _regime(scn: Scenario) -> str:
    """``slow``, ``boundary`` or ``fast`` by the sign of ``1 - 2 beta gamma``, ties within 1e-12."""
    margin = 1.0 - 2.0 * scn.beta * scn.impact_exponent
    if abs(margin) <= 1e-12:
        return "boundary"
    return "slow" if margin > 0.0 else "fast"


def _g17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class StudyConfig:
    """Shared configuration for the replicate-based studies."""

    scenario: Scenario
    n_list: tuple[int, ...]
    replicates: int
    x0: float = 0.0
    seed_base: int = 20260808
    threads: int = 1
    regime: str | None = None
    limit_draws: int = 50_000
    centering_draws: int = 0
    probe_xs: tuple[float, ...] = ()
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ns = tuple(int(n) for n in self.n_list)
        object.__setattr__(self, "n_list", ns)
        if len(ns) == 0 or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n_list must be nonempty and strictly increasing")
        if self.replicates < 50:
            raise ValueError("studies need at least 50 replicates")
        if self.regime is not None and self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        t = self.scenario.law.half_width
        if not -t < self.x0 < t:
            raise ValueError(f"x0 must be interior to the feature support, got {self.x0}")


@dataclass(frozen=True)
class AuditConfig:
    """Configuration of the minimax lower-bound audit."""

    law: FeatureLaw
    x0: float = 0.0
    n_fast: int = 400
    delta_fast: float = 1e-3
    n_slow: int = 10_000
    delta_slow: float = 0.1
    c_fast: float | None = None
    c_slow: float | None = None
    c_cube: float | None = None
    quad_tol: float = 1e-8


@dataclass
class StudyResult:
    """Records plus derived summaries and a manifest of pass/fail flags."""

    columns: tuple[str, ...]
    records: list[tuple]
    summary: dict
    manifest: dict
    extras: dict = field(default_factory=dict)

    def to_csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for rec in self.records:
            cells = [
                _g17(v) if isinstance(v, float) else str(v) for v in rec
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    @property
    def passed(self) -> bool:
        flags = self.manifest.get("flags", {})
        return all(bool(v) for v in flags.values())


def _chunk(stat, ids: tuple, scn: Scenario, arg, seed_base: int, n: int, reps) -> list[tuple]:
    """Records ``(n, r, *stat(scn, arg, n, sample))`` for the replicates ``reps``.

    Replicate ``r`` samples from ``stream(seed_base, *ids, gamma_code, n, r)``;
    ``arg`` holds the statistic's per-size constants.
    """
    gcode = int(round(scn.impact_exponent * 1_000_000))
    out = []
    for r in reps:
        sample = draw_sample(scn, n, stream(seed_base, *ids, gcode, n, int(r)))
        out.append((int(n), int(r), *stat(scn, arg, n, sample)))
    return out


def _replicates(heads, cfg: StudyConfig) -> list[list[tuple]]:
    """Records of every head ``(stat, ids, scn, arg, n)``: one list per head, in replicate order."""
    threads = os.cpu_count() or 1 if cfg.threads == 0 else max(1, cfg.threads)
    size = max(1, math.ceil(cfg.replicates / (4 * threads))) if threads > 1 else cfg.replicates
    reps = np.arange(cfg.replicates)
    chunks = [reps[i : i + size] for i in range(0, cfg.replicates, size)]
    tasks = [
        (stat, ids, scn, arg, cfg.seed_base, n, part)
        for stat, ids, scn, arg, n in heads
        for part in chunks
    ]
    if threads <= 1 or len(tasks) <= 1:
        parts = [_chunk(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_chunk, *t) for t in tasks]
            try:
                parts = [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)  # drop the queued chunks, not run them
                raise
    k = len(chunks)
    return [[rec for part in parts[i : i + k] for rec in part] for i in range(0, len(parts), k)]


def fit_loglog_slope(ns, errors) -> tuple[float, float]:
    """OLS slope and its standard error on (log n, log error)."""
    ns = np.asarray(ns, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ns.size < 3:
        raise ValueError("slope fits need at least 3 points")
    if np.any(errors <= 0):
        raise ValueError("slope fits need strictly positive errors")
    x = np.log(ns)
    y = np.log(errors)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y / sxx)
    resid = y - y.mean() - slope * xc
    se = float(np.sqrt(resid @ resid / (ns.size - 2) / sxx))
    return slope, se


def expected_rate_slope(gamma: float, beta: int = 1) -> float:
    """Elbow rate exponent: -min(1/2, beta (1 + gamma) / (2 beta + 1))."""
    return -min(0.5, beta * (1.0 + gamma) / (2.0 * beta + 1.0))


# ---------------------------------------------------------------------------
# rate studies


def _rate_stat(scn: Scenario, arg, n: int, sample) -> tuple:
    x0, phi, target = arg
    t = scn.law.half_width
    fit = npmle_fit(sample)
    return abs(float(fit(x0)) - target), l1_error(fit, phi, "lebesgue", interval=(-t, t))


def check_rate_study(cfg: StudyConfig) -> None:
    """Raise before any draw if :func:`run_rate_study` cannot run on ``cfg``."""
    if len(cfg.n_list) < 3:
        raise ValueError(
            f"rate study needs at least 3 sample sizes for its slope fits, got {len(cfg.n_list)}"
        )
    if 0 < cfg.centering_draws < 10_000:
        raise ValueError(
            f"centering needs 0 (off) or at least 10000 draws, got {cfg.centering_draws}"
        )
    if _regime(cfg.scenario) == "slow":
        limits.check_slow_pointwise(cfg.scenario.link, cfg.x0)


def run_rate_study(cfg: StudyConfig) -> StudyResult:
    """Pointwise and L1 error ladder with fitted log-log slopes.

    One record per (n, replicate); medians per n feed the slope fits.
    In the slow regime, with ``centering_draws >= 10_000``, the mean
    rate-scaled L1 error at the largest n is also compared to the
    centering ``mu_n + B_n``: the first-order term from the exact
    ``E|X(0)|`` plus the support-boundary layer, whose constant ``D`` is
    simulated from ``centering_draws`` paths.  The decomposition goes
    into the summary and the manifest.
    """
    check_rate_study(cfg)
    scn = cfg.scenario
    gamma = scn.impact_exponent
    heads = []
    for n in cfg.n_list:
        phi = scn.phi_fn(n)
        heads.append((_rate_stat, (_EXP_RATE,), scn, (cfg.x0, phi, phi(cfg.x0)), n))
    by_n = _replicates(heads, cfg)
    records = [(gamma,) + r for recs in by_n for r in recs]

    ns = np.array(cfg.n_list, dtype=float)
    med_pw = np.array([np.median([r[2] for r in recs]) for recs in by_n])
    med_l1 = np.array([np.median([r[3] for r in recs]) for recs in by_n])
    slope_pw, se_pw = fit_loglog_slope(ns, med_pw)
    slope_l1, se_l1 = fit_loglog_slope(ns, med_l1)
    target = expected_rate_slope(gamma, scn.beta)
    tol = float(cfg.tolerances.get("slope", 0.07))

    summary = {
        "gamma": gamma,
        "medians_pointwise": med_pw.tolist(),
        "medians_l1": med_l1.tolist(),
        "slope_pointwise": slope_pw,
        "slope_pointwise_se": se_pw,
        "slope_l1": slope_l1,
        "slope_l1_se": se_l1,
        "target_slope": target,
    }
    flags = {
        "slope_pointwise_within_tolerance": abs(slope_pw - target) <= tol,
        "slope_l1_within_tolerance": abs(slope_l1 - target) <= tol,
    }

    manifest = {
        "study": "rate",
        **summary,  # the gamma, target, fitted slopes and the medians they fit
        "n_list": list(cfg.n_list),
        "replicates": cfg.replicates,
        "x0": cfg.x0,
        "seed_base": cfg.seed_base,
        "flags": flags,
    }

    if _regime(scn) == "slow" and cfg.centering_draws >= 10_000:
        n_big = cfg.n_list[-1]
        abs_mean = limits.chernoff_abs_mean()
        edge, edge_se = limits.edge_layer_constant(
            limits.DEFAULT_EDGE_GRID,
            cfg.centering_draws,
            stream(cfg.seed_base, _EXP_CONSTANTS, 2),
        )
        first = limits.mu_n(scn, n_big, abs_mean, QuadratureCfg(1e-9))
        layer = limits.boundary_term(scn, n_big, edge)
        t = scn.law.half_width
        rate = (n_big / scn.delta(n_big)) ** (1.0 / 3.0)
        mean_scaled = float(np.mean([rate * r[3] for r in by_n[-1]]))
        summary["centering"] = {
            "n": n_big,
            "abs_mean": abs_mean,
            "mu_n": first,
            "edge_constant": edge,
            "edge_constant_se": edge_se,
            "edge_widths": [limits.local_width(scn, n_big, e) for e in (-t, t)],
            "boundary_term": layer,
            "mean_scaled_l1": mean_scaled,
            "ratio_first_order": mean_scaled / first,
            "ratio": mean_scaled / (first + layer),
        }
        manifest["centering"] = summary["centering"]
        ctol = float(cfg.tolerances.get("centering", 0.10))
        flags["l1_centering_within_tolerance"] = abs(summary["centering"]["ratio"] - 1.0) <= ctol

    return StudyResult(
        ("gamma", "n", "replicate", "err_pointwise", "err_l1"),
        records,
        summary,
        manifest,
    )


# ---------------------------------------------------------------------------
# limit-law comparison


def _pointwise_stat(scn: Scenario, arg, n: int, sample) -> tuple:
    scale, x0, _, target = arg
    return (float(scale * (float(npmle_fit(sample)(x0)) - target)),)


def _l1_stat(scn: Scenario, arg, n: int, sample) -> tuple:
    scale, _, phi, _ = arg
    return (float(scale * l1_error(npmle_fit(sample), phi, "empirical", sample=sample)),)


def run_limit_comparison(cfg: StudyConfig) -> StudyResult:
    """Standardized finite-sample statistics against the matched limit law."""
    if cfg.regime is None:
        raise ValueError("limit comparison needs a regime")
    scn = cfg.scenario
    scn_regime, tag = REGIMES[cfg.regime]
    if _regime(scn) != scn_regime:
        raise ValueError(
            f"regime {cfg.regime!r} is inconsistent with gamma={scn.impact_exponent} "
            f"and flatness order {scn.beta}"
        )
    gamma = scn.impact_exponent
    if tag == "scaled_chernoff" and scn.beta != 1:
        tag = "slow_fbeta"

    # the limit law does not depend on n: the boundary regime pins gamma to
    # 1/(2 beta), so c = n delta_n^(2 beta) is impact_scale^(2 beta) for
    # every n (the product itself rounds differently per n); one batch
    # serves every size
    c = scn.impact_scale ** (2 * scn.beta) if tag == "boundary_gbc" else 0.0
    draws = limits.sample_limit_batch(
        tag,
        cfg.limit_draws,
        cfg.seed_base,
        link=scn.link,
        law=scn.law,
        x0=cfg.x0,
        beta=scn.beta,
        c=c,
    ).draws

    stat = _l1_stat if cfg.regime == "fast_l1" else _pointwise_stat
    exponent = scn.beta / (2.0 * scn.beta + 1.0)
    heads = []
    for n in cfg.n_list:
        phi = scn.phi_fn(n)
        scale = (n / scn.delta(n)) ** exponent if scn_regime == "slow" else math.sqrt(n)
        heads.append((stat, (_EXP_LIMIT,), scn, (scale, cfg.x0, phi, phi(cfg.x0)), n))
    records: list[tuple] = []
    extras: dict = {"finite": {}, "limit": {}}
    ks_by_n: dict[int, float] = {}
    for n, stats in zip(cfg.n_list, _replicates(heads, cfg)):
        finite = np.array([s[2] for s in stats])
        ks = ks_two_sample(finite, draws)
        ks_by_n[n] = ks
        records.append((cfg.regime, int(n), gamma, ks, len(finite), len(draws)))
        extras["finite"][n] = finite
        extras["limit"][n] = draws

    tol = float(cfg.tolerances.get("ks", 0.10))
    flags = {f"ks_within_tolerance_n{n}": ks_by_n[n] <= tol for n in cfg.n_list}
    manifest = {
        "study": "limit_compare",
        "regime": cfg.regime,
        "gamma": gamma,
        "n_list": list(cfg.n_list),
        "replicates": cfg.replicates,
        "limit_draws": cfg.limit_draws,
        "x0": cfg.x0,
        "seed_base": cfg.seed_base,
        "ks": {str(n): ks_by_n[n] for n in cfg.n_list},
        "ks_tolerance": tol,
        "flags": flags,
    }
    if cfg.regime == "boundary_pointwise":
        manifest["standardization_c"] = {str(n): c for n in cfg.n_list}
    return StudyResult(
        ("kind", "n", "gamma", "ks", "draws_finite", "draws_limit"),
        records,
        {"ks": ks_by_n},
        manifest,
        extras,
    )


# ---------------------------------------------------------------------------
# lower-bound audit


def run_lower_bound_audit(cfg: AuditConfig) -> StudyResult:
    """Numerical verification of the two-point and hypercube budgets.

    Builds both hypothesis pairs and the hypercube, checks slope-band
    membership of every function, evaluates the sample-size-scaled
    squared Hellinger distances by quadrature, and compares them to the
    closed-form budgets (which must stay below 2 for the reduction to
    testing to bite).
    """
    law = cfg.law
    sup_p = law.sup_density
    q = QuadratureCfg(cfg.quad_tol)
    c_fast = default_fast_pair_constant() if cfg.c_fast is None else cfg.c_fast
    c_slow = default_slow_pair_constant(law) if cfg.c_slow is None else cfg.c_slow
    c_cube = default_cube_constant(law) if cfg.c_cube is None else cfg.c_cube

    records: list[tuple] = []
    flags: dict[str, bool] = {}
    inequalities: list[str] = []

    def push(case: str, quantity: str, value: float, budget: float) -> None:
        ok = value <= budget + cfg.quad_tol and budget < 2.0
        records.append((case, quantity, float(value), float(budget), ok))
        flags[f"{case}:{quantity}"] = ok
        inequalities.append(
            f"{case}: {quantity} = {value:.6g} <= {budget:.6g} < 2"
        )

    alpha = {
        "fast": 4.0 * c_fast**2,
        "slow": 64.0 * c_slow**3 * sup_p,
        "cube": 64.0 * c_cube**3 * sup_p,
    }
    pairs = {}  # the fast and the slow two-point pair
    for case, delta, n, c in (
        ("fast", cfg.delta_fast, cfg.n_fast, c_fast),
        ("slow", cfg.delta_slow, cfg.n_slow, c_slow),
    ):
        pair = pairs[f"{case}_pair"] = build_pointwise_hypotheses(delta, n, c, law, cfg.x0)
        for name, fn in (("upper", pair.upper), ("lower", pair.lower)):
            flags[f"{case}:{name}_membership"] = in_slope_band(fn, delta, law.half_width)
        d = hellinger(pair.upper, pair.lower, law, q)
        push(f"{case}_pair", "n_d2", n * d * d, alpha[case])
        sep_target = 2.0 * c * max(n ** (-0.5), (n / delta) ** (-1.0 / 3.0))
        flags[f"{case}:separation_exact"] = abs(pair.separation - sep_target) < 1e-12

    # hypercube, cell by cell
    cube = build_assouad_cube(cfg.delta_slow, cfg.n_slow, c_cube, law.half_width)
    base = cube.function(np.zeros(cube.m, dtype=int))
    flags["cube:base_membership"] = in_slope_band(base, cfg.delta_slow, law.half_width)
    flags["cube:ones_membership"] = in_slope_band(
        cube.function(np.ones(cube.m, dtype=int)), cfg.delta_slow, law.half_width
    )
    gap_ok = cube.one_flip_l1() >= cube.one_flip_l1_lower_bound() - 1e-15
    for k in range(cube.m):
        bits = np.zeros(cube.m, dtype=int)
        bits[k] = 1
        flipped = cube.function(bits)
        d = hellinger(base, flipped, law, q)
        push(f"cube_flip_{k}", "n_d2", cfg.n_slow * d * d, alpha["cube"])
        flags[f"cube_flip_{k}:l1_gap"] = gap_ok

    manifest = {
        "study": "lower_bound_audit",
        "constants": {"fast": c_fast, "slow": c_slow, "cube": c_cube},
        "alpha": alpha,
        "cube_cells": cube.m,
        "inequalities": inequalities,
        "flags": flags,
    }
    return StudyResult(
        ("case", "quantity", "value", "budget", "ok"),
        records,
        {"alpha": alpha},
        manifest,
        {**pairs, "cube": cube},
    )


# ---------------------------------------------------------------------------
# inverse-process tail probe


def _tail_stat(scn: Scenario, arg, n: int, sample) -> tuple:
    a, lam_inv = arg
    grid_t, _ = inverse_process(sample, a)
    return (abs(grid_t - lam_inv),)


def run_tail_bound_probe(cfg: StudyConfig) -> StudyResult:
    """Empirical tails and scaling of the inverse process at level phi_n(x0).

    Records |largest minimizer - population inverse| per replicate,
    reports exceedance frequencies at the configured thresholds, and fits
    the log-log slope of the per-n medians, whose target is
    ``-(1 - 2 gamma) / 3`` in the slow regime.
    """
    scn = cfg.scenario
    if _regime(scn) != "slow":
        raise ValueError("the tail probe is a slow-regime instrument")
    if len(cfg.n_list) < 3:
        raise ValueError(
            f"tail probe needs at least 3 sample sizes for its slope fit, got {len(cfg.n_list)}"
        )
    gamma = scn.impact_exponent
    heads = []
    for n in cfg.n_list:
        phi = scn.phi_fn(n)
        a = phi(cfg.x0)
        heads.append((_tail_stat, (_EXP_TAIL,), scn, (a, float(scn.law.cdf(phi.inverse(a)))), n))
    by_n = _replicates(heads, cfg)
    records = [r for recs in by_n for r in recs]

    ns = np.array(cfg.n_list, dtype=float)
    devs_by_n = {n: np.array([r[2] for r in recs]) for n, recs in zip(cfg.n_list, by_n)}
    medians = np.array([np.median(devs_by_n[n]) for n in cfg.n_list])
    slope, se = fit_loglog_slope(ns, medians)
    target = -(1.0 - 2.0 * gamma) / 3.0
    tol = float(cfg.tolerances.get("slope", 0.1))

    freqs = {
        str(n): {
            repr(float(x)): float(np.mean(devs_by_n[n] >= x)) for x in cfg.probe_xs
        }
        for n in cfg.n_list
    }
    vacuous = {
        str(n): [
            repr(float(x))
            for x in cfg.probe_xs
            if x < (n * scn.delta(n) ** 2) ** (-1.0 / 3.0)
        ]
        for n in cfg.n_list
    }
    flags = {"slope_within_tolerance": abs(slope - target) <= tol}
    manifest = {
        "study": "tail_probe",
        "gamma": gamma,
        "n_list": list(cfg.n_list),
        "replicates": cfg.replicates,
        "seed_base": cfg.seed_base,
        "slope": slope,
        "slope_se": se,
        "target_slope": target,
        "exceedance_frequencies": freqs,
        "vacuous_thresholds": vacuous,
        "flags": flags,
    }
    return StudyResult(
        ("n", "replicate", "deviation"),
        records,
        {"medians": medians.tolist(), "slope": slope, "slope_se": se},
        manifest,
    )


# ---------------------------------------------------------------------------
# consistency behaviors


def _hellinger_stat(scn: Scenario, phi, n: int, sample) -> tuple:
    return (float(hellinger(npmle_fit(sample), phi, scn.law, QuadratureCfg(1e-8))),)


def _supnorm_stat(scn: Scenario, phi, n: int, sample) -> tuple:
    t = scn.law.half_width
    return (float(sup_norm_on(npmle_fit(sample), phi, (-t / 2.0, t / 2.0))),)


def run_consistency_study(
    cfg: StudyConfig,
    hellinger_ns: tuple[int, int] = (400, 6400),
    sup_gammas: tuple[float, ...] = (0.25, 0.8),
) -> StudyResult:
    """Hellinger shrink ratio at fixed curve, sup-norm decay under impact decay.

    The Hellinger half runs the zero-exponent scenario at the two given
    sizes and flags ``median(big) / median(small) <= 0.55``; the sup-norm
    half runs each given exponent across the study ladder on the central
    half-support and flags strict decrease of the medians.
    """
    if len(hellinger_ns) != 2 or not 1 <= hellinger_ns[0] < hellinger_ns[1]:
        raise ValueError(
            f"hellinger_ns must be two strictly increasing sizes, got {tuple(hellinger_ns)}"
        )
    if len(set(sup_gammas)) < len(sup_gammas):
        raise ValueError(f"sup_gammas must be without repeats, got {tuple(sup_gammas)}")
    fixed = replace(cfg.scenario, impact_exponent=0.0)
    heads = [
        (_hellinger_stat, (_EXP_CONSISTENCY, 1), fixed, fixed.phi_fn(n), n) for n in hellinger_ns
    ]
    for gamma in sup_gammas:
        scn = replace(cfg.scenario, impact_exponent=gamma)
        heads += [(_supnorm_stat, (_EXP_CONSISTENCY, 2), scn, scn.phi_fn(n), n) for n in cfg.n_list]
    by_head = _replicates(heads, cfg)
    records = [
        ("hellinger" if stat is _hellinger_stat else "supnorm", scn.impact_exponent, *rec)
        for (stat, _, scn, _, _), recs in zip(heads, by_head)
        for rec in recs
    ]
    # sup_gammas come in the caller's order; the records go by (check, gamma, n, r)
    records.sort(key=lambda r: (r[0], r[1], r[2], r[3]))

    meds = [float(np.median([r[2] for r in recs])) for recs in by_head]
    h_small, h_big = meds[:2]
    ratio = h_big / h_small
    rtol = float(cfg.tolerances.get("hellinger_ratio", 0.55))
    flags = {"hellinger_ratio": ratio <= rtol}
    sup_medians = {}
    k = len(cfg.n_list)
    for i, gamma in enumerate(sup_gammas):
        sup_medians[str(gamma)] = m = meds[2 + i * k : 2 + (i + 1) * k]
        flags[f"supnorm_decreasing_gamma{gamma}"] = all(b < a for a, b in zip(m, m[1:]))
    manifest = {
        "study": "consistency",
        "hellinger_ns": list(hellinger_ns),
        "hellinger_medians": [h_small, h_big],
        "hellinger_ratio": ratio,
        "sup_gammas": list(sup_gammas),
        "sup_medians": sup_medians,
        "n_list": list(cfg.n_list),
        "replicates": cfg.replicates,
        "seed_base": cfg.seed_base,
        "flags": flags,
    }
    return StudyResult(
        ("check", "gamma", "n", "replicate", "value"),
        records,
        {"hellinger_ratio": ratio, "sup_medians": sup_medians},
        manifest,
    )
