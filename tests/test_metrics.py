"""Hellinger distance, exact L1 integration, sup norm, two-sample KS."""

import numpy as np
import pytest

from monotone_wfi.estimator import StepEstimate, npmle_fit
from monotone_wfi.metrics import (
    QuadratureCfg,
    QuadratureError,
    _gl_integrate,
    _split_points,
    hellinger,
    ks_two_sample,
    l1_error,
    sup_norm_on,
)
from monotone_wfi.model import (
    FeatureLaw,
    LinkCurve,
    LinkSpec,
    Sample,
    Scenario,
    build_pointwise_hypotheses,
    draw_sample,
)
from monotone_wfi.streams import stream

UNIFORM = FeatureLaw("uniform", 1.0)
POLY = FeatureLaw("polynomial", 1.0, (0.5,))


def _const(c):
    return lambda x: np.full_like(np.asarray(x, dtype=float), c)


def _random_step(rng, k=8):
    jumps = np.sort(rng.uniform(-1, 1, k))
    vals = np.sort(rng.random(k))
    return StepEstimate(jumps, vals)


def _two_pass_l1(step, target, lo, hi):
    """Lebesgue L1 error with a target pass and a quadrature batch per half-piece.

    Returns the error and the number of pieces the target crosses.
    """
    edges = _split_points(lo, hi, step, target)
    a, b = edges[:-1], edges[1:]
    levels = np.asarray(step(a), dtype=float)
    ta = np.asarray(target(a), dtype=float)
    tb = np.asarray(target(np.nextafter(b, a)), dtype=float)
    c = np.where(ta >= levels, a, b)
    is_open = (ta < levels) & (tb > levels)
    if is_open.any():
        c[is_open] = np.clip(target.inverse(levels[is_open]), a[is_open], b[is_open])

    def gap(x):
        return np.abs(levels[:, None] - np.asarray(target(x)))

    total = float(np.sum(_gl_integrate(gap, a, c) + _gl_integrate(gap, c, b)))
    return total, int(is_open.sum())


class TestQuadrature:
    def test_config_validation(self):
        for tol in (0.0, -1e-9, float("nan")):
            with pytest.raises(ValueError):
                QuadratureCfg(abs_tol=tol)

    def test_hidden_jump_raises(self):
        # a jump the target does not expose as a breakpoint fails the
        # 32-node against two 16-node halves check; exposed, it passes
        hidden = lambda x: np.where(np.asarray(x) < 0.123456, 0.2, 0.7)
        with pytest.raises(QuadratureError, match="not smooth"):
            hellinger(hidden, _const(0.5), UNIFORM, QuadratureCfg(1e-8))
        exposed = StepEstimate(np.array([-1.0, 0.123456]), np.array([0.2, 0.7]))
        assert hellinger(exposed, _const(0.5), UNIFORM, QuadratureCfg(1e-14)) > 0.0


class TestHellinger:
    def test_identical_curves(self):
        f = _const(0.37)
        assert hellinger(f, f, UNIFORM) == 0.0

    def test_opposite_constants(self):
        assert hellinger(_const(0.0), _const(1.0), UNIFORM) == pytest.approx(1.0, abs=1e-12)

    def test_fast_pair_budget(self):
        pair = build_pointwise_hypotheses(0.001, 400, 0.4, UNIFORM, 0.0)
        d = hellinger(pair.upper, pair.lower, UNIFORM, QuadratureCfg(1e-11))
        assert 400 * d * d <= 4 * 0.4**2
        assert 400 * d * d > 0.1  # not vacuous

    def test_metric_properties_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            f, g, h = (_random_step(rng) for _ in range(3))
            dfg = hellinger(f, g, POLY)
            dgf = hellinger(g, f, POLY)
            assert dfg == pytest.approx(dgf, abs=1e-9)
            assert 0.0 <= dfg <= 1.0 + 1e-12
            dfh = hellinger(f, h, POLY)
            dhg = hellinger(h, g, POLY)
            assert dfg <= dfh + dhg + 1e-9

    def test_dominates_l1_under_feature_law(self):
        # squared distance at least a quarter of the squared weighted L1 gap;
        # the uniform law's density is 1/2, so that gap is half the Lebesgue one
        rng = np.random.default_rng(9)
        for _ in range(10):
            f = _random_step(rng)
            g = _random_step(rng)
            d2 = hellinger(f, g, UNIFORM) ** 2
            l1 = 0.5 * l1_error(f, g, "lebesgue", interval=(-1, 1))
            assert d2 >= 0.25 * l1 * l1 - 1e-8


class TestL1Error:
    def test_identical_constant(self):
        step = StepEstimate(np.array([-0.5]), np.array([0.5]))
        target = lambda x: step(x)
        assert l1_error(step, target, "lebesgue", interval=(-1, 1)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_constant_half_gap(self):
        empty = StepEstimate(np.array([]), np.array([]))
        assert l1_error(empty, _const(0.5), "lebesgue", interval=(-1, 1)) == pytest.approx(
            1.0, abs=1e-13
        )

    @pytest.mark.parametrize("interval", [(1.0, 1.0), (1.0, -1.0)])
    def test_empty_interval_is_zero(self, interval):
        step = StepEstimate(np.array([-0.5]), np.array([0.5]))
        assert l1_error(step, _const(0.25), "lebesgue", interval=interval) == 0.0

    def test_affine_target_closed_form(self):
        empty = StepEstimate(np.array([]), np.array([]))
        target = lambda x: (np.asarray(x, dtype=float) + 1.0) / 4.0
        assert l1_error(empty, target, "lebesgue", interval=(-1, 1)) == pytest.approx(
            0.5, abs=1e-13
        )

    def test_matches_riemann_on_random_instances(self):
        rng = np.random.default_rng(10)
        link = LinkSpec("logistic")
        grid = np.linspace(-1, 1, 1_000_001)
        for _ in range(5):
            step = _random_step(rng, k=10)
            delta = rng.uniform(0.1, 2.0)
            target = LinkCurve(link, delta)
            exact = l1_error(step, target, "lebesgue", interval=(-1, 1))
            brute = np.trapezoid(np.abs(step(grid) - target(grid)), grid)
            assert exact == pytest.approx(brute, abs=1e-6)

    def test_matches_softplus_closed_form(self):
        # the integral of sigma(d x) from u to v is log1p(sigma(d u) expm1(d (v - u))) / d
        rng = np.random.default_rng(11)
        link = LinkSpec("logistic")
        for _ in range(20):
            step = _random_step(rng, k=10)
            delta = rng.uniform(0.1, 2.0)
            target = LinkCurve(link, delta)

            def area(u, v):
                return np.log1p(target(u) * np.expm1(delta * (v - u))) / delta

            edges = np.concatenate(([-1.0], step.jump_xs, [1.0]))
            ref = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                level = step(a)
                c = min(max(float(np.log(level / (1.0 - level))) / delta, a), b) if level > 0 else a
                ref += level * (c - a) - area(a, c) + area(c, b) - level * (b - c)
            got = l1_error(step, target, "lebesgue", interval=(-1, 1))
            assert got == pytest.approx(ref, rel=1e-14)

    def test_affine_link_kinks_are_split(self):
        # the clamped affine link kinks at x = -1/4 and 1/4; against the exact
        # integral of the piecewise-linear gap, split at every jump, kink and crossing
        scn = Scenario(LinkSpec("affine", 1, (0.5, 2.0)), UNIFORM, 1.0, 0.0)
        phi = scn.phi_fn(2000)
        np.testing.assert_array_equal(phi.breakpoints, [-0.25, 0.25])
        for r in range(10):
            fit = npmle_fit(draw_sample(scn, 2000, stream(22, r)))
            pts = np.unique(np.concatenate(([-1.0, -0.25, 0.25, 1.0], fit.jump_xs)))
            pts = pts[(pts >= -1.0) & (pts <= 1.0)]
            ref = 0.0
            for a, b in zip(pts[:-1], pts[1:]):
                ga, gb = fit(a) - phi(a), fit(a) - phi(b)  # linear on [a, b]
                if ga * gb < 0:
                    c = a + (b - a) * ga / (ga - gb)
                    ref += 0.5 * ((c - a) * abs(ga) + (b - c) * abs(gb))
                else:
                    ref += 0.5 * (b - a) * (abs(ga) + abs(gb))
            got = l1_error(fit, phi, "lebesgue", interval=(-1, 1))
            assert got == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("link", [
        LinkSpec("logistic"),
        LinkSpec("probit", params=(2.0,)),
        LinkSpec("affine", 1, (0.5, 2.0)),  # kinks at x = -1/4 and 1/4
        LinkSpec("beta_flat", beta=3),
        LinkSpec("constant", params=(0.3,)),
    ])
    def test_bitwise_equal_to_two_pass_formula(self, link):
        scn = Scenario(link, UNIFORM, 1.0, 0.0, beta=link.beta)
        phi = scn.phi_fn(500)
        crossings = 0
        for r in range(4):
            fit = npmle_fit(draw_sample(scn, 500, stream(23, r)))
            for lo, hi in ((-1.0, 1.0), (-0.6, 0.2), (fit.jump_xs[0], 0.9)):
                ref, opened = _two_pass_l1(fit, phi, lo, hi)
                got = l1_error(fit, phi, "lebesgue", interval=(lo, hi))
                assert np.float64(got).tobytes() == np.float64(ref).tobytes()
                crossings += opened
        assert (crossings > 0) == (link.kind != "constant")

    def test_empirical_measure(self):
        s = Sample.from_draws([0.0, 1.0, 2.0, 2.0], [0, 1, 1, 0])
        step = StepEstimate(np.array([0.5]), np.array([1.0]))
        target = _const(0.5)
        # deviations: |0-.5|=.5 (w1), |1-.5|=.5 (w1), |1-.5|=.5 (w2)
        got = l1_error(step, target, "empirical", sample=s)
        assert got == pytest.approx(0.5)

    def test_target_kinks_are_split(self):
        # piecewise-affine target with interior kinks must integrate exactly
        pair = build_pointwise_hypotheses(0.1, 10_000, 0.09, UNIFORM, 0.0)
        empty = StepEstimate(np.array([]), np.array([]))
        exact = l1_error(empty, pair.upper, "lebesgue", interval=(-1, 1))
        grid = np.linspace(-1, 1, 2_000_001)
        brute = np.trapezoid(np.abs(pair.upper(grid)), grid)
        assert exact == pytest.approx(brute, abs=1e-7)

    def test_validation(self):
        empty = StepEstimate(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            l1_error(empty, _const(0.5), "lebesgue")
        with pytest.raises(ValueError):
            l1_error(empty, _const(0.5), "empirical")
        with pytest.raises(ValueError):
            l1_error(empty, _const(0.5), "total_variation", interval=(-1, 1))


class TestSupNorm:
    def test_identical_constants(self):
        step = StepEstimate(np.array([-2.0]), np.array([0.5]))
        assert sup_norm_on(step, _const(0.5), (-1, 1)) == 0.0
        empty = StepEstimate(np.array([]), np.array([]))
        assert sup_norm_on(empty, _const(0.0), (-1, 1)) == 0.0

    def test_constant_gap(self):
        empty = StepEstimate(np.array([]), np.array([]))
        assert sup_norm_on(empty, _const(0.3), (-1, 1)) == pytest.approx(0.3)

    def test_single_jump_vs_affine(self):
        step = StepEstimate(np.array([0.0]), np.array([0.6]))
        target = lambda x: (np.asarray(x, dtype=float) + 1.0) / 4.0
        # candidates: 0 at -1, |0-0.25| left of jump, |0.6-0.25| at jump, |0.6-0.5| at 1
        assert sup_norm_on(step, target, (-1, 1)) == pytest.approx(0.35, abs=1e-12)

    def test_against_dense_grid(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            step = _random_step(rng)
            target = lambda x: 1.0 / (1.0 + np.exp(-2.0 * np.asarray(x)))
            exact = sup_norm_on(step, target, (-0.9, 0.9))
            grid = np.linspace(-0.9, 0.9, 200_001)
            brute = np.max(np.abs(step(grid) - target(grid)))
            assert exact >= brute - 1e-9
            assert exact == pytest.approx(brute, abs=1e-4)


class TestKsTwoSample:
    def test_identical(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_singletons(self):
        assert ks_two_sample([0.0], [1.0]) == 1.0

    def test_interleaved(self):
        assert ks_two_sample([1.0, 2.0], [1.5, 2.5]) == 0.5

    def test_rank_invariance(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=300)
        b = rng.normal(0.3, 1.2, size=200)
        base = ks_two_sample(a, b)
        transform = lambda v: np.exp(v) + v**3
        assert ks_two_sample(transform(a), transform(b)) == pytest.approx(base, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestOnFittedCurves:
    def test_hellinger_of_fit_is_small(self):
        scn = Scenario(LinkSpec("logistic"), UNIFORM, 1.0, 0.0)
        s = draw_sample(scn, 2000, stream(21, 0))
        fit = npmle_fit(s)
        d = hellinger(fit, scn.phi_fn(2000), UNIFORM, QuadratureCfg(1e-8))
        assert 0.0 < d < 0.1
