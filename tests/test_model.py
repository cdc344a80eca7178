"""Links, feature laws, sampling, and hypothesis constructions."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from link_oracle import logistic_split
from sample_oracle import sample_dataset, sample_to_csv_text
from scipy.integrate import quad
from scipy.special import erf

from monotone_wfi.model import (
    FeatureLaw,
    LinkCurve,
    LinkSpec,
    PiecewiseAffine,
    Sample,
    Scenario,
    build_assouad_cube,
    build_pointwise_hypotheses,
    default_cube_constant,
    default_slow_pair_constant,
    draw_sample,
    in_slope_band,
    link_eval,
    link_inverse,
    link_slope,
    phi_n,
    slope_band_report,
)
from monotone_wfi.streams import stream

LOGISTIC = LinkSpec("logistic")
UNIFORM = FeatureLaw("uniform", 1.0)
POLY = FeatureLaw("polynomial", 1.0, (0.5,))

ALL_LINKS = [
    LOGISTIC,
    LinkSpec("probit", params=(1.0,)),
    LinkSpec("probit", params=(2.0,)),
    LinkSpec("beta_flat", beta=3),
    LinkSpec("beta_flat", beta=5),
    LinkSpec("affine", params=(0.4, 0.2)),
]


def _fd_central(f, u, h):
    return (f(u + h) - f(u - h)) / (2.0 * h)


def _fd_slope(f, u, h):
    """Richardson-extrapolated central difference (O(h^4) truncation)."""
    return (4.0 * _fd_central(f, u, h / 2) - _fd_central(f, u, h)) / 3.0


class TestLinkValues:
    def test_logistic_center_and_saturation(self):
        assert link_eval(LOGISTIC, 0.0) == 0.5
        assert abs(link_eval(LOGISTIC, 50.0) - 1.0) < 1e-15

    def test_beta_flat_cubic_at_zero(self):
        link = LinkSpec("beta_flat", beta=3)
        assert link_eval(link, 0.0) == 0.5
        assert link_slope(link, 0.0) == 0.0
        assert link.taylor_coefficient == 0.25

    def test_logistic_first_derivative(self):
        assert link_slope(LOGISTIC, 0.0) == 0.25
        assert LOGISTIC.taylor_coefficient == 0.25

    def test_values_in_unit_interval_and_monotone(self):
        grid = np.linspace(-8, 8, 4001)
        for link in ALL_LINKS:
            vals = link_eval(link, grid)
            assert np.all(vals >= 0) and np.all(vals <= 1)
            assert np.all(np.diff(vals) >= 0)
            assert 0.0 < link_eval(link, 0.0) < 1.0

    def test_flatness_structure(self):
        for link in ALL_LINKS:
            if link.beta > 1:
                assert link_slope(link, 0.0) == 0.0
            assert link.taylor_coefficient > 0

    def test_derivatives_match_finite_differences(self):
        links = ALL_LINKS + [LinkSpec("constant", params=(0.3,))]
        for link in links:
            for u in (-1.0, -0.3, 0.0, 0.4, 1.0):
                fd = _fd_slope(lambda v: link_eval(link, v), u, 2e-3)
                assert link_slope(link, u) == pytest.approx(fd, rel=1e-6, abs=2e-6), (
                    link.kind,
                    link.beta,
                    u,
                )
        assert link_slope(LinkSpec("affine", params=(0.4, 0.2)), 3.5) == 0.0  # clamped at 1

    @pytest.mark.parametrize(
        "link", ALL_LINKS[:5], ids=["logistic", "probit1", "probit2", "beta_flat3", "beta_flat5"]
    )
    def test_leading_derivative_matches_difference_quotient(self, link):
        # phi0(u) - phi0(0) = (phi0^(beta)(0) / beta!) u^beta + O(u^(beta+1))
        u = 1e-6 ** (1.0 / link.beta)
        quotient = (link_eval(link, u) - link.value_at_zero) / u**link.beta
        assert link.taylor_coefficient == pytest.approx(quotient, rel=1e-6)

    def test_even_beta_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            LinkSpec("beta_flat", beta=2)

    @pytest.mark.parametrize(
        "kind, params",
        [("logistic", ()), ("probit", (1.0,)), ("affine", ()), ("constant", (0.5,))],
    )
    def test_only_beta_flat_takes_higher_flatness(self, kind, params):
        with pytest.raises(ValueError, match="beta = 1"):
            LinkSpec(kind, beta=3, params=params)

    def test_inverse_round_trip(self):
        for link in ALL_LINKS:
            for p in (0.3, 0.5, 0.62):
                if link.kind == "affine" and not (0 < (p - 0.4) / 0.2 < 1):
                    continue
                u = link_inverse(link, p)
                assert link_eval(link, u) == pytest.approx(p, abs=1e-12)

    def test_inverse_is_vectorized_with_infinite_ends(self):
        ps = np.array([0.0, 0.3, 0.5, 0.62, 1.0])
        for link in ALL_LINKS[:5]:  # the links that never reach 0 or 1
            us = link_inverse(link, ps)
            assert us[0] == -np.inf and us[-1] == np.inf and us[2] == 0.0
            for p, u in zip(ps[1:-1], us[1:-1]):
                assert u == link_inverse(link, float(p))
            assert type(link_inverse(link, 0.3)) is float
        affine = LinkSpec("affine", params=(0.4, 0.2))
        np.testing.assert_allclose(link_inverse(affine, np.array([0.0, 1.0])), [-2.0, 3.0])
        with pytest.raises(ValueError, match="no inverse"):
            link_inverse(LinkSpec("constant", params=(0.5,)), 0.5)

    def test_noise_scale(self):
        assert LOGISTIC.noise_scale == pytest.approx(0.5)
        link = LinkSpec("affine", params=(0.4, 0.2))
        assert link.noise_scale == pytest.approx(math.sqrt(0.4 * 0.6))


_TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
_LOGISTIC_EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
    709.0, -709.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0,
    _TINY, -_TINY, 2 * _TINY, -2 * _TINY,
])


class TestLogisticOracle:
    """The one-pass logistic against the masked split form, bit for bit (NaN signs too)."""

    def test_edge_values(self):
        for k in range(_LOGISTIC_EDGES.size):  # each value in every position of the array
            u = np.roll(_LOGISTIC_EDGES, k)
            assert link_eval(LOGISTIC, u).tobytes() == logistic_split(u).tobytes()
        for v in _LOGISTIC_EDGES:
            assert link_eval(LOGISTIC, v[None]).tobytes() == logistic_split(v[None]).tobytes()

    def test_random_values(self):
        u = np.random.default_rng(17).uniform(-800.0, 800.0, 10**6)
        assert link_eval(LOGISTIC, u).tobytes() == logistic_split(u).tobytes()

    def test_scalar_input_returns_a_float(self):
        for v in map(float, _LOGISTIC_EDGES):
            out = link_eval(LOGISTIC, v)
            assert type(out) is float
            assert np.float64(out).tobytes() == logistic_split(v).tobytes()
            assert type(link_slope(LOGISTIC, v)) is float
            assert type(link_eval(LinkSpec("beta_flat", beta=3), v)) is float

    def test_slope_and_beta_flat(self):
        rng = np.random.default_rng(18)
        u = np.concatenate([_LOGISTIC_EDGES, rng.uniform(-12.0, 12.0, 10**5)])
        lam = logistic_split(u)
        assert link_slope(LOGISTIC, u).tobytes() == (lam * (1.0 - lam)).tobytes()
        flat = LinkSpec("beta_flat", beta=3)
        lam3 = logistic_split(u**3)
        assert link_eval(flat, u).tobytes() == lam3.tobytes()
        not_inf = ~np.isinf(u)  # NaN inputs stay: they keep their bits
        slope = 3 * u[not_inf] ** 2 * lam3[not_inf] * (1.0 - lam3[not_inf])
        assert link_slope(flat, u[not_inf]).tobytes() == slope.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow and no inf * 0 on the way
            huge = np.array([np.inf, -np.inf, 1e155, -1e155])
            assert link_slope(flat, huge).tobytes() == np.zeros(4).tobytes()
            assert link_slope(flat, np.inf) == 0.0 and link_slope(flat, -1e155) == 0.0
        assert LinkCurve(flat, 0.7)(u).tobytes() == logistic_split((0.7 * u) ** 3).tobytes()


class TestFeatureLaws:
    def test_uniform_values(self):
        assert UNIFORM.density(0.0) == 0.5
        assert UNIFORM.quantile(0.75) == pytest.approx(0.5, abs=1e-15)
        assert UNIFORM.cdf(-1.0) == 0.0
        assert UNIFORM.cdf(1.0) == 1.0

    @pytest.mark.parametrize("law", [UNIFORM, POLY, FeatureLaw("polynomial", 2.0, (0.8,))])
    def test_density_integrates_to_one(self, law):
        total, _ = quad(law.density, -law.half_width, law.half_width, epsabs=1e-13)
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("law", [UNIFORM, POLY])
    def test_quantile_inverts_cdf(self, law):
        s = np.linspace(0, 1, 201)
        q = law.quantile(s)
        assert np.max(np.abs(law.cdf(q) - s)) < 1e-10
        assert law.cdf(-law.half_width) == 0.0
        assert law.cdf(law.half_width) == 1.0

    @pytest.mark.parametrize("law", [UNIFORM, POLY])
    def test_density_vanishes_off_the_support(self, law):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0 * inf on the way
            off = law.density(np.array([-np.inf, -1.5, 1.0 + 1e-12, 1e200, np.inf]))
        assert np.array_equal(off, np.zeros(5))

    @pytest.mark.parametrize("law", [UNIFORM, POLY])
    def test_density_is_cdf_derivative(self, law):
        for x in np.linspace(-0.9, 0.9, 19):
            fd = (law.cdf(x + 1e-5) - law.cdf(x - 1e-5)) / 2e-5
            assert fd == pytest.approx(float(law.density(x)), rel=1e-6, abs=1e-6)

    def test_density_positive_and_continuous(self):
        grid = np.linspace(-1, 1, 2001)
        for law in (UNIFORM, POLY):
            d = law.density(grid)
            assert np.all(d > 0)
            assert np.max(np.abs(np.diff(d))) < 0.01

    def test_quantile_domain_error(self):
        with pytest.raises(ValueError):
            UNIFORM.quantile(1.5)
        with pytest.raises(ValueError):
            POLY.quantile(-0.1)
        for law in (UNIFORM, POLY):
            with pytest.raises(ValueError, match="quantile argument"):
                law.quantile(np.array([0.5, np.nan]))

    def test_sup_density(self):
        assert UNIFORM.sup_density == 0.5
        assert POLY.sup_density == pytest.approx(1.0)

    @pytest.mark.parametrize("half_width", [0.3, 1.0, 2.0, 1e-100, 1e100])
    def test_uniform_cdf_is_the_line(self, half_width):
        # the tilt formula at tilt 0 gives the bits of (x + T) / 2T
        x = np.linspace(-1.2 * half_width, 1.2 * half_width, 20_001)
        line = (np.clip(x, -half_width, half_width) + half_width) / (2.0 * half_width)
        assert FeatureLaw("uniform", half_width).cdf(x).tobytes() == line.tobytes()

    @pytest.mark.parametrize("half_width", [0.0, -1.0, np.nan, np.inf, 1e103, 1e-110])
    def test_half_width_with_no_float_cube_rejected(self, half_width):
        # the CDF cubes T; past these bounds it would return NaN
        with pytest.raises(ValueError, match="half-width"):
            FeatureLaw("uniform", half_width)

    def test_uniform_law_has_no_tilt(self):
        stray = FeatureLaw("uniform", 1.0, (0.5,))
        assert stray.tilt == 0.0
        assert stray.density(0.9) == 0.5
        assert stray.quantile(0.75) == 0.5


QUANTILE_LAWS = [(1.0, 0.5), (2.0, 0.8), (1.5, 0.3), (1.0, 0.999), (1.0, 1e-9)]


def _exact_cdf(law, x):
    t, th, x = Fraction(law.half_width), Fraction(law.tilt), Fraction(x)
    return (1 - th) * (x + t) / (2 * t) + th * (x**3 + t**3) / (2 * t**3)


class TestClosedFormQuantile:
    @pytest.mark.parametrize("half_width, tilt", QUANTILE_LAWS)
    def test_backward_error_within_two_eps(self, half_width, tilt):
        law = FeatureLaw("polynomial", half_width, (tilt,))
        u = np.random.default_rng(20260808).random(4000)
        s = np.concatenate([u, np.linspace(0.0, 1.0, 201), [1e-300, 1.0 - 2.0**-53]])
        x = law.quantile(s)
        assert np.all(np.abs(x) <= half_width)
        worst = max(abs(_exact_cdf(law, xi) - Fraction(si)) for xi, si in zip(x, s))
        assert worst <= 2 * Fraction(np.finfo(float).eps)

    @pytest.mark.parametrize("tilt", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("half_width", [0.3, 1.3])
    def test_cdf_exact_at_the_ends_and_the_centre(self, half_width, tilt):
        # T**3 and T * T * T round apart here, so x and T must be cubed alike
        assert half_width**3 != half_width * half_width * half_width
        law = FeatureLaw("polynomial", half_width, (tilt,))
        assert law.cdf(np.array([-half_width, 0.0, half_width])).tolist() == [0.0, 0.5, 1.0]
        assert (law.cdf(-half_width), law.cdf(0.0), law.cdf(half_width)) == (0.0, 0.5, 1.0)

    @pytest.mark.parametrize("half_width, tilt", QUANTILE_LAWS)
    def test_edge_values(self, half_width, tilt):
        law = FeatureLaw("polynomial", half_width, (tilt,))
        lo, mid, hi = law.quantile(np.array([0.0, 0.5, 1.0]))
        assert (lo, hi) == (-half_width, half_width)
        assert mid == 0.0 and math.copysign(1.0, mid) == 1.0  # +0.0, never -0.0
        assert law.quantile(0.0) == -half_width and law.quantile(1.0) == half_width
        assert isinstance(law.quantile(0.25), float)

    def test_one_cdf_call_per_array_call(self, monkeypatch):
        calls = []
        plain = FeatureLaw.cdf

        def counted(self, x):
            calls.append(np.size(x))
            return plain(self, x)

        monkeypatch.setattr(FeatureLaw, "cdf", counted)
        POLY.quantile(np.random.default_rng(1).random(4096))
        assert calls == [4096]
        calls.clear()
        UNIFORM.quantile(np.linspace(0.0, 1.0, 11))
        FeatureLaw("polynomial", 1.0, (0.0,)).quantile(np.linspace(0.0, 1.0, 11))
        assert calls == []

    def test_tilt_zero_takes_the_uniform_line(self):
        s = np.random.default_rng(3).random(257)
        flat = FeatureLaw("polynomial", 1.5, (0.0,))
        assert flat.quantile(s).tobytes() == FeatureLaw("uniform", 1.5).quantile(s).tobytes()


class TestScenario:
    def test_impact_schedule(self):
        scn = Scenario(LOGISTIC, UNIFORM, 2.0, 0.5)
        deltas = [scn.delta(n) for n in (1, 4, 16, 256)]
        assert deltas == sorted(deltas, reverse=True)
        assert all(d > 0 for d in deltas)
        assert deltas[0] == 2.0

    def test_phi_n_examples(self):
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.5)
        assert phi_n(scn, 4, 1.0) == pytest.approx(link_eval(LOGISTIC, 0.5), abs=1e-15)
        assert phi_n(scn, 977, 0.0) == 0.5
        fixed = Scenario(LOGISTIC, UNIFORM, 1.0, 0.0)
        assert phi_n(fixed, 10, 0.3) == phi_n(fixed, 10_000, 0.3)

    def test_phi_fn_is_the_link_curve(self):
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.25)
        phi = scn.phi_fn(50)
        assert phi == LinkCurve(LOGISTIC, scn.delta(50))
        xs = np.linspace(-1, 1, 11)
        assert np.array_equal(phi(xs), phi_n(scn, 50, xs))
        assert type(phi(0.3)) is float and phi(0.3) == phi_n(scn, 50, 0.3)
        np.testing.assert_allclose(phi(phi.inverse(phi(xs))), phi(xs), rtol=1e-15)
        assert phi.breakpoints.size == 0

    def test_affine_curve_exposes_its_clip_points(self):
        scn = Scenario(LinkSpec("affine", params=(0.5, 2.0)), UNIFORM, 1.0, 0.0)
        phi = scn.phi_fn(10)
        np.testing.assert_array_equal(phi.breakpoints, [-0.25, 0.25])
        assert phi(-0.25) == 0.0 and phi(0.25) == 1.0
        assert phi.inverse(0.75) == 0.125

    def test_phi_n_monotone_in_x(self):
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.25)
        xs = np.linspace(-1, 1, 101)
        vals = phi_n(scn, 50, xs)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(LOGISTIC, UNIFORM, -1.0, 0.5)
        with pytest.raises(ValueError):
            Scenario(LOGISTIC, UNIFORM, 1.0, -0.5)
        with pytest.raises(ValueError):
            Scenario(LinkSpec("beta_flat", beta=3), UNIFORM, 1.0, 0.5, beta=1)


class TestSample:
    def test_from_draws_aggregates_duplicates(self):
        s = Sample.from_draws([2.0, 1.0, 2.0, 3.0, 2.0], [1, 0, 0, 1, 1])
        assert np.array_equal(s.xs, [1.0, 2.0, 3.0])
        assert np.array_equal(s.weights, [1, 3, 1])
        assert np.array_equal(s.ones, [0, 2, 1])
        assert s.n == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            Sample.from_draws([], [])
        with pytest.raises(ValueError):
            Sample.from_draws([1.0, 2.0], [0, 2])
        with pytest.raises(ValueError):
            Sample(np.array([2.0, 1.0]), np.array([0, 0]), np.array([1, 1]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Sample.from_draws([bad, 1.0], [0, 1])
        with pytest.raises(ValueError, match="finite"):
            Sample(np.array([0.0, bad]), np.array([0, 1]), np.array([1, 1]))

    @pytest.mark.parametrize("xs, ys", [
        (np.ones((2, 2)), np.ones((2, 2))),
        (np.ones(4), np.ones((2, 2))),
        (1.0, 1),
    ])
    def test_draws_must_be_one_dimensional(self, xs, ys):
        with pytest.raises(ValueError, match="1-D"):
            Sample.from_draws(xs, ys)

    def test_ys_only_for_unit_weights(self):
        s = Sample.from_draws([1.0, 2.0], [0, 1])
        assert np.array_equal(s.ys, [0, 1])
        agg = Sample.from_draws([1.0, 1.0], [0, 1])
        with pytest.raises(ValueError):
            agg.ys


def _unique_reference(xs, ys):
    """Sort, merge equal features with np.unique, count ones per block."""
    uniq, inverse, counts = np.unique(xs, return_inverse=True, return_counts=True)
    return uniq, np.bincount(inverse, weights=ys, minlength=uniq.size).astype(np.int64), counts


@st.composite
def _draws(draw):
    """Raw draws: ties (small pools), unit weights (large pools), single draws."""
    n = draw(st.integers(1, 60))
    pool = draw(st.integers(0, 100))
    xs = draw(st.lists(st.integers(-pool, pool), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    return np.array(xs, dtype=float) / 4.0 * np.array(signs), np.array(ys)  # signed zeros too


class TestFromDrawsProperty:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_draws())
    @example((np.array([0.5]), np.array([1])))
    @example((np.arange(5.0), np.array([0, 1, 1, 0, 1])))
    @example((np.full(7, 2.0), np.array([1, 0, 1, 1, 0, 0, 1])))
    @example((np.array([0.5, -0.0, -1.25, 2.0, 1e-300]), np.array([1, 0, 1, 1, 0])))  # tie-free
    @example((np.array([3.0, 1.0, -2.0, 3.0, 0.5]), np.array([1, 0, 1, 0, 1])))  # last pair tied
    def test_matches_unique_reference(self, draws):
        xs, ys = draws
        s = Sample.from_draws(xs, ys)
        uniq, ones, counts = _unique_reference(xs, ys)
        assert s.xs.tobytes() == (uniq + 0.0).tobytes()  # a zero feature is written +0.0
        assert s.ones.tobytes() == ones.tobytes() and s.weights.tobytes() == counts.tobytes()

    def test_zero_block_is_positive_zero(self):
        s = Sample.from_draws([-0.0, 0.0, 1.0, -0.0], [1, 0, 1, 1])
        assert np.array_equal(s.xs, [0.0, 1.0]) and not np.signbit(s.xs[0])
        assert np.array_equal(s.ones, [2, 1]) and np.array_equal(s.weights, [3, 1])

    def test_labels_checked_for_every_dtype(self):
        assert Sample.from_draws([1.0, 2.0], np.array([True, False])).ones.tolist() == [1, 0]
        assert Sample.from_draws([1.0, 2.0], [1.0, 0.0]).ones.tolist() == [1, 0]
        for bad in ([0.5, 1.0], [0, 2], [0, -1], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="labels"):
                Sample.from_draws([1.0, 2.0], bad)


class _Replay:
    """Stand-in generator whose ``random(n)`` hands out crafted arrays in turn."""

    def __init__(self, *arrays):
        self._arrays = list(arrays)

    def random(self, n):
        out = np.array(self._arrays.pop(0), dtype=float)
        assert out.shape == (n,)
        return out


_ULP = 2.0**-53  # the spacing of the generator's uniforms
# (feature uniforms, label uniforms): a label uniform of 0 draws a one, of
# 1 - ulp a zero, whatever the success probability
_CRAFTED_DRAWS = [
    # equal feature uniforms with opposite labels, one of them the line's zero
    ([0.25, 0.5, 0.25, 0.5, 0.75, 0.25], [0.0, 1 - _ULP, 1 - _ULP, 0.0, 0.5, 0.0]),
    # distinct uniforms that give one feature at T = 3: 0, -0.0 and 2^-55 give
    # -3, as do 1 - 2 ulp and 1 - 3 ulp, and 1 - 5 ulp and 1 - 6 ulp; 2^-53 and
    # 2^-52 do not tie at T = 3 but are the generator's smallest uniforms
    ([1 - 3 * _ULP, 0.0, 2.0**-52, 1 - 2 * _ULP, -0.0, _ULP, 2.0**-55, 1 - 6 * _ULP,
      0.5, 1 - 5 * _ULP, 1.0],
     [0.0, 1 - _ULP, 0.0, 1 - _ULP, 0.0, 0.0, 1 - _ULP, 0.0, 1 - _ULP, 1 - _ULP, 0.0]),
    ([0.5], [0.0]),  # n = 1 at the feature 0
    ([0.5], [1 - _ULP]),
    ([0.7, 0.2], [1 - _ULP, 0.0]),  # n = 2, drawn in decreasing order
    ([0.3, 0.3], [0.0, 1 - _ULP]),
]


class TestSampling:
    def test_shape_and_determinism(self):
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.5)
        s1 = sample_dataset(scn, 1, 7)
        assert s1.n == 1 and s1.ones[0] in (0, 1)
        a = sample_dataset(scn, 250, 12345)
        b = sample_dataset(scn, 250, 12345)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ones, b.ones)
        assert np.array_equal(a.weights, b.weights)
        c = sample_dataset(scn, 250, 12346)
        assert not np.array_equal(a.xs, c.xs)

    @pytest.mark.parametrize("link, law, draws", [
        pytest.param(LOGISTIC, UNIFORM, None, id="link0-law0"),
        pytest.param(LinkSpec("beta_flat", beta=3), POLY, None, id="link1-law1"),
        pytest.param(LinkSpec("probit", params=(1.0,)), UNIFORM, None, id="link2-law2"),
        *[pytest.param(link, law, draws, id=f"crafted{k}-{tag}")
          for tag, link, law in (("T1", LOGISTIC, UNIFORM),
                                 ("T3", LOGISTIC, FeatureLaw("uniform", 3.0)),
                                 ("poly", LinkSpec("probit", params=(1.0,)), POLY))
          for k, draws in enumerate(_CRAFTED_DRAWS)],
    ])
    def test_matches_the_documented_stream(self, link, law, draws):
        """n uniforms for x, then n for y; quantile, oracle link, np.unique aggregation.

        ``draws`` replaces the seeded stream by crafted uniforms (feature, label).
        """
        n = 8192 if draws is None else len(draws[0])
        make_rng = (lambda: stream(20260808, 3)) if draws is None else lambda: _Replay(*draws)
        scn = Scenario(link, law, 1.5, 0.25, beta=link.beta)
        rng = make_rng()
        xs = law.quantile(rng.random(n))
        u_y = rng.random(n)
        u = scn.delta(n) * xs
        if link.kind == "probit":
            probs = 0.5 * (1.0 + erf(u / math.sqrt(2.0)))
        else:
            probs = logistic_split(u if link.beta == 1 else u**link.beta)
        uniq, ones, counts = _unique_reference(xs, (u_y < probs).astype(np.int64))
        s = draw_sample(scn, n, make_rng())
        assert s.xs.tobytes() == (uniq + 0.0).tobytes()
        assert s.ones.tobytes() == ones.tobytes() and s.weights.tobytes() == counts.tobytes()

    def test_degenerate_link_gives_constant_labels(self):
        scn = Scenario(LinkSpec("constant", params=(1.0,)), UNIFORM, 1.0, 0.5)
        s = sample_dataset(scn, 300, 3)
        assert np.array_equal(s.ones, s.weights)

    def test_support_respected(self):
        scn = Scenario(LOGISTIC, FeatureLaw("polynomial", 1.5, (0.3,)), 1.0, 0.25)
        s = sample_dataset(scn, 2000, 99)
        assert s.xs.min() >= -1.5 and s.xs.max() <= 1.5

    def test_quantile_transform_dkw(self):
        # empirical CDF of 1e5 draws within 0.01 of the law CDF in sup norm
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.5)
        s = sample_dataset(scn, 100_000, 2024)
        xs = np.repeat(s.xs, s.weights)
        emp = np.arange(1, xs.size + 1) / xs.size
        gap = np.max(np.abs(emp - UNIFORM.cdf(xs)))
        assert gap < 0.01

    def test_label_conditional_law(self):
        # bin frequencies of ones within 3 binomial se of the bin-average curve
        scn = Scenario(LOGISTIC, UNIFORM, 2.0, 0.25)
        n = 100_000
        s = sample_dataset(scn, n, 77)
        xs = np.repeat(s.xs, s.weights)
        ys = np.repeat(s.ones / s.weights, s.weights)  # unit weights in practice
        probs = phi_n(scn, n, xs)
        edges = np.linspace(-1, 1, 26)
        ok = 0
        total = 0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (xs >= lo) & (xs < hi)
            m = int(mask.sum())
            if m < 50:
                continue
            total += 1
            p_hat = float(ys[mask].mean())
            p_bar = float(probs[mask].mean())
            se = math.sqrt(max(p_bar * (1 - p_bar), 1e-12) / m)
            if abs(p_hat - p_bar) <= 3 * se:
                ok += 1
        assert ok / total >= 0.95


class TestPointwiseHypotheses:
    def test_fast_case_worked_example(self):
        pair = build_pointwise_hypotheses(0.001, 400, 0.4, UNIFORM, 0.0)
        assert pair.case == "fast"
        eta = 0.5 - 0.001 - 0.02
        assert pair.lower(-1.0) == pytest.approx(eta, abs=1e-15)
        assert pair.separation == pytest.approx(0.04, abs=1e-15)
        assert pair.upper(0.0) - pair.lower(0.0) == pytest.approx(0.04, abs=1e-15)

    def test_slow_case_separation(self):
        n, delta, c = 10_000, 0.1, 0.09
        pair = build_pointwise_hypotheses(delta, n, c, UNIFORM, 0.0)
        assert pair.case == "slow"
        sep = 2 * c * (n / delta) ** (-1 / 3)
        assert pair.upper(0.0) - pair.lower(0.0) == pytest.approx(sep, rel=1e-12)
        assert pair.separation == pytest.approx(sep, rel=1e-12)

    def test_zero_slope_gives_parallel_constants(self):
        pair = build_pointwise_hypotheses(0.0, 400, 0.4, UNIFORM, 0.0)
        grid = np.linspace(-1, 1, 17)
        gaps = pair.upper(grid) - pair.lower(grid)
        assert np.allclose(gaps, 2 * 0.4 / 20, atol=1e-15)
        assert np.allclose(np.diff(pair.lower(grid)), 0.0, atol=1e-15)

    def test_membership(self):
        for delta, n, c in ((0.001, 400, 0.4), (0.1, 10_000, 0.09), (0.0, 400, 0.4)):
            pair = build_pointwise_hypotheses(delta, n, c, UNIFORM, 0.0)
            if delta > 0:
                assert in_slope_band(pair.upper, delta, 1.0)
                assert in_slope_band(pair.lower, delta, 1.0)
            else:
                rep = slope_band_report(pair.upper, 1.0)
                assert rep["monotone"] and rep["in_range"]

    def test_constraint_errors_are_named(self):
        with pytest.raises(ValueError, match=r"1/\(4T\)"):
            build_pointwise_hypotheses(0.3, 400, 0.4, UNIFORM, 0.0)
        with pytest.raises(ValueError, match="fast-case constant"):
            build_pointwise_hypotheses(0.001, 400, 0.9, UNIFORM, 0.0)
        with pytest.raises(ValueError, match="slow-case constant"):
            build_pointwise_hypotheses(0.1, 10_000, 0.5, UNIFORM, 0.0)
        with pytest.raises(ValueError, match="interior"):
            build_pointwise_hypotheses(0.001, 400, 0.4, UNIFORM, 1.0)

    def test_default_constants_satisfy_paper_slack(self):
        c_slow = default_slow_pair_constant(UNIFORM)
        assert 0 < c_slow < min((4.0) ** (1 / 3) / 8, 16.0 ** (-1 / 3))
        c_cube = default_cube_constant(UNIFORM)
        assert 64 * c_cube**3 * UNIFORM.sup_density < 2


class TestAssouadCube:
    def test_cell_count_worked_example(self):
        cube = build_assouad_cube(0.1, 10**6, 0.25, 1.0)
        assert cube.m == 21
        assert cube.half_step == pytest.approx(1.0 / 21)

    def test_one_flip_gap_identities(self):
        cube = build_assouad_cube(0.1, 10_000, 0.2, 1.0)
        gap = cube.one_flip_l1()
        assert gap == pytest.approx(0.5 * 0.1 * cube.half_step**2, rel=1e-12)
        assert gap >= cube.one_flip_l1_lower_bound() - 1e-15
        # direct integral of the gap between one-bit-flip neighbors
        zero = cube.function(np.zeros(cube.m, dtype=int))
        bits = np.zeros(cube.m, dtype=int)
        bits[2] = 1
        alt = cube.function(bits)
        grid = np.linspace(-1, 1, 400_001)
        num = np.trapezoid(np.abs(zero(grid) - alt(grid)), grid)
        assert num == pytest.approx(gap, rel=1e-3)

    def test_bits_change_single_cell(self):
        cube = build_assouad_cube(0.1, 10_000, 0.2, 1.0)
        zero = cube.function(np.zeros(cube.m, dtype=int))
        bits = np.zeros(cube.m, dtype=int)
        k = 1
        bits[k] = 1
        alt = cube.function(bits)
        grid = np.linspace(-1, 1, 4001)
        diff = np.abs(zero(grid) - alt(grid))
        outside = (grid <= cube.edges[k]) | (grid >= cube.edges[k + 1])
        assert np.max(diff[outside]) < 1e-15
        assert np.max(diff) > 0

    def test_identical_bits_identical_function(self):
        cube = build_assouad_cube(0.1, 10_000, 0.2, 1.0)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, cube.m)
        grid = np.linspace(-1, 1, 1001)
        assert np.array_equal(cube.function(bits)(grid), cube.function(bits)(grid))

    def test_range_and_membership(self):
        cube = build_assouad_cube(0.2, 50_000, 0.15, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(5):
            f = cube.function(rng.integers(0, 2, cube.m))
            grid = np.linspace(-1, 1, 2001)
            vals = f(grid)
            assert vals.min() >= 0.25 - 1e-12 and vals.max() <= 0.75 + 1e-12
            assert in_slope_band(f, 0.2, 1.0)

    def test_degenerate_cube_error(self):
        with pytest.raises(ValueError, match="m = 0"):
            build_assouad_cube(0.1, 100, 0.3, 1.0)

    def test_delta_range_error(self):
        with pytest.raises(ValueError):
            build_assouad_cube(0.3, 10_000, 0.25, 1.0)


class TestSlopeBand:
    def test_steep_function_fails(self):
        steep = PiecewiseAffine([-0.25, 0.25], [0.0, 1.0])  # clip(0.5 + 2x, 0, 1)
        assert not in_slope_band(steep, 0.1, 1.0)

    def test_too_flat_function_fails(self):
        # Lipschitz fine but modulus ratio below half the level
        flat = PiecewiseAffine([-1.0, 1.0], [0.5, 0.5])
        assert not in_slope_band(flat, 0.1, 1.0)

    def test_report_matches_a_brute_force_sup(self):
        # the knot certificate against sups over 10**6 points per dyadic level
        rng = np.random.default_rng(23)
        cube = build_assouad_cube(0.2, 50_000, 0.15, 1.0)
        fns = [(cube.function(rng.integers(0, 2, cube.m)), 0.2) for _ in range(2)]
        for delta, n, c, law in ((0.1, 10_000, 0.09, UNIFORM), (0.1, 10_000, 0.09, POLY),
                                 (0.001, 400, 0.4, UNIFORM)):
            pair = build_pointwise_hypotheses(delta, n, c, law, rng.uniform(-0.5, 0.5))
            fns += [(pair.upper, delta), (pair.lower, delta)]
        x = np.linspace(-1.0, 1.0, 10**6)
        for f, delta in fns:
            rep = slope_band_report(f, 1.0)
            v = f(x)
            assert rep["lipschitz"] == pytest.approx(np.max(np.diff(v) / np.diff(x)), rel=1e-6)
            lows, highs = [], []
            for j in range(11):
                nu = 2.0 / 2**j
                xs = np.linspace(-1.0, 1.0 - nu, 10**6)
                lows.append(np.max(f(xs + nu) - f(xs)) / nu)
                # the rise is 2 delta-Lipschitz in x: the exact sup is within
                # 2 delta grid steps of the grid's
                highs.append(lows[-1] + 2.0 * delta * (xs[1] - xs[0]) / nu)
            assert min(lows) - 1e-12 <= rep["min_modulus_ratio"] <= min(highs) + 1e-12

    def test_report_fields(self):
        pair = build_pointwise_hypotheses(0.1, 10_000, 0.09, UNIFORM, 0.0)
        rep = slope_band_report(pair.upper, 1.0)
        assert rep["monotone"] and rep["in_range"]
        assert rep["lipschitz"] == pytest.approx(0.1, rel=1e-9)
        assert rep["min_modulus_ratio"] >= 0.05 - 1e-9


class TestSampleCsv:
    def test_round_trip(self):
        from monotone_wfi.model import sample_from_csv_text

        s = Sample.from_draws([1.5, 1.5, 2.0, 3.25], [1, 0, 1, 1])
        back = sample_from_csv_text(sample_to_csv_text(s))
        assert np.array_equal(back.xs, s.xs)
        assert np.array_equal(back.ones, s.ones)
        assert np.array_equal(back.weights, s.weights)

    def test_errors_name_lines(self):
        from monotone_wfi.model import sample_from_csv_text

        with pytest.raises(ValueError, match="header"):
            sample_from_csv_text("a,b\n1,0\n")
        with pytest.raises(ValueError, match="line 3"):
            sample_from_csv_text("x,y\n1,0\n2,0.4\n")
        with pytest.raises(ValueError, match="empty"):
            sample_from_csv_text("x,y\n")
