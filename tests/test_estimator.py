"""Cusum diagram, minorant kernel, fits, inverse process, switch relation."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from hull_oracle import lower_hull_indices
from monotone_wfi.estimator import (
    HullCertificateError,
    StepEstimate,
    inverse_process,
    log_likelihood,
    npmle_fit,
    npmle_values,
    pava_fit,
    switch_check,
)
from monotone_wfi import estimator
from monotone_wfi.estimator import (
    _cusums,
    _minorant_indices,
)
from monotone_wfi.model import FeatureLaw, LinkSpec, Sample, Scenario, draw_sample
from monotone_wfi.streams import stream

S2 = Sample.from_draws([1.0, 2.0], [0, 1])
S4 = Sample.from_draws([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 1])

# unit weights, x = 1..30: scipy's pooling leaves blocks [0, 28, 30] with
# means 0.49999999999999994 and 0.5, while the exact hull is [0, 30]
SPLIT_LABELS = [int(c) for c in "111011011001001111001001000010"]


def _random_sample(rng, n_max=200):
    n = int(rng.integers(1, n_max + 1))
    xs = np.sort(rng.uniform(-1, 1, n))
    ys = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
    return Sample.from_draws(xs, ys)


def _diagram(dw, do):
    """Integer diagram from positive abscissa and arbitrary ordinate steps."""
    return (
        np.concatenate(([0], np.cumsum(dw))).astype(np.int64),
        np.concatenate(([0], np.cumsum(do))).astype(np.int64),
    )


def _assert_is_minorant(cw, co, keep):
    """Exact hull properties: slopes strictly increasing, every point on or above."""
    hw, ho = cw[keep], co[keep]
    slopes = [Fraction(int(b), int(a)) for a, b in zip(np.diff(hw), np.diff(ho))]
    assert all(s0 < s1 for s0, s1 in zip(slopes, slopes[1:]))
    assert keep[0] == 0 and keep[-1] == cw.size - 1
    for i in range(cw.size):
        j = min(max(int(np.searchsorted(hw, cw[i])), 1), keep.size - 1)
        line = Fraction(int(ho[j - 1])) + slopes[j - 1] * int(cw[i] - hw[j - 1])
        assert co[i] >= line
        if i in keep:
            assert co[i] == line


class TestCusumDiagram:
    def test_two_point_example(self):
        cw, co = _cusums(S2)
        assert list(cw) == [0, 1, 2]
        assert list(co) == [0, 0, 1]

    def test_all_zero_labels(self):
        _, co = _cusums(Sample.from_draws([1.0, 2.0, 3.0], [0, 0, 0]))
        assert np.all(co == 0)

    def test_four_point_example(self):
        _, co = _cusums(S4)
        assert list(co) == [0, 0, 1, 1, 2]

    def test_weighted_abscissae(self):
        s = Sample.from_draws([1.0, 1.0, 1.0, 2.0], [1, 0, 1, 1])
        cw, co = _cusums(s)
        assert list(cw) == [0, 3, 4]
        assert list(co) == [0, 2, 3]


class TestConvexMinorant:
    def test_chord_below_middle_point(self):
        cw, co = _diagram([1, 1], [2, 0])
        assert list(_minorant_indices(cw, co)) == [0, 2]

    def test_already_convex_kept(self):
        cw, co = _diagram([1, 1, 1], [-3, 0, 3])
        assert list(_minorant_indices(cw, co)) == [0, 1, 2, 3]

    def test_idempotent_on_strictly_convex(self):
        cw = np.arange(9, dtype=np.int64)
        co = (5 * cw - 16) ** 2
        keep = _minorant_indices(cw, co)
        assert np.array_equal(keep, np.arange(9))
        again = _minorant_indices(cw[keep], co[keep])
        assert np.array_equal(keep[again], keep)

    def test_minorant_below_diagram_slopes_increasing(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(1, 40))
            cw, co = _diagram(rng.integers(1, 5, k), rng.integers(-3, 4, k))
            keep = _minorant_indices(cw, co)
            _assert_is_minorant(cw, co, keep)
            assert np.array_equal(keep, lower_hull_indices(cw, co))

    def test_hull_indices_on_plain_arrays(self):
        idx = lower_hull_indices([0, 1, 2, 3], [0, -1, 0.5, 0.2])
        assert list(idx) == [0, 1, 3]

    def test_tie_merge_repairs_the_float_split_block(self):
        s = Sample.from_draws(np.arange(1.0, 31.0), SPLIT_LABELS)
        cw, co = _cusums(s)
        raw = isotonic_regression(np.diff(co) / np.diff(cw), weights=np.diff(cw)).blocks
        assert list(raw) == [0, 28, 30]
        keep = _minorant_indices(cw, co)
        assert list(keep) == [0, 30]
        assert np.array_equal(keep, lower_hull_indices(cw, co))
        assert np.all(npmle_values(s) == 0.5)

    @pytest.mark.parametrize(
        "blocks",
        [[0, 4], [0, 1, 4], [0, 1, 2, 3, 4], [0, 2, 4]],
        ids=["point-below-one-segment", "point-below-last-segment", "slopes-not-increasing", "both"],
    )
    def test_certificate_rejects_wrong_blocks(self, monkeypatch, blocks):
        # S4's hull is [0, 1, 3, 4]; any other block set must fail a check
        cw, co = _cusums(S4)
        fake = np.array(blocks)
        monkeypatch.setattr(
            estimator, "isotonic_regression", lambda *a, **k: SimpleNamespace(blocks=fake)
        )
        with pytest.raises(HullCertificateError, match="n=4 "):
            _minorant_indices(cw, co)

    def test_sample_past_the_int64_bound_rejected(self):
        # at n = 1.4e10 the int64 cross products wrap and the certificate
        # failed; the same counts over 1e9, and the float oracle, fit fine
        big = Sample([0, 1, 2], [3e9, 1e9, 6e9], [4e9, 4e9, 6e9])
        assert list(npmle_fit(Sample([0, 1, 2], [3, 1, 6], [4, 4, 6])).values) == [0.5, 1.0]
        assert list(pava_fit(big).values) == [0.5, 1.0]
        with pytest.raises(ValueError, match="at most n=3037000499 draws, got n=14000000000"):
            npmle_fit(big)

    def test_sample_at_the_int64_bound_fits(self):
        n, k = math.isqrt(2**63 - 1), 10**8
        s = Sample([0, 1, 2], [3 * k, k, n - 8 * k], [4 * k, 4 * k, n - 8 * k])
        assert s.n == n and list(npmle_fit(s).values) == [0.5, 1.0]
        past = Sample([0, 1, 2], [3 * k, k, n - 8 * k], [4 * k, 4 * k, n - 8 * k + 1])
        with pytest.raises(ValueError, match=f"got n={n + 1}"):
            npmle_fit(past)

    def test_tie_merge_at_scale(self):
        # a pinned n = 32768 draw whose float blocks split one hull segment
        # in two, so the raw blocks fail the certificate (it accepts only
        # the exact hull); about 3 % of logistic-link fits at this size do
        scn = Scenario(LinkSpec("logistic"), FeatureLaw("uniform", 1.0), 1.0, 0.0)
        cw, co = _cusums(draw_sample(scn, 32768, stream(4)))
        hull = lower_hull_indices(cw, co)
        raw = isotonic_regression(np.diff(co) / np.diff(cw), weights=np.diff(cw)).blocks
        assert raw.size == hull.size + 1 and set(hull) < set(raw)
        assert np.array_equal(_minorant_indices(cw, co), hull)


@st.composite
def _samples(draw, n_max=80):
    """Samples with ties (duplicate features pool into weights) and fixed labels."""
    n = draw(st.integers(1, n_max))
    xs = draw(st.lists(st.integers(0, draw(st.integers(0, 40))), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["mixed", "mixed", "zeros", "ones"]))
    if kind == "mixed":
        ys = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        ys = [int(kind == "ones")] * n
    return Sample.from_draws(np.array(xs, dtype=float), np.array(ys))


class TestMinorantKernelProperties:
    @settings(max_examples=300, deadline=None, database=None)
    @given(_samples())
    @example(Sample.from_draws([0.0], [1]))
    @example(Sample.from_draws([0.0], [0]))
    @example(Sample.from_draws(np.arange(30.0), SPLIT_LABELS))
    def test_kernel_is_exact_hull_and_matches_pava(self, s):
        cw, co = _cusums(s)
        keep = _minorant_indices(cw, co)
        assert np.array_equal(keep, lower_hull_indices(cw, co))
        _assert_is_minorant(cw, co, keep)
        assert np.max(np.abs(npmle_values(s) - pava_fit(s)(s.xs))) <= 1e-12
        fit, ref = npmle_fit(s), StepEstimate.from_fitted(s.xs, npmle_values(s), s.n)
        assert fit.jump_xs.tobytes() == ref.jump_xs.tobytes()
        assert fit.values.tobytes() == ref.values.tobytes() and fit.n == ref.n

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(-6, 6)), min_size=1, max_size=60
        )
    )
    def test_kernel_on_general_integer_diagrams(self, steps):
        dw, do = zip(*steps)
        cw, co = _diagram(dw, do)
        keep = _minorant_indices(cw, co)
        assert np.array_equal(keep, lower_hull_indices(cw, co))
        _assert_is_minorant(cw, co, keep)


class TestExactnessProperties:
    """Switch relation and likelihood optimality on small weighted, tied samples."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(_samples(40), st.data())
    def test_switch_relation_holds_exactly(self, s, data):
        # x anywhere in the sample range or at a sample point; a anywhere in
        # [0, 1] or exactly at a fitted level, where ties bite
        x = data.draw(st.sampled_from(s.xs.tolist()) | st.floats(s.xs[0], s.xs[-1]))
        a = data.draw(st.sampled_from(npmle_values(s).tolist()) | st.floats(0.0, 1.0))
        rec = switch_check(s, x, a)
        assert rec["lhs"] == rec["rhs"]

    @settings(max_examples=200, deadline=None, database=None)
    @given(_samples(40), st.data())
    def test_npmle_maximizes_likelihood(self, s, data):
        k = s.xs.size
        levels = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)
        fitted = npmle_values(s)
        nudge = np.array(data.draw(st.lists(st.floats(-1e-3, 1e-3), min_size=k, max_size=k)))
        best = log_likelihood(npmle_fit(s), s)
        for cand in (
            np.sort(data.draw(levels)),  # any nondecreasing curve into [0, 1]
            np.maximum.accumulate(np.clip(fitted + nudge, 0.0, 1.0)),  # one close by
        ):
            assert best >= log_likelihood(lambda x, v=cand: v, s) - 1e-12


class TestLeftDerivative:
    """The exact fit at each sample point, read off ``switch_check``'s ``lhs``.

    The fit equals ``v`` when it is not above ``a = v`` but is above the
    next float below ``v`` (for ``v = 0`` the first suffices: no fit is negative).
    """

    @staticmethod
    def _fits_at(s, values):
        for x, v in zip(s.xs, values):
            assert switch_check(s, float(x), v)["lhs"] is False, (x, v)
            if v > 0:
                assert switch_check(s, float(x), np.nextafter(v, 0.0))["lhs"] is True, (x, v)

    def test_single_segment(self):
        self._fits_at(Sample.from_draws([1.0, 2.0, 3.0], [1, 1, 1]), [1.0, 1.0, 1.0])

    def test_segment_boundaries_take_left_limit(self):
        cw, co, keep = S4.diagram
        assert list(keep) == list(_minorant_indices(cw, co)) == [0, 1, 3, 4]
        self._fits_at(S4, [0.0, 0.5, 0.5, 1.0])


def _brute_force_best_monotone(sample, grid_step=0.01):
    """Exact search over ALL nondecreasing value vectors on a level grid.

    The likelihood separates across blocks, so the search over the full
    monotone lattice is organized as a running-maximum dynamic program;
    every nondecreasing grid vector is covered exactly.
    """
    levels = np.round(np.arange(0.0, 1.0 + grid_step / 2, grid_step), 10)
    ones = sample.ones.astype(float)
    zeros = (sample.weights - sample.ones).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = np.where(ones[:, None] > 0, ones[:, None] * np.log(levels[None, :]), 0.0)
        gain += np.where(
            zeros[:, None] > 0, zeros[:, None] * np.log1p(-levels[None, :]), 0.0
        )
    k_blocks = sample.xs.size
    score = gain[0].copy()
    prev = np.zeros((k_blocks, levels.size), dtype=int)
    for k in range(1, k_blocks):
        run_best = np.empty(levels.size)
        run_arg = np.empty(levels.size, dtype=int)
        best, arg = -np.inf, 0
        for j in range(levels.size):
            if score[j] >= best:
                best, arg = score[j], j
            run_best[j] = best
            run_arg[j] = arg
        prev[k] = run_arg
        score = gain[k] + run_best
    j = int(np.argmax(score))
    best_ll = float(score[j])
    picks = [j]
    for k in range(k_blocks - 1, 0, -1):
        j = int(prev[k][j])
        picks.append(j)
    return levels[picks[::-1]], best_ll


class TestNpmleFit:
    def test_worked_example_matches_exhaustive_search(self):
        fit = npmle_fit(S4)
        assert np.allclose(fit(S4.xs), [0, 0.5, 0.5, 1.0])
        best, best_ll = _brute_force_best_monotone(S4)
        assert np.allclose(best, [0, 0.5, 0.5, 1.0], atol=1e-12)
        assert log_likelihood(fit, S4) >= best_ll - 1e-12

    def test_constant_labels(self):
        for b in (0, 1):
            s = Sample.from_draws([0.5, 1.5, 2.5], [b, b, b])
            assert np.allclose(npmle_fit(s)(s.xs), b)

    def test_monotone_labels_interpolated(self):
        s = Sample.from_draws([1.0, 2.0, 3.0], [0, 1, 1])
        assert np.allclose(npmle_fit(s)(s.xs), [0, 1, 1])

    def test_extension_rule(self):
        fit = npmle_fit(S4)
        assert fit(0.0) == 0.0
        assert fit(3.5) == fit(3.0)
        assert fit(100.0) == fit(4.0)

    def test_local_average_characterization(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = _random_sample(rng, 80)
            vals = npmle_values(s)
            # group sample points by fitted level; each block must average the labels
            levels, inverse = np.unique(vals, return_inverse=True)
            for j in range(levels.size):
                mask = inverse == j
                mean = s.ones[mask].sum() / s.weights[mask].sum()
                assert levels[j] == pytest.approx(mean, abs=1e-12)

    def test_tied_features_maximize_the_pooled_likelihood(self):
        xs = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        ys = np.array([1, 0, 0, 1, 0])
        merged = Sample.from_draws(xs, ys)
        fit = npmle_fit(merged)
        assert np.allclose(fit(np.array([1.0, 2.0, 3.0])), 0.4)
        best, best_ll = _brute_force_best_monotone(merged, grid_step=0.02)
        assert np.allclose(best, 0.4, atol=1e-12)
        assert log_likelihood(fit, merged) >= best_ll - 1e-12

    def test_appending_high_one_never_decreases(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = _random_sample(rng, 60)
            grown = Sample.from_draws(
                np.concatenate([np.repeat(s.xs, s.weights), [s.xs[-1] + 1.0]]),
                np.concatenate([np.repeat(s.ones / s.weights, s.weights).astype(int), [1]]),
            )
            before = npmle_fit(s)(s.xs)
            after = npmle_fit(grown)(s.xs)
            assert np.all(after >= before - 1e-12)


class TestPavaOracle:
    def test_single_pooling_step(self):
        s = Sample.from_draws([1.0, 2.0], [1, 0])
        fit = pava_fit(s)
        assert np.allclose(fit(s.xs), [0.5, 0.5])
        # two-candidate check: pooled 0.5 beats the only other monotone option shape
        pooled = log_likelihood(fit, s)
        identity = log_likelihood(lambda x: np.interp(x, [1.0, 2.0], [0.5, 0.5]), s)
        assert pooled >= identity - 1e-15

    def test_monotone_input_unchanged(self):
        s = Sample.from_draws([1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        assert np.allclose(pava_fit(s)(s.xs), [0, 0, 1, 1])

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(300):
            s = _random_sample(rng)
            dev = np.max(np.abs(npmle_values(s) - pava_fit(s)(s.xs)))
            worst = max(worst, dev)
        assert worst <= 1e-12


class TestLogLikelihood:
    def test_perfect_fit_is_zero(self):
        s = Sample.from_draws([1.0, 2.0, 3.0], [0, 1, 1])
        assert log_likelihood(lambda x: np.interp(x, [1, 2, 3], [0, 1, 1]), s) == 0.0

    def test_fair_coin_value(self):
        s = Sample.from_draws(np.arange(10.0), np.tile([0, 1], 5))
        ll = log_likelihood(lambda x: np.full_like(np.asarray(x, float), 0.5), s)
        assert ll == pytest.approx(10 * np.log(0.5), rel=1e-15)

    def test_impossible_label_gives_minus_inf(self):
        s = Sample.from_draws([1.0, 2.0], [1, 1])
        assert log_likelihood(lambda x: np.zeros_like(np.asarray(x, float)), s) == -np.inf

    def test_npmle_beats_random_candidates(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = _random_sample(rng, 60)
            best = log_likelihood(npmle_fit(s), s)
            for _ in range(50):
                vals = np.sort(rng.random(s.xs.size))
                assert best >= log_likelihood(lambda x, v=vals: v, s) - 1e-12


class TestInverseProcess:
    def test_worked_instance(self):
        assert inverse_process(S2, 0.6) == (0.5, 1.0)

    def test_level_zero(self):
        grid_t, x_val = inverse_process(S2, 0.0)
        assert grid_t == 0.5 and x_val == 1.0

    def test_level_one(self):
        grid_t, _ = inverse_process(S2, 1.0)
        assert grid_t == 1.0

    def test_ties_take_largest(self):
        s = Sample.from_draws([1.0, 2.0], [1, 1])
        # at a = 1 the ramp cancels the diagram: all vertices tie, take t = 1
        grid_t, x_val = inverse_process(s, 1.0)
        assert grid_t == 1.0 and x_val == 2.0

    def test_minimum_at_origin_gives_minus_inf_quantile(self):
        s = Sample.from_draws([1.0, 2.0], [1, 1])
        grid_t, x_val = inverse_process(s, 0.3)
        assert grid_t == 0.0 and x_val == -np.inf

    def test_level_domain(self):
        with pytest.raises(ValueError):
            inverse_process(S2, 1.5)


def _fraction_index(cw, co, a):
    """The inverse index with the tie-break in ``Fraction`` keys ``co - a * cw``."""
    crit = (co - a * cw) / cw[-1]
    near = np.flatnonzero(crit <= crit.min() + 1e-12)
    keys = [Fraction(int(co[j])) - Fraction(a) * int(cw[j]) for j in near]
    best = min(keys)
    return int(near[max(k for k, key in enumerate(keys) if key == best)])


class TestInverseTieBreak:
    LEVELS = (0.0, 1.0, 0.5, 2.0**-60, 1.0 - 2.0**-53, 5e-324)

    def test_integer_keys_pick_the_fraction_index(self):
        rng = np.random.default_rng(20260808)
        ties = 0
        for _ in range(300):
            n = int(rng.integers(1, 60))
            dw = rng.integers(1, 4, n)
            cw, co = _diagram(dw, rng.integers(0, dw + 1))  # step slopes 0, 1/3, 1/2, ..., 1
            for a in self.LEVELS + (float(co[-1] / cw[-1]),):
                crit = co - Fraction(a) * cw
                ties += sum(1 for v in crit if v == min(crit)) > 1
                assert estimator._inverse_index(cw, co, a) == _fraction_index(cw, co, a)
        assert ties >= 100  # several exact minimizers, at a = 0, 1/2 and 1 most of all

    @pytest.mark.parametrize("a", LEVELS)
    def test_near_ties_below_float_resolution(self, a):
        # equal ordinates: at the tiny levels every vertex is within 1e-12 of the float minimum
        cw = np.array([0, 1, 2, 2**40, 2**40 + 1], dtype=np.int64)
        co = np.array([0, 0, 0, 0, 0], dtype=np.int64)
        assert estimator._inverse_index(cw, co, a) == _fraction_index(cw, co, a)


class TestSwitchRelation:
    def test_worked_instance(self):
        assert switch_check(S2, 2.0, 0.6) == {"lhs": True, "rhs": True}
        assert switch_check(S2, 1.0, 0.6) == {"lhs": False, "rhs": False}

    def test_level_above_maximum(self):
        s = Sample.from_draws([1.0, 2.0, 3.0], [0, 1, 0])
        fit = npmle_fit(s)
        a = float(fit(s.xs[-1])) + 0.2
        if a <= 1.0:
            for x in s.xs:
                rec = switch_check(s, float(x), a)
                assert rec["lhs"] is False and rec["rhs"] is False

    def test_strict_form_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            s = _random_sample(rng, 100)
            fit = npmle_fit(s)
            lo, hi = float(s.xs[0]), float(s.xs[-1])
            for _ in range(10):
                pick = rng.random()
                if pick < 0.5:
                    x = float(rng.uniform(lo, hi))
                elif pick < 0.8:
                    x = float(rng.choice(s.xs))
                else:
                    x = max(float(rng.choice(s.xs)) - 1e-9, lo)
                tie = rng.random() < 0.3
                if tie:
                    a = float(rng.choice(npmle_values(s)))  # exact tie levels
                else:
                    a = float(rng.random())
                rec = switch_check(s, x, a)
                assert rec["lhs"] == rec["rhs"]
                if not tie:
                    # away from ties the float evaluation agrees with the
                    # exact one, tying the record back to the fitted curve
                    assert rec["lhs"] == bool(fit(x) > a)
                    grid_t, _ = inverse_process(s, a)
                    k = int(np.searchsorted(s.xs, x, side="right"))
                    cdf_x = s.weights[:k].sum() / s.n
                    assert rec["rhs"] == bool(grid_t < cdf_x)


class TestStepEstimate:
    def test_compression_and_eval(self):
        step = StepEstimate.from_fitted(
            np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.4, 0.4]), 3
        )
        assert np.array_equal(step.jump_xs, [2.0])
        assert step(1.5) == 0.0 and step(2.0) == 0.4 and step(10.0) == 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            StepEstimate(np.array([1.0, 2.0]), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            StepEstimate(np.array([2.0, 1.0]), np.array([0.1, 0.4]))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            StepEstimate(np.array([1.0, 2.0]), np.array([0.5]))


class TestOnRealScenario:
    def test_fit_tracks_truth_roughly(self):
        scn = Scenario(LinkSpec("logistic"), FeatureLaw("uniform", 1.0), 1.0, 0.0)
        s = draw_sample(scn, 3000, stream(123, 5))
        fit = npmle_fit(s)
        phi = scn.phi_fn(3000)
        grid = np.linspace(-0.8, 0.8, 9)
        assert np.max(np.abs(fit(grid) - phi(grid))) < 0.08
