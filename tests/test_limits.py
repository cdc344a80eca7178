"""Limit-law samplers: paths, argmin draws, minorant slopes, constants."""

import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import isotonic_regression
from scipy.special import beta as beta_fn
from scipy.stats import chi, kstest, norm

import monotone_wfi
from hull_oracle import argmin_last, lower_hull_indices
from monotone_wfi.limits import (
    DEFAULT_EDGE_GRID,
    DEFAULT_TWO_SIDED_GRID,
    GridEscapeError,
    LimitBatch,
    PathGrid,
    argmin_quadratic_batch,
    boundary_drift,
    boundary_limit_batch,
    boundary_term,
    brownian_increments,
    brownian_paths,
    chernoff_abs_mean,
    chernoff_abs_mean_mc,
    chernoff_batch,
    chernoff_cov_integral,
    chernoff_exact_batch,
    chernoff_table,
    edge_layer_constant,
    fast_slope_batch,
    l1_fast_batch,
    law_grid,
    local_width,
    mu_n,
    sample_limit_batch,
    scaled_chernoff_constant,
    slow_limit_batch,
)
from monotone_wfi import limits
from monotone_wfi.limits import _break_sticks, _slope_at
from monotone_wfi.estimator import npmle_fit
from monotone_wfi.metrics import QuadratureCfg, ks_two_sample, l1_error
from monotone_wfi.model import FeatureLaw, LinkSpec, Scenario, draw_sample
from monotone_wfi.streams import stream

LOGISTIC = LinkSpec("logistic")
UNIFORM = FeatureLaw("uniform", 1.0)
POLY = FeatureLaw("polynomial", 1.0, (0.5,))
FLAT3 = LinkSpec("beta_flat", beta=3)

# The Chernoff law's moments: Var Z as published by Groeneboom & Wellner
# (2001, JCGS 10), and E|Z| to 13 digits from the Airy density.
REF_CHERNOFF_VAR = 0.2635596413
REF_CHERNOFF_ABS_MEAN = 0.4127365501643

COARSE = PathGrid(4.0, 0.004, True)
COARSE_UNIT = PathGrid(1.0, 0.001, False)


def _twin(rng: np.random.Generator) -> np.random.Generator:
    """A generator that replays ``rng``'s stream from its current state."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _hull_left_slope(s, f, at):
    """Left slope at ``at`` of the minorant of (s, f), read off the stack hull."""
    keep = lower_hull_indices(s, f)
    hs, hv = s[keep], f[keep]
    j = min(max(int(np.searchsorted(hs, at, side="left")), 1), hs.size - 1)
    return float((hv[j] - hv[j - 1]) / (hs[j] - hs[j - 1]))


@pytest.fixture(scope="module")
def chernoff_reference_draws():
    return chernoff_exact_batch(200_000, 20260808)


class TestPathGrid:
    def test_points(self):
        g = PathGrid(1.0, 0.01, False)
        pts = g.points()
        assert pts[0] == 0.0 and pts[-1] == 1.0 and pts.size == 101
        g2 = PathGrid(1.0, 0.01, True)
        assert g2.points().size == 201 and g2.points()[100] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PathGrid(1.0, 0.0305, True)  # not an integer multiple
        with pytest.raises(ValueError):
            PathGrid(1.0, 0.05, True)  # step too coarse for the extent
        with pytest.raises(ValueError):
            PathGrid(-1.0, 0.01, True)

    def test_doubling(self):
        g = PathGrid(4.0, 0.04, True).doubled()
        assert g.half_width == 8.0 and g.step == 0.04


class TestBrownianPaths:
    def test_pinned_at_origin(self):
        g = PathGrid(1.0, 0.01, True)
        z = brownian_paths(g, 1, stream(1))[0]
        assert z[g.n_steps] == 0.0
        w = brownian_paths(PathGrid(1.0, 0.01, False), 1, stream(2))[0]
        assert w[0] == 0.0

    def test_variance_and_covariance(self):
        g = PathGrid(1.0, 0.01, False)
        paths = brownian_paths(g, 100_000, stream(42))
        var_end = paths[:, -1].var()
        assert var_end == pytest.approx(1.0, abs=0.02)
        cov = np.mean(paths[:, 50] * paths[:, -1])
        assert cov == pytest.approx(0.5, abs=0.02)

    def test_two_sided_sides_independent(self):
        g = PathGrid(1.0, 0.01, True)
        paths = brownian_paths(g, 50_000, stream(43))
        left = paths[:, 0]
        right = paths[:, -1]
        assert np.mean(left * right) == pytest.approx(0.0, abs=0.02)
        assert left.var() == pytest.approx(1.0, abs=0.03)


class TestChernoffSampler:
    def test_drift_only_argmin_is_zero(self):
        draws = argmin_quadratic_batch(COARSE, 5, 1, a=0.0, b=1.0, c=0.0)
        assert np.all(draws == 0.0)

    def test_moments_against_references(self, chernoff_reference_draws):
        draws = chernoff_reference_draws
        assert draws.mean() == pytest.approx(0.0, abs=0.01)
        sd = draws.std(ddof=1)
        kurt = np.mean((draws - draws.mean()) ** 4) / sd**4
        ci_half = 1.96 * sd * math.sqrt((kurt - 1.0) / (4.0 * draws.size))
        assert ci_half <= 0.005
        assert sd == pytest.approx(math.sqrt(REF_CHERNOFF_VAR), abs=0.004)
        assert np.abs(draws).mean() == pytest.approx(REF_CHERNOFF_ABS_MEAN, abs=0.004)

    def test_batch_deterministic(self):
        assert chernoff_batch(COARSE, 1, 7)[0] == chernoff_batch(COARSE, 1, 7)[0]
        assert np.array_equal(chernoff_exact_batch(100, 7), chernoff_exact_batch(100, 7))

    def test_grid_sampler_against_exact_cdf(self):
        # one-sample KS of the grid draws against the exact law: a uniform
        # jitter over one grid cell undoes the lattice, and 1.95 / sqrt(m)
        # is the 0.1% critical value
        m = 20_000
        draws = chernoff_batch(COARSE, m, 13)
        draws = draws + COARSE.step * (stream(14).random(m) - 0.5)
        assert kstest(draws, chernoff_table().cdf_at).statistic <= 1.95 / math.sqrt(m)

    @pytest.mark.parametrize("grid, b, match", [
        (COARSE_UNIT, 1.0, "two-sided"),
        (COARSE, 0.0, "b must be positive"),
        (COARSE, -1.0, "b must be positive"),
    ])
    def test_argmin_inputs_checked(self, grid, b, match):
        with pytest.raises(ValueError, match=match):
            argmin_quadratic_batch(grid, 10, 1, b=b)
        if b > 0:
            with pytest.raises(ValueError, match=match):
                chernoff_batch(grid, 10, 1)

    def test_escape_raises_on_mis_set_grid(self):
        g = PathGrid(4.0, 0.04, True)
        with pytest.raises(GridEscapeError, match="last half-width 32.0"):
            argmin_quadratic_batch(g, 4, 3, a=1.0, b=1.0, c=100.0)


class TestExactChernoffLaw:
    """The Airy-function table of the law of argmin(W(s) + s^2)."""

    def test_moments(self):
        table = chernoff_table()
        assert abs(table.mass - 1.0) <= 1e-12
        assert abs(table.var - REF_CHERNOFF_VAR) <= 1e-9
        assert abs(table.abs_mean - REF_CHERNOFF_ABS_MEAN) <= 1e-10
        assert chernoff_abs_mean() == table.abs_mean

    def test_cdf_symmetric_and_monotone(self):
        table = chernoff_table()
        assert table.cdf_at(0.0) == 0.5
        x = np.linspace(0.0, 4.5, 901)
        f = table.cdf_at(x)
        assert np.all(np.diff(f) >= 0) and abs(f[-1] - 1.0) <= 1e-12
        assert np.max(np.abs(table.cdf_at(-x) - (1.0 - f))) <= 1e-15
        assert np.all(table.pdf >= 0)

    def test_cdf_agrees_with_the_density_and_the_moment(self):
        # Simpson's rule over the grid density, and E|Z| = 2 int_0^4 (1 - F)
        table = chernoff_table()
        h, f = table.z[1], table.pdf
        simpson = np.cumsum(h / 3.0 * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))
        assert np.max(np.abs(0.5 + simpson - table.cdf[2::2])) <= 1e-10
        tail = 1.0 - table.cdf
        moment = 2.0 * h / 3.0 * (tail[:-2:2] + 4.0 * tail[1:-1:2] + tail[2::2]).sum()
        assert moment == pytest.approx(table.abs_mean, abs=1e-10)

    def test_quantile_inverts_the_cdf(self):
        table = chernoff_table()
        u = np.array([1e-9, 1e-4, 0.01, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99, 1 - 1e-4])
        q = table.quantile(u)
        assert np.all(np.abs(table.cdf_at(q) - u) <= 1e-9)
        assert np.all(np.diff(q) > 0) and q[6] == 0.0
        # 1 - u rounds, and the tail at 1e-9 turns that into a 3e-9 shift in z
        assert np.max(np.abs(table.quantile(1.0 - u[1:]) + q[1:])) <= 1e-9

    def test_built_once_and_not_at_import(self):
        assert chernoff_table() is chernoff_table()
        code = (
            "import monotone_wfi.cli; from monotone_wfi import limits; "
            "assert limits.chernoff_table.cache_info().currsize == 0"
        )
        # the child finds the package where this process imported it from
        src = str(Path(monotone_wfi.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


class TestBatchDrivers:
    """Chunk layout of the stick-breaking sampler; window-escape order of the argmin samplers."""

    def test_chunk_sizes(self, monkeypatch):
        # 600 fast-slope draws are 512 and then 88 from one stream, not one chunk of 600
        rng = stream(32)
        whole = fast_slope_batch(LOGISTIC, UNIFORM, 0.3, 600, stream(32))
        parts = [fast_slope_batch(LOGISTIC, UNIFORM, 0.3, k, rng) for k in (512, 88)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()
        monkeypatch.setattr(limits, "_CHUNK", 600)
        one_chunk = fast_slope_batch(LOGISTIC, UNIFORM, 0.3, 600, stream(32))
        assert whole.tobytes() != one_chunk.tobytes()
        with pytest.raises(ValueError, match="at least one path"):
            fast_slope_batch(LOGISTIC, UNIFORM, 0.3, 0, 1)
        with pytest.raises(ValueError, match="at least one path"):  # the grid-slope kernel
            boundary_limit_batch(1.0, LOGISTIC, UNIFORM, 0.0, COARSE_UNIT, 0, 1)

    @staticmethod
    def _hand_pass(grid, k, rng, a, b, c):
        # argmin of a Z(s) + b s^2 - c s over k whole paths, ties to the largest index
        s = grid.points()
        return s[argmin_last(a * brownian_paths(grid, k, rng) + (b * s * s - c * s))]

    @pytest.mark.parametrize("m", [1, 512, 513, 600])
    def test_argmin_chunks_then_retries_in_order(self, m):
        # a first pass over all m paths, then the escaped draws, in order,
        # on the doubled window, all from one stream: bit for bit the
        # argmins of whole paths, at the default drift and at a drift that
        # centres the argmin at the window's edge
        g = PathGrid(1.0, 0.01, True)
        for a, b, c in ((1.0, 1.0, 0.0), (2.0, 0.5, 1.0)):
            draws = argmin_quadratic_batch(g, m, stream(31), a, b, c)
            rng = stream(31)
            expect, pending, window, levels = np.empty(m), np.arange(m), g, 0
            while pending.size:
                x = self._hand_pass(window, pending.size, rng, a, b, c)
                expect[pending] = x
                pending = pending[np.abs(x) > 0.9 * window.half_width]
                window, levels = window.doubled(), levels + 1
            assert draws.tobytes() == expect.tobytes()
            if m == 600:
                assert levels >= 2


class TestArgminScalingLaw:
    def test_transform_identity_light(self):
        # draws of argmin(aZ + bs^2 - cs) against the rescaled/shifted law
        wide = PathGrid(8.0, 0.004, True)
        direct = argmin_quadratic_batch(wide, 10_000, 11, a=2.0, b=0.5, c=1.0)
        ref = (2.0 / 0.5) ** (2.0 / 3.0) * chernoff_batch(COARSE, 10_000, 12) + 1.0
        assert ks_two_sample(direct, ref) <= 0.035

    def test_affine_shift_of_path_compensated_slope(self):
        # adding alpha + beta*s to a path shifts every minorant slope by beta
        g = PathGrid(1.0, 0.01, False)
        s = g.points()
        z = brownian_paths(g, 1, stream(5))[0]
        base = _hull_left_slope(s, z, 0.5)
        tilted = _hull_left_slope(s, z + 3.0 + 2.0 * s, 0.5)
        assert tilted - 2.0 == pytest.approx(base, abs=1e-12)


class TestGcmSlopeMachinery:
    def test_isotonic_route_matches_hull_route(self):
        g = PathGrid(1.0, 0.01, False)
        s = g.points()
        rng = stream(99)
        paths = brownian_paths(g, 40, rng) + 0.3 * s[None, :] ** 2
        for at, slot in ((0.5, 49), (0.37, 36)):
            for path in paths:
                iso, _ = _slope_at(np.diff(path), slot, g.step)
                hull = _hull_left_slope(s, path, at)
                assert iso == pytest.approx(hull, abs=1e-10)

    def test_zero_noise_slow_drift_has_flat_minorant_at_origin(self):
        # an even convex drift has zero left slope at the origin; the grid
        # version sees the last chord, so the value is 0 up to O(step^beta)
        g = PathGrid(4.0, 0.04, True)
        s = g.points()
        for beta in (1, 3):
            drift = s ** (beta + 1)
            val = _hull_left_slope(s, drift, 0.0)
            assert val == pytest.approx(0.0, abs=g.step**beta + 1e-12)


class TestIncrementRoute:
    """The slope laws fit drawn increments; the route they replace fit ``np.diff`` of paths.

    Both routes run on twin streams.  Only the rounding of the path's cumsum
    and diff separates them, so the draws agree to 1e-12 relative and every
    touched and escape flag is the same.
    """

    GRIDS = (PathGrid(1.0, 0.005, False), PathGrid(1.0, 0.01, True))

    @staticmethod
    def _spy(monkeypatch) -> list:
        """The ``(slope, touched)`` of every path fit by the samplers, in order."""
        fits = []

        def recorded(*args, **kwargs):
            fits.append(_slope_at(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(limits, "_slope_at", recorded)
        return fits

    @staticmethod
    def _assert_close(new, old):
        assert np.all(np.abs(new - old) <= 1e-12 * np.abs(old))

    def _assert_same_fits(self, new_fits, old_fits):
        (new_slopes, new_touched), (old_slopes, old_touched) = (
            np.array(new_fits).T, np.array(old_fits).T
        )
        self._assert_close(new_slopes, old_slopes)
        assert np.array_equal(new_touched, old_touched)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_increments_are_the_path_differences(self, grid):
        rng = stream(401)
        twin = _twin(rng)
        inc = brownian_increments(grid, 300, rng)
        paths = brownian_paths(grid, 300, twin)
        assert inc.shape == (300, paths.shape[1] - 1)
        scale = math.sqrt(grid.half_width)
        assert np.abs(inc - np.diff(paths, axis=1)).max() <= 1e-12 * scale
        assert np.array_equal(rng.random(4), twin.random(4))  # both took the same normals

    def test_slow_law_matches_the_path_route(self, monkeypatch):
        # on [-1, 1] some blocks at the origin touch the window's edge, so
        # both routes redraw those draws on the doubled window
        grid, m = self.GRIDS[1], 600
        coef = limits._slow_drift_coeff(LOGISTIC, UNIFORM, 0.0)
        rng = stream(402)
        twin = _twin(rng)
        new_fits = self._spy(monkeypatch)
        new = slow_limit_batch(LOGISTIC, UNIFORM, 0.0, grid, m, rng)
        old_fits = []

        def old_draw(g, k):
            p = LOGISTIC.noise_scale * brownian_paths(g, k, twin) + coef * g.points() ** 2
            fits = [_slope_at(row, g.n_steps - 1, g.step) for row in np.diff(p, axis=1)]
            old_fits.extend(fits)
            slopes, touched = np.array(fits).T
            return slopes, touched.astype(bool)

        old = limits._redraw_escapes(grid, m, old_draw, "escaped")
        # the first m fits are the first pass; the rest redraw its touched paths
        assert len(new_fits) == len(old_fits) > m and any(t for _, t in new_fits[:m])
        self._assert_same_fits(new_fits, old_fits)
        self._assert_close(new, old)

    @pytest.mark.parametrize("c", [0.0, 2.0])
    def test_boundary_law_matches_the_path_route(self, monkeypatch, c):
        grid, m = self.GRIDS[0], 600
        pts = grid.points()
        drift = boundary_drift(c, LOGISTIC, POLY, 0.3, pts)
        slot = int(np.searchsorted(pts, float(POLY.cdf(0.3)), side="left")) - 1
        rng = stream(403)
        twin = _twin(rng)
        new_fits = self._spy(monkeypatch)
        new = boundary_limit_batch(c, LOGISTIC, POLY, 0.3, grid, m, rng)
        old_fits = [
            _slope_at(row, slot, grid.step)
            for k in (512, 88)
            for row in np.diff(LOGISTIC.noise_scale * brownian_paths(grid, k, twin) + drift, axis=1)
        ]
        assert len(new_fits) == m
        self._assert_same_fits(new_fits, old_fits)
        self._assert_close(new, np.array([slope for slope, _ in old_fits]))

    def test_edge_constant_matches_the_path_route(self):
        grid, m = PathGrid(6.0, 0.01, False), 300
        rng = stream(404)
        twin = _twin(rng)
        d, se = edge_layer_constant(grid, m, rng)
        s = grid.points()
        n = grid.n_steps
        excess = []
        for path in brownian_paths(grid, m, twin) + s * s:
            slopes = isotonic_regression(np.diff(path)).x / grid.step
            profile = 0.5 * np.abs(slopes - (s[:-1] + s[1:]))
            level = profile[n // 3 : 2 * n // 3].mean()
            excess.append(grid.step * (profile[: n // 2].sum() - n // 2 * level))
        excess = np.array(excess)
        old = np.array([excess.mean(), excess.std(ddof=1) / math.sqrt(m)])
        self._assert_close(np.array([d, se]), old)


def _state(x):
    """A generator's ``bit_generator.state`` with its arrays as lists, so ``==`` compares it."""
    return {k: _state(v) for k, v in x.items()} if isinstance(x, dict) else np.asarray(x).tolist()


def _serial_blocks(grid, m, rng, drift_inc, scale=1.0):
    """The route without a helper thread: one ``m``-row draw, fitted as one block."""
    inc = brownian_increments(grid, m, rng, scale)
    inc += drift_inc
    yield inc


def _cov_values(cov) -> np.ndarray:
    return np.concatenate([[cov.estimate, cov.se], cov.cov_curve, cov.cov_se])


class TestIncrementPipeline:
    """The grid samplers draw each block of increments on one helper thread.

    The draws and the randomness they consume must equal those of one
    serial draw per batch (:func:`_serial_blocks`) at every block size: one
    path per block, a size that does not divide every batch, the default,
    and one block of ``_CHUNK + 1`` paths.
    """

    BLOCKS = (1, 3, limits._BLOCK, limits._CHUNK + 1)
    ESCAPING = PathGrid(1.0, 0.01, True)  # some blocks at the origin touch its edge
    SAMPLERS = {
        "argmin": lambda rng: argmin_quadratic_batch(
            TestIncrementPipeline.ESCAPING, 600, rng, 2.0, 0.5, 1.0
        ),
        "slow": lambda rng: slow_limit_batch(
            LOGISTIC, UNIFORM, 0.0, TestIncrementPipeline.ESCAPING, 600, rng
        ),
        "boundary": lambda rng: boundary_limit_batch(
            2.0, LOGISTIC, POLY, 0.3, PathGrid(1.0, 0.005, False), 600, rng
        ),
        "edge": lambda rng: np.array(edge_layer_constant(PathGrid(6.0, 0.01, False), 70, rng)),
        "cov": lambda rng: _cov_values(chernoff_cov_integral(COARSE, 3.0, 0.25, 70, rng, 20)),
    }

    @pytest.mark.parametrize("name", sorted(SAMPLERS))
    def test_draws_do_not_depend_on_the_block_size(self, monkeypatch, name):
        sampler = self.SAMPLERS[name]
        grids = []

        def serial(grid, *args):
            grids.append(grid)
            return _serial_blocks(grid, *args)

        with monkeypatch.context() as patch:
            patch.setattr(limits, "_increment_blocks", serial)
            ref_rng = stream(405)
            ref = sampler(ref_rng)
        if name == "slow":
            assert self.ESCAPING.doubled() in grids  # the escape redraws ran
        for block in self.BLOCKS:
            monkeypatch.setattr(limits, "_BLOCK", block)
            rng = stream(405)
            assert sampler(rng).tobytes() == ref.tobytes(), block
            assert _state(rng.bit_generator.state) == _state(ref_rng.bit_generator.state)

    def test_fits_on_the_calling_thread_draws_on_the_helper(self, monkeypatch):
        fits, draws = [], []
        scaled_normals = limits._scaled_normals

        def fit(row):
            fits.append(threading.get_ident())
            return isotonic_regression(row)

        def draw(*args):
            draws.append(threading.get_ident())
            return scaled_normals(*args)

        monkeypatch.setattr(limits, "isotonic_regression", fit)
        monkeypatch.setattr(limits, "_scaled_normals", draw)
        baseline = threading.active_count()
        for sampler in self.SAMPLERS.values():
            sampler(stream(406))
        assert threading.active_count() == baseline
        assert set(fits) == {threading.get_ident()}
        assert draws and threading.get_ident() not in draws

    def test_helper_joined_after_an_escape_error(self):
        baseline = threading.active_count()
        try:
            chernoff_cov_integral(PathGrid(0.5, 0.005, True), 3.0, 0.25, 200, 407)
        except GridEscapeError as exc:
            escaped = exc  # its traceback keeps the sampler's frames alive
        assert "enlarged window boundary" in str(escaped)
        assert threading.active_count() == baseline

    def test_one_helper_per_batch_or_escape_level(self, monkeypatch):
        # the kernel draws a whole batch, or an escape level's pending draws,
        # through one helper: no chunks of 512 paths, each with its own
        started, grids = [], []
        increment_blocks = limits._increment_blocks

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        def recorded(grid, *args):
            grids.append(grid)
            return increment_blocks(grid, *args)

        monkeypatch.setattr(limits, "ThreadPoolExecutor", Counted)
        monkeypatch.setattr(limits, "_increment_blocks", recorded)
        boundary_limit_batch(2.0, LOGISTIC, POLY, 0.3, PathGrid(1.0, 0.005, False), 1100, 409)
        assert len(started) == 1
        chernoff_cov_integral(PathGrid(4.0, 0.04, True), 3.0, 0.25, 1100, 410, 2)
        assert len(started) == 2
        for escaping in (
            partial(slow_limit_batch, LOGISTIC, UNIFORM, 0.0, self.ESCAPING, 1100, 411),
            partial(argmin_quadratic_batch, self.ESCAPING, 1100, 412, 2.0, 0.5, 1.0),
        ):
            started.clear()
            grids.clear()
            escaping()
            assert grids[:2] == [self.ESCAPING, self.ESCAPING.doubled()]
            assert len(started) == len(grids) == len(set(grids))

    def test_helper_joined_after_its_draw_fails(self, monkeypatch):
        class DrawFailed(RuntimeError):
            pass

        scaled_normals = limits._scaled_normals
        calls = []

        def fails_on_the_third_block(*args):
            calls.append(args)
            if len(calls) == 3:
                raise DrawFailed("third block")
            return scaled_normals(*args)

        monkeypatch.setattr(limits, "_scaled_normals", fails_on_the_third_block)
        baseline = threading.active_count()
        try:
            slow_limit_batch(LOGISTIC, UNIFORM, 0.0, COARSE, 200, 408)
        except DrawFailed as exc:
            failed = exc  # its traceback keeps the sampler's frames alive
        assert str(failed) == "third block" and len(calls) == 3
        assert threading.active_count() == baseline


class TestSlowRegimeSampler:
    def test_matches_scaled_chernoff_for_linear_flatness(self):
        kappa = scaled_chernoff_constant(LOGISTIC, UNIFORM, 0.0)
        sl = slow_limit_batch(LOGISTIC, UNIFORM, 0.0, COARSE, 20_000, 21)
        ref = kappa * chernoff_batch(COARSE, 20_000, 22)
        assert ks_two_sample(sl, ref) <= 0.025

    def test_symmetric_law_for_linear_flatness(self):
        draws = slow_limit_batch(LOGISTIC, UNIFORM, 0.0, COARSE, 20_000, 23)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(0.0, abs=3 * se)

    def test_vanishing_leading_derivative_rejected(self):
        flat = LinkSpec("constant", params=(0.5,))
        with pytest.raises(ValueError, match="strictly positive"):
            slow_limit_batch(flat, UNIFORM, 0.0, COARSE, 10, 1)

    def test_needs_a_two_sided_grid(self):
        with pytest.raises(ValueError, match="two-sided"):
            slow_limit_batch(LOGISTIC, UNIFORM, 0.0, COARSE_UNIT, 10, 1)

    def test_higher_flatness_off_the_flat_point_rejected_before_any_path(self, monkeypatch):
        # the s^(beta+1) drift expands the link at 0, where only it is flat
        def no_paths(*args):
            raise AssertionError("a path was drawn before the x0 check")

        monkeypatch.setattr(limits, "_scaled_normals", no_paths)
        flat3 = LinkSpec("beta_flat", beta=3)
        with pytest.raises(ValueError, match="x0 = 0 only"):
            slow_limit_batch(flat3, UNIFORM, 0.4, COARSE, 10, 1)
        with pytest.raises(ValueError, match="x0 = 0 only"):
            sample_limit_batch("slow_fbeta", 10, 1, link=flat3, law=UNIFORM, x0=-0.2, beta=3)

    def test_higher_flatness_spreads_wider(self):
        flat3 = LinkSpec("beta_flat", beta=3)
        d3 = slow_limit_batch(flat3, UNIFORM, 0.0, COARSE, 5000, 24)
        d1 = slow_limit_batch(LOGISTIC, UNIFORM, 0.0, COARSE, 5000, 25)
        assert d3.std() > d1.std()


class TestScaledChernoffConstant:
    def test_logistic_uniform_value(self):
        kappa = scaled_chernoff_constant(LOGISTIC, UNIFORM, 0.0)
        assert kappa == pytest.approx((4 * 0.25 * 0.25 / 0.5) ** (1 / 3), abs=1e-12)
        assert kappa == pytest.approx(0.7937005, abs=1e-6)

    def test_density_doubling_scales_by_cube_root(self):
        half = FeatureLaw("uniform", 0.5)  # density 1.0 = twice the unit law
        k1 = scaled_chernoff_constant(LOGISTIC, UNIFORM, 0.0)
        k2 = scaled_chernoff_constant(LOGISTIC, half, 0.0)
        assert k2 / k1 == pytest.approx(2.0 ** (-1 / 3), rel=1e-12)

    def test_flat_link_directs_to_general_sampler(self):
        flat3 = LinkSpec("beta_flat", beta=3)
        with pytest.raises(ValueError, match="slow-regime sampler"):
            scaled_chernoff_constant(flat3, UNIFORM, 0.0)
        with pytest.raises(ValueError, match="order 1"):
            scaled_chernoff_constant(flat3, UNIFORM, 0.0)
        with pytest.raises(ValueError, match="vanishing first derivative"):
            scaled_chernoff_constant(LinkSpec("constant", params=(0.5,)), UNIFORM, 0.0)


class TestBoundaryDrift:
    def test_empty_range_is_zero(self):
        assert boundary_drift(1.0, LOGISTIC, UNIFORM, 0.0, 0.0) == 0.0

    def test_full_range_symmetry(self):
        val = boundary_drift(1.0, LOGISTIC, UNIFORM, 0.0, 1.0)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_half_range_closed_form(self):
        # E[X 1{X <= 0}] = -1/4 for the unit uniform law
        val = boundary_drift(4.0, LOGISTIC, UNIFORM, 0.0, 0.5)
        assert val == pytest.approx(-2.0 * 0.25 / 4.0, abs=1e-10)

    @pytest.mark.parametrize("law", [UNIFORM, POLY], ids=["uniform", "polynomial"])
    @pytest.mark.parametrize("beta", [1, 3])
    @pytest.mark.parametrize("x0", [0.0, 0.3])
    def test_exact_drift_matches_quadrature(self, law, beta, x0):
        # the antiderivative against adaptive quadrature of (x^beta - x0^beta) g(x)
        link = LOGISTIC if beta == 1 else LinkSpec("beta_flat", beta=3)
        scale = math.sqrt(2.0) * link.taylor_coefficient
        pts = np.linspace(0.0, 1.0, 11)
        drift = boundary_drift(2.0, link, law, x0, pts)
        for s, got in zip(pts, drift):
            upper = float(law.quantile(float(s)))
            ref, _ = quad(
                lambda x: (x**beta - x0**beta) * law.density(x),
                -law.half_width,
                upper,
                epsabs=1e-14,
                epsrel=1e-14,
            )
            assert abs(got - scale * ref) <= 1e-12
            scalar = boundary_drift(2.0, link, law, x0, float(s))
            assert type(scalar) is float and scalar == got

    def test_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            boundary_drift(-1.0, LOGISTIC, UNIFORM, 0.0, 0.5)
        with pytest.raises(ValueError, match="quantile argument"):
            boundary_drift(1.0, LOGISTIC, UNIFORM, 0.0, np.array([0.5, 1.5]))


class TestBoundarySampler:
    def test_interior_point_required(self):
        # every tag that uses x0 checks it before drawing; l1_fast_maxA ignores it
        for tag in ("scaled_chernoff", "slow_fbeta", "boundary_gbc", "fast_w_slope"):
            for x0 in (1.0, -2.0, float("nan")):
                with pytest.raises(ValueError, match="interior"):
                    sample_limit_batch(tag, 4, 1, link=LOGISTIC, law=UNIFORM, x0=x0, c=1.0)
        sample_limit_batch("l1_fast_maxA", 4, 1, link=LOGISTIC, law=UNIFORM, x0=2.0)

    def test_needs_unit_grid(self):
        with pytest.raises(ValueError, match="one-sided"):
            boundary_limit_batch(1.0, LOGISTIC, UNIFORM, 0.0, COARSE, 4, 1)

    def test_weak_continuity_in_drift_scale(self):
        # nearby drift scales give closer laws than distant ones
        m = 20_000
        k_near = ks_two_sample(
            boundary_limit_batch(0.9, LOGISTIC, UNIFORM, 0.0, COARSE_UNIT, m, 31),
            boundary_limit_batch(1.1, LOGISTIC, UNIFORM, 0.0, COARSE_UNIT, m, 32),
        )
        k_far = ks_two_sample(
            boundary_limit_batch(0.0, LOGISTIC, UNIFORM, 0.0, COARSE_UNIT, m, 33),
            boundary_limit_batch(4.0, LOGISTIC, UNIFORM, 0.0, COARSE_UNIT, m, 34),
        )
        assert k_near <= k_far

    def test_deterministic_reduction_for_dominant_drift(self):
        # with the noise switched off the draw is the minorant slope of the
        # drift itself; the drift is convex with zero slope at the center
        pts = COARSE_UNIT.points()
        drift = boundary_drift(9.0, LOGISTIC, UNIFORM, 0.0, pts)
        val = _hull_left_slope(pts, drift, float(UNIFORM.cdf(0.0)))
        assert val == pytest.approx(0.0, abs=1e-3)
        probe = 0.9
        expect = math.sqrt(9.0) * 0.25 * (float(UNIFORM.quantile(probe)) - 0.0)
        got = _hull_left_slope(pts, drift, probe)
        assert got == pytest.approx(expect, abs=0.01)


class TestL1FastSampler:
    def test_zero_path_maps_to_zero(self):
        w = np.zeros(101)
        val = 0.5 * (w[-1] - 2.0 * w.min())
        assert val == 0.0

    def test_draws_nonnegative(self):
        draws = l1_fast_batch(LOGISTIC, 5000, 41)
        assert np.all(draws >= 0.0)
        assert draws.mean() > 0.5  # scale sanity

    def test_takes_no_grid(self):
        with pytest.raises(ValueError, match="no grid"):
            sample_limit_batch("l1_fast_maxA", 10, 1, link=LOGISTIC, law=UNIFORM, grid=COARSE_UNIT)

    def test_exact_chi3_law_without_paths(self, monkeypatch):
        def no_paths(*args):
            raise AssertionError("the exact sampler simulated a path")

        monkeypatch.setattr(limits, "_scaled_normals", no_paths)
        draws = l1_fast_batch(LOGISTIC, 20_000, 42) / LOGISTIC.noise_scale
        assert kstest(draws, chi(3).cdf).statistic <= 1.36 / math.sqrt(draws.size)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 2.0 * math.sqrt(2.0 / math.pi)) <= 3 * se

    def test_path_representation_has_exact_mean(self):
        # W(1) - 2 min W on a grid of step h sits 2 * 0.5826 * sqrt(h) below
        # the continuous law in mean: the discrete-minimum bias, with
        # 0.5826 = -zeta(1/2) / sqrt(2 pi)
        g = PathGrid(1.0, 1e-3, False)
        rng = stream(207)
        paths = (brownian_paths(g, 2000, rng) for _ in range(10))
        reps = np.concatenate([w[:, -1] - 2.0 * w.min(axis=1) for w in paths])
        se = reps.std(ddof=1) / math.sqrt(reps.size)
        corrected = reps.mean() + 2.0 * 0.5826 * math.sqrt(g.step)
        assert abs(corrected - 2.0 * math.sqrt(2.0 / math.pi)) <= 3 * se

    def test_representation_covariance_light(self):
        # Cov(W(1)-2W(u), W(1)-2W(v)) = 1 - 2|u - v|
        g = COARSE_UNIT
        pts = g.points()
        idx = [np.searchsorted(pts, u) for u in (0.2, 0.5, 0.8)]
        paths = brownian_paths(g, 30_000, stream(55))
        reps = paths[:, -1][:, None] - 2.0 * paths[:, idx]
        emp = np.cov(reps.T)
        for i, u in enumerate((0.2, 0.5, 0.8)):
            for j, v in enumerate((0.2, 0.5, 0.8)):
                assert emp[i, j] == pytest.approx(1 - 2 * abs(u - v), abs=0.03)


class TestExactFastSlopeLaw:
    """The fast-regime pointwise law from the stick-breaking faces of the minorant of W.

    KS bounds are the 0.1 % critical values, 1.95 / sqrt(m) for one sample
    and 1.95 sqrt(2 / m) for two samples of m.
    """

    M = 20_000

    def test_face_increments_sum_to_a_standard_normal(self):
        # the faces add up to W(1), up to the leftover's N(0, e^-48)
        lengths, slopes, _ = _break_sticks(np.ones(self.M), stream(301))
        total = (lengths * slopes).sum(axis=1)
        assert kstest(total, norm.cdf).statistic <= 1.95 / math.sqrt(self.M)

    def test_total_variation_is_chi3(self):
        # sum sqrt(l) |Z| is W(1) - 2 min W, which l1_fast_batch draws as chi_3
        lengths, slopes, _ = _break_sticks(np.ones(self.M), stream(302))
        total = (lengths * np.abs(slopes)).sum(axis=1)
        assert kstest(total, chi(3).cdf).statistic <= 1.95 / math.sqrt(self.M)

    def test_symmetric_at_the_median(self):
        # F(0) = 1/2 on the uniform law, and W(1 - t) - W(1) mirrors the minorant
        a = fast_slope_batch(LOGISTIC, UNIFORM, 0.0, self.M, 303)
        b = fast_slope_batch(LOGISTIC, UNIFORM, 0.0, self.M, 304)
        assert ks_two_sample(a, -b) <= 1.95 * math.sqrt(2.0 / self.M)
        assert abs(a.mean()) <= 3.0 * a.std(ddof=1) / math.sqrt(self.M)

    def test_matches_the_grid_sampler(self):
        m = 10_000
        exact = fast_slope_batch(LOGISTIC, POLY, 0.3, m, 305)
        grid = boundary_limit_batch(0.0, LOGISTIC, POLY, 0.3, COARSE_UNIT, m, 306)
        assert ks_two_sample(exact, grid) <= 1.95 * math.sqrt(2.0 / m)

    def test_continuation_keeps_the_law(self, monkeypatch):
        # two sticks per round leave about e^-2 of [0, 1], so most draws
        # need the leftover broken again before the certificate holds
        full = fast_slope_batch(LOGISTIC, UNIFORM, 0.3, self.M, 307)
        rounds = []

        def counted(left, rng):
            rounds.append(left.size)
            return _break_sticks(left, rng)

        monkeypatch.setattr(limits, "_STICKS", 2)
        monkeypatch.setattr(limits, "_break_sticks", counted)
        short = fast_slope_batch(LOGISTIC, UNIFORM, 0.3, self.M, 308)
        chunks = -(-self.M // 512)
        assert len(rounds) > 3 * chunks
        assert ks_two_sample(full, short) <= 1.95 * math.sqrt(2.0 / self.M)

    def test_takes_no_grid_and_draws_no_path(self, monkeypatch):
        def no_paths(*args):
            raise AssertionError("the exact sampler simulated a path")

        monkeypatch.setattr(limits, "_scaled_normals", no_paths)
        b = sample_limit_batch("fast_w_slope", 10, 1, link=LOGISTIC, law=UNIFORM)
        assert b.grid is None and b.draws.size == 10
        with pytest.raises(ValueError, match="no grid"):
            sample_limit_batch("fast_w_slope", 10, 1, link=LOGISTIC, law=UNIFORM, grid=COARSE_UNIT)


class TestMonteCarloConstants:
    def test_abs_mean_requires_bulk(self):
        with pytest.raises(ValueError):
            chernoff_abs_mean_mc(100, 1)

    def test_abs_mean_se_scaling(self):
        est1, se1 = chernoff_abs_mean_mc(10_000, 61)
        est4, se4 = chernoff_abs_mean_mc(40_000, 62)
        assert abs(est4 - REF_CHERNOFF_ABS_MEAN) <= 4 * se4
        assert se1 / se4 == pytest.approx(2.0, rel=0.2)

    def test_abs_mean_stable_under_grid_refinement(self):
        # the grid sampler's E|Z| at two steps, against each other
        coarse = np.abs(chernoff_batch(COARSE, 20_000, 63))
        fine = np.abs(chernoff_batch(PathGrid(8.0, 0.002, True), 20_000, 64))
        se = math.hypot(coarse.std(ddof=1), fine.std(ddof=1)) / math.sqrt(20_000)
        assert abs(coarse.mean() - fine.mean()) <= 3 * se

    def test_cov_integral_diagnostics(self):
        g = PathGrid(4.0, 0.008, True)
        res = chernoff_cov_integral(g, 4.0, 0.25, 4000, 65, bootstrap=100)
        assert res.cov_curve[0] > 0  # variance of |X(0)|
        assert res.estimate > 0
        assert abs(res.tail_cov) <= 3 * res.tail_se  # truncation audit
        assert res.a_values[-1] == pytest.approx(4.0)

    def test_cov_integral_shifts_match_the_direct_argmin(self, monkeypatch):
        # oracle: argmin_s {Z(s) + (s - a)^2} per shift on the same paths,
        # rebuilt from a twin stream, ties to the largest index, against
        # the one minorant per path
        shifts = []
        grid_draws = limits._grid_draws

        def kept_shifts(*args):
            out = grid_draws(*args)
            shifts.append(out)
            return out

        monkeypatch.setattr(limits, "_grid_draws", kept_shifts)
        rng = stream(68)
        twin = _twin(rng)
        res = chernoff_cov_integral(PathGrid(2.0, 0.01, True), 3.0, 0.25, 600, rng, bootstrap=2)
        big = PathGrid(5.0, 0.01, True)
        s = big.points()
        z = brownian_paths(big, 600, twin)
        direct = np.column_stack(
            [np.abs(s[argmin_last(z + (s - a) ** 2)] - a) for a in res.a_values]
        )
        assert np.array_equal(shifts[0], direct)

    def test_cov_integral_validation(self):
        with pytest.raises(ValueError):
            chernoff_cov_integral(COARSE, 2.0, 0.25, 1000, 1)
        with pytest.raises(ValueError):
            chernoff_cov_integral(COARSE, 4.0, 0.5, 1000, 1)

    @pytest.mark.parametrize("grid, a_max, a_step, m, match", [
        (COARSE, 2.5, 0.25, 10, "a_max"),
        (COARSE, 4.0, 0.0, 10, "shift step"),
        (COARSE, 4.0, 0.3, 10, "shift step"),
        (PathGrid(4.0, 0.004, False), 4.0, 0.25, 10, "two-sided"),
        (COARSE, 4.0, 0.25, 1, "at least 2 draws"),
    ])
    def test_cov_integral_inputs_checked_before_any_path(
        self, monkeypatch, grid, a_max, a_step, m, match
    ):
        def no_paths(*args):
            raise AssertionError("a path was drawn before the input check")

        monkeypatch.setattr(limits, "_scaled_normals", no_paths)
        with pytest.raises(ValueError, match=match):
            chernoff_cov_integral(grid, a_max, a_step, m, 1)

    def test_shift_family_stationarity(self):
        # X(a) - a has the centered law for every shift
        wide = PathGrid(8.0, 0.004, True)
        shifted = argmin_quadratic_batch(wide, 20_000, 66, a=1.0, b=1.0, c=4.0) - 2.0
        plain = chernoff_batch(COARSE, 20_000, 67)
        assert ks_two_sample(shifted, plain) <= 0.02


class TestCenteringAndVariance:
    def test_centering_integral_limit(self):
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.25)
        val = mu_n(scn, 10**12, 1.0, QuadratureCfg(1e-10))
        assert val == pytest.approx(2.0 * 0.5 ** (1 / 3), abs=1e-6)

    def test_affine_clip_points_inside_the_support(self):
        # kappa_n has a cube-root zero at the clip points x = -0.25, 0.25;
        # the closed form is 4^(1/3) / 4 * B(1/2, 4/3)
        scn = Scenario(LinkSpec("affine", 1, (0.5, 2.0)), UNIFORM, 1.0, 0.0)
        exact = 4 ** (1 / 3) / 4 * beta_fn(0.5, 4 / 3)
        assert exact == pytest.approx(0.6677476047133829, abs=1e-15)
        assert mu_n(scn, 2000, 1.0) == pytest.approx(0.6677476047133829, abs=1e-10)

    def test_centering_needs_a_positive_link_slope(self):
        scn = Scenario(LinkSpec("constant", params=(0.5,)), UNIFORM, 1.0, 0.25)
        with pytest.raises(ValueError, match="strictly positive link slope"):
            mu_n(scn, 1000, 0.41)

    def test_centering_positive_and_linear(self):
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.25)
        base = mu_n(scn, 1000, 0.41)
        assert base > 0
        assert mu_n(scn, 1000, 0.82) == pytest.approx(2 * base, rel=1e-12)


class TestSupportBoundaryLayer:
    def test_edge_constant_deterministic_and_positive(self):
        grid = PathGrid(6.0, 0.006, False)
        first = edge_layer_constant(grid, 2000, 71)
        assert edge_layer_constant(grid, 2000, 71) == first
        d, se = first
        assert d > 5 * se > 0

    def test_edge_constant_validation(self):
        with pytest.raises(ValueError, match="one-sided"):
            edge_layer_constant(COARSE, 100, 1)
        with pytest.raises(ValueError, match="L >= 6"):
            edge_layer_constant(PathGrid(4.0, 0.01, False), 100, 1)
        with pytest.raises(ValueError, match="2 paths"):
            edge_layer_constant(PathGrid(6.0, 0.01, False), 1, 1)

    def test_local_width_at_the_centre(self):
        # logistic, unit uniform: h_n(0) = (32 / (n delta_n^2))^(1/3)
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.25)
        n = 40_000
        expect = (32.0 / (n * scn.delta(n) ** 2)) ** (1.0 / 3.0)
        assert local_width(scn, n, 0.0) == pytest.approx(expect, rel=1e-12)
        with pytest.raises(ValueError, match="positive link slope"):
            local_width(Scenario(LinkSpec("affine", params=(0.35, 0.2)), UNIFORM, 40.0, 0.0), n, 1.0)

    def test_boundary_share_shrinks_like_cube_root(self):
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.25)
        ns = np.array([1e3, 1e4, 1e5, 1e6, 1e8])
        x = ns * np.array([scn.delta(n) for n in ns]) ** 2
        share = np.array([boundary_term(scn, n, 1.0) / mu_n(scn, n, 1.0) for n in ns])
        slope = np.polyfit(np.log(x), np.log(share), 1)[0]
        assert slope == pytest.approx(-1.0 / 3.0, abs=1e-3)
        # with D = E|X(0)| = 1 the share tends to h_n / T = (32 / (n delta_n^2))^(1/3)
        assert share * x ** (1.0 / 3.0) == pytest.approx(32.0 ** (1.0 / 3.0), rel=1e-3)

    def test_corrected_centering_predicts_small_n_mean(self):
        # at n = 2500 the first-order centering is off by about 40%
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.25)
        n = 2500
        edge, _ = edge_layer_constant(DEFAULT_EDGE_GRID, 8000, 311)
        first = mu_n(scn, n, chernoff_abs_mean())
        center = first + boundary_term(scn, n, edge)
        phi = scn.phi_fn(n)
        errs = [
            l1_error(npmle_fit(draw_sample(scn, n, stream(312, r))), phi, "lebesgue", interval=(-1.0, 1.0))
            for r in range(1000)
        ]
        scaled_mean = (n / scn.delta(n)) ** (1.0 / 3.0) * float(np.mean(errs))
        assert scaled_mean / first > 1.3
        assert scaled_mean / center == pytest.approx(1.0, abs=0.05)


class TestLimitBatches:
    def test_tags_and_determinism(self):
        grids = {
            "scaled_chernoff": None,
            "boundary_gbc": COARSE_UNIT,
            "fast_w_slope": None,
            "l1_fast_maxA": None,
        }
        for tag, grid in grids.items():
            b1 = sample_limit_batch(tag, 200, 77, link=LOGISTIC, law=UNIFORM, grid=grid)
            b2 = sample_limit_batch(tag, 200, 77, link=LOGISTIC, law=UNIFORM, grid=grid)
            assert np.array_equal(b1.draws, b2.draws)
            assert b1.law_tag == tag
            assert b1.grid == grid

    def test_draw_count_validated(self):
        for m in (0, -3):
            with pytest.raises(ValueError, match="draws"):
                sample_limit_batch("scaled_chernoff", m, 1, link=LOGISTIC, law=UNIFORM)

    def test_beta_mismatch_rejected_before_any_path(self, monkeypatch):
        # a beta that contradicts the link would otherwise draw with the
        # link's own order (or, for boundary_gbc, silently without drift)
        def no_paths(*args):
            raise AssertionError("a path was drawn before the beta check")

        monkeypatch.setattr(limits, "_scaled_normals", no_paths)
        flat3 = LinkSpec("beta_flat", beta=3)
        for tag in limits.LAW_TAGS:
            with pytest.raises(ValueError, match="does not match"):
                sample_limit_batch(tag, 10, 1, link=LOGISTIC, law=UNIFORM, beta=3)
            with pytest.raises(ValueError, match="does not match"):
                sample_limit_batch(tag, 10, 1, link=flat3, law=UNIFORM)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="law tag"):
            sample_limit_batch("weird", 10, 1, link=LOGISTIC, law=UNIFORM)

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            LimitBatch("scaled_chernoff", np.array([np.inf]), COARSE)

    def test_boundary_batch_records_c(self):
        b = sample_limit_batch(
            "boundary_gbc", 50, 78, link=LOGISTIC, law=UNIFORM, c=2.5, grid=COARSE_UNIT
        )
        assert b.params["c"] == 2.5


class TestBiasLedger:
    """Each grid slope law's own window, against a finer and a wider one.

    Step: a path's increments summed in pairs are the same path on the grid
    of twice the step, so one draw gives its slope at both steps (the
    coupling of multilevel Monte Carlo, Giles 2008, Oper. Res. 56).  The
    shift of E|.| from the old default step, half the law's own, stays
    within 0.2 % of E|.|: a scale change that small moves a near-normal law
    by about 0.0005 in KS distance, a quarter of the two-sample KS noise at
    10^6 draws a side.  Window: the slope at 0 is the one on the doubled
    window, with the same increments in the middle.
    """

    BUDGET = 0.002

    @staticmethod
    def _coupled(grid, drift, scale, slot, m, seed):
        """``|slope|`` at step ``grid.step / 2`` and at ``grid.step``, one row per path."""
        fine = replace(grid, step=grid.step / 2)
        fine_slot, own_slot = slot(fine), slot(grid)

        def both_steps(row):
            pairs = row.reshape(-1, 2).sum(axis=1)
            return (
                abs(_slope_at(row, fine_slot, fine.step)[0]),
                abs(_slope_at(pairs, own_slot, grid.step)[0]),
            )

        drift_inc = np.diff(drift(fine.points()))
        return limits._grid_draws(fine, m, stream(seed), drift_inc, scale, both_steps)

    def _assert_within_budget(self, draws):
        fine, own = draws.T
        shift = own.mean() - fine.mean()
        se = (own - fine).std(ddof=1) / math.sqrt(own.size)
        assert abs(shift) <= self.BUDGET * own.mean(), (shift, se, own.mean())

    def test_boundary_step(self):
        # simulate-limit's default boundary scenario: logistic link, uniform law, x0 = 0, c = 1
        grid, t0 = law_grid("boundary_gbc"), float(UNIFORM.cdf(0.0))
        draws = self._coupled(
            grid,
            lambda s: boundary_drift(1.0, LOGISTIC, UNIFORM, 0.0, s),
            LOGISTIC.noise_scale,
            lambda g: int(np.searchsorted(g.points(), t0, side="left")) - 1,
            8192,
            501,
        )
        self._assert_within_budget(draws)

    @pytest.mark.parametrize("link, m, seed", [(LOGISTIC, 6144, 502), (FLAT3, 10240, 503)])
    def test_slow_step(self, link, m, seed):
        coef = limits._slow_drift_coeff(link, UNIFORM, 0.0)
        draws = self._coupled(
            law_grid("slow_fbeta", link.beta),
            lambda s: coef * s ** (link.beta + 1),
            link.noise_scale,
            lambda g: g.n_steps - 1,
            m,
            seed,
        )
        self._assert_within_budget(draws)

    @staticmethod
    def _same_slope_on_the_doubled_window(link, m, seed):
        """Per path: is the slope at 0 on the law's window the one on its double?"""
        narrow = law_grid("slow_fbeta", link.beta)
        wide = narrow.doubled()
        cut = wide.n_steps - narrow.n_steps
        coef = limits._slow_drift_coeff(link, UNIFORM, 0.0)

        def same(row):
            at_narrow = _slope_at(row[cut : row.size - cut], narrow.n_steps - 1, narrow.step)[0]
            return at_narrow == _slope_at(row, wide.n_steps - 1, wide.step)[0]

        drift_inc = np.diff(coef * wide.points() ** (link.beta + 1))
        return limits._grid_draws(wide, m, stream(seed), drift_inc, link.noise_scale, same)

    @pytest.mark.parametrize("beta, seed", [(3, 504), (5, 505)])
    def test_flat_slow_window_keeps_every_slope(self, beta, seed):
        same = self._same_slope_on_the_doubled_window(LinkSpec("beta_flat", beta=beta), 2048, seed)
        assert same.all(), int((~same).sum())

    def test_linear_slow_window_keeps_its_slopes(self):
        # the quadratic drift confines the minorant less: [-2, 2] moves 174 of these slopes
        same = self._same_slope_on_the_doubled_window(LOGISTIC, 2048, 506)
        assert same.mean() >= 0.995, int((~same).sum())


class TestGridRefinementStability:
    """Mean and sd of every sampler stable under h -> h/2 and S -> 2S."""

    def _stable(self, a, b):
        m = min(a.size, b.size)
        se = math.hypot(a.std(ddof=1) / math.sqrt(a.size), b.std(ddof=1) / math.sqrt(b.size))
        assert abs(a.mean() - b.mean()) <= 3 * se
        sd_se = math.hypot(
            a.std(ddof=1) / math.sqrt(2 * a.size), b.std(ddof=1) / math.sqrt(2 * b.size)
        )
        assert abs(a.std(ddof=1) - b.std(ddof=1)) <= 3 * sd_se + 1e-9

    def test_chernoff(self):
        coarse = chernoff_batch(PathGrid(4.0, 0.008, True), 8000, 201)
        fine = chernoff_batch(PathGrid(8.0, 0.004, True), 8000, 202)
        self._stable(coarse, fine)

    def test_slow_limit(self):
        coarse = slow_limit_batch(LOGISTIC, UNIFORM, 0.0, PathGrid(4.0, 0.008, True), 5000, 203)
        fine = slow_limit_batch(LOGISTIC, UNIFORM, 0.0, PathGrid(8.0, 0.004, True), 5000, 204)
        self._stable(coarse, fine)

    def test_boundary(self):
        coarse = boundary_limit_batch(1.0, LOGISTIC, UNIFORM, 0.0, PathGrid(1.0, 0.002, False), 5000, 205)
        fine = boundary_limit_batch(1.0, LOGISTIC, UNIFORM, 0.0, PathGrid(1.0, 0.001, False), 5000, 206)
        self._stable(coarse, fine)


class TestSlowLimitIdentityFullSize:
    def test_matches_scaled_chernoff_at_contract_size(self):
        # the linear-flatness slope sampler and the rescaled argmin law
        # agree at the contracted 5e4-draw size and 0.02 tolerance
        kappa = scaled_chernoff_constant(LOGISTIC, UNIFORM, 0.0)
        sl = slow_limit_batch(LOGISTIC, UNIFORM, 0.0, COARSE, 50_000, 211)
        ref = kappa * chernoff_batch(COARSE, 50_000, 212)
        assert ks_two_sample(sl, ref) <= 0.02


class TestRepresentationIdentities:
    def test_covariance_expansion_analytic(self):
        # Cov(W(1)-2W(u), W(1)-2W(v)) = 1 - 2v - 2u + 4 min(u, v) = 1 - 2|u-v|
        rng = np.random.default_rng(3)
        for _ in range(50):
            u, v = sorted(rng.random(2))
            lhs = 1.0 - 2.0 * v - 2.0 * u + 4.0 * min(u, v)
            assert lhs == pytest.approx(1.0 - 2.0 * abs(u - v), abs=1e-15)

    def test_shift_family_stationarity_contract_size(self):
        # law of X(a) - a at a = 2 matches X(0), at the contracted size
        wide = PathGrid(8.0, 0.004, True)
        shifted = argmin_quadratic_batch(wide, 50_000, 215, a=1.0, b=1.0, c=4.0) - 2.0
        plain = chernoff_batch(COARSE, 50_000, 216)
        assert ks_two_sample(shifted, plain) <= 0.02
