"""Samplers for every limit law arising in the weak-impact scenario.

All samplers are pure functions of (parameters, grid, seed) and draw a
whole batch.  Three laws are drawn exactly: the Chernoff law by inversion
of its Airy-function CDF (:func:`chernoff_table`), the fast-regime L1 law
as a chi_3 norm, and the fast-regime pointwise law from the stick-breaking
faces of the minorant of W (:func:`fast_slope_batch`).  The others
discretize Gaussian paths on a fixed grid and read the law off the
greatest convex minorant of the path: one kernel (:func:`_grid_draws`)
hands each path's drawn increments, with no path built, to a reader that
fits them, checked in the tests against the monotone stack.  The slope
laws read a left slope; the argmin samplers and the covariance integral
read the largest minimizer, where the slope crosses 0 or a shift's tilt
(:func:`_largest_minimizers`).  The kernel draws the increments one block
of paths ahead on one helper thread while the calling thread fits the
block before (:func:`_increment_blocks`); the draws depend on neither the
block size nor the core count.

Grid policy (:func:`_redraw_escapes`): the argmin and slow-regime
samplers live on a two-sided window [-S, S] with a confining drift; an
escaped draw (argmin in the outer 10%, minorant block touching the
boundary) is redrawn on a doubled window, at most three times, after
which a :class:`GridEscapeError` signals a mis-set grid.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np
from numpy.polynomial import Polynomial
from scipy.special import airy

from .estimator import isotonic_regression
from .metrics import QuadratureCfg, _gl_checked, _split_points
from .model import FeatureLaw, LinkSpec, Scenario, link_eval, link_slope
from .streams import stream

__all__ = [
    "PathGrid",
    "GridEscapeError",
    "ChernoffTable",
    "LimitBatch",
    "CovIntegral",
    "DEFAULT_TWO_SIDED_GRID",
    "DEFAULT_EDGE_GRID",
    "LAW_GRIDS",
    "LAW_TAGS",
    "law_grid",
    "brownian_paths",
    "brownian_increments",
    "chernoff_batch",
    "argmin_quadratic_batch",
    "chernoff_table",
    "chernoff_exact_batch",
    "scaled_chernoff_constant",
    "slow_limit_batch",
    "check_slow_pointwise",
    "boundary_drift",
    "boundary_limit_batch",
    "l1_fast_batch",
    "fast_slope_batch",
    "chernoff_abs_mean",
    "chernoff_abs_mean_mc",
    "chernoff_cov_integral",
    "edge_layer_constant",
    "mu_n",
    "local_width",
    "boundary_term",
    "sample_limit_batch",
]

_CHUNK = 512  # draws per chunk of the stick-breaking sampler, whose draws depend on it
_BLOCK = 32  # paths per block drawn ahead of the minorant fits; no draw depends on it


class GridEscapeError(RuntimeError):
    """Argmin or minorant block kept hitting the grid boundary."""


@dataclass(frozen=True)
class PathGrid:
    """Uniform simulation grid: [-S, S] when two-sided, else [0, S]."""

    half_width: float
    step: float
    two_sided: bool = True

    def __post_init__(self) -> None:
        if self.half_width <= 0 or self.step <= 0:
            raise ValueError("grid extent and step must be positive")
        ratio = self.half_width / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("grid half-width must be an integer multiple of the step")
        if self.step > 0.01 * self.half_width + 1e-15:
            raise ValueError("grid step must not exceed 1% of the half-width")

    @property
    def n_steps(self) -> int:
        return int(round(self.half_width / self.step))

    def points(self) -> np.ndarray:
        n = self.n_steps
        if self.two_sided:
            return self.step * np.arange(-n, n + 1)
        return self.step * np.arange(n + 1)

    def doubled(self) -> "PathGrid":
        return PathGrid(2.0 * self.half_width, self.step, self.two_sided)


DEFAULT_TWO_SIDED_GRID = PathGrid(4.0, 0.002, True)
DEFAULT_EDGE_GRID = PathGrid(6.0, 1e-3, False)

# each law's own window (None: drawn exactly); the order fixes each tag's stream id.
# The tests' bias ledger bounds the grid laws' step and window bias.
LAW_GRIDS: dict[str, PathGrid | None] = {
    "scaled_chernoff": None,
    "slow_fbeta": PathGrid(4.0, 0.004, True),  # [-2, 2] from beta = 3 on (law_grid)
    "boundary_gbc": PathGrid(1.0, 4e-4, False),
    "fast_w_slope": None,
    "l1_fast_maxA": None,
}
LAW_TAGS = tuple(LAW_GRIDS)


def law_grid(law_tag: str, beta: int = 1) -> PathGrid | None:
    """The law's own window at flatness order ``beta`` (:data:`LAW_GRIDS`).

    The slow law's ``s^(beta+1)`` drift confines its minorant at 0 to [-2, 2]
    from ``beta = 3`` on, where the window halves; the tests check both.
    """
    if law_tag not in LAW_GRIDS:
        raise ValueError(f"unknown law tag {law_tag!r}; choose from {LAW_TAGS}")
    grid = LAW_GRIDS[law_tag]
    return replace(grid, half_width=2.0) if law_tag == "slow_fbeta" and beta > 1 else grid


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng))


def _scaled_normals(grid: PathGrid, m: int, rng, scale: float = 1.0) -> np.ndarray:
    """``m`` rows of ``scale * sqrt(step)`` times one standard normal per grid step."""
    inc = rng.standard_normal((m, (2 if grid.two_sided else 1) * grid.n_steps))
    inc *= scale * math.sqrt(grid.step)
    return inc


def brownian_paths(grid: PathGrid, m: int, rng: np.random.Generator) -> np.ndarray:
    """m standard Brownian paths on the grid, pinned to 0 at the origin.

    Two-sided paths are glued from two independent one-sided paths; the
    negative-side increments are consumed from the generator first.
    """
    n = grid.n_steps
    # summed into ``out``: two path-sized arrays per chunk
    inc = _scaled_normals(grid, m, rng)
    if grid.two_sided:
        out = np.empty((m, 2 * n + 1))
        out[:, n] = 0.0
        np.cumsum(inc[:, :n], axis=1, out=out[:, n - 1 :: -1])
        np.cumsum(inc[:, n:], axis=1, out=out[:, n + 1 :])
        return out
    out = np.empty((m, n + 1))
    out[:, 0] = 0.0
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def brownian_increments(grid: PathGrid, m: int, rng, scale: float = 1.0) -> np.ndarray:
    """Left-to-right increments of ``scale`` times the paths of :func:`brownian_paths`.

    The same normals from the same stream, with no path built: on a two-sided
    grid the negative side, drawn outwards from the origin, is reversed and negated.
    """
    inc = _scaled_normals(grid, m, rng, scale)
    if grid.two_sided:
        inc[:, : grid.n_steps] = -inc[:, grid.n_steps - 1 :: -1]
    return inc


def _increment_blocks(grid: PathGrid, m: int, rng, drift_inc, scale: float = 1.0):
    """``brownian_increments(grid, m, rng, scale) + drift_inc`` in blocks of ``_BLOCK`` rows.

    One helper thread draws the next block while the caller works on this
    one.  Rows fill in C order and all work is per row, so the blocks are
    bit for bit one ``m``-row draw.  Only the helper touches ``rng`` until
    the generator ends or is closed; either joins the helper.
    """

    def block(k: int) -> np.ndarray:
        inc = brownian_increments(grid, k, rng, scale)
        inc += drift_inc
        return inc

    with ThreadPoolExecutor(1) as helper:
        ahead = helper.submit(block, min(_BLOCK, m))
        for start in range(_BLOCK, m, _BLOCK):
            ready, ahead = ahead.result(), helper.submit(block, min(_BLOCK, m - start))
            yield ready
        yield ahead.result()


def _redraw_escapes(grid: PathGrid, m: int, draw, what: str) -> np.ndarray:
    """``m`` draws of ``draw(g, k) -> (values, escaped)`` on window ``g``.

    Escaped draws are redrawn in order on the doubled window, at most 3
    times; ``what`` names the failure in the :class:`GridEscapeError`.
    """
    out = np.empty(m)
    pending = np.arange(m)
    g = grid
    for level in range(4):
        if level:
            g = g.doubled()
        values, escaped = draw(g, pending.size)
        out[pending] = values
        pending = pending[escaped]
        if pending.size == 0:
            return out
    raise GridEscapeError(f"{what} after 3 window doublings (last half-width {g.half_width})")


def argmin_quadratic_batch(
    grid: PathGrid,
    m: int,
    seed_or_rng,
    a: float = 1.0,
    b: float = 1.0,
    c: float = 0.0,
) -> np.ndarray:
    """Draws of the largest ``argmin_s {a Z(s) + b s^2 - c s}`` on the grid."""
    if not grid.two_sided:
        raise ValueError("argmin samplers need a two-sided grid")
    if b <= 0:
        raise ValueError("quadratic coefficient b must be positive")
    rng = _as_rng(seed_or_rng)

    def draw(g: PathGrid, k: int):
        s = g.points()
        read = partial(_largest_minimizers, s=s, step=g.step, tilts=0.0)
        x = _grid_draws(g, k, rng, np.diff(b * s * s - c * s), a, read)
        return x, np.abs(x) > 0.9 * g.half_width

    return _redraw_escapes(
        grid, m, draw, f"argmin stayed within the outer 10% (a={a}, b={b}, c={c})"
    )


def chernoff_batch(grid: PathGrid, m: int, seed_or_rng) -> np.ndarray:
    """Draws of ``argmin_s {Z(s) + s^2}`` on the grid (:func:`chernoff_exact_batch` is exact)."""
    return argmin_quadratic_batch(grid, m, seed_or_rng, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# the exact Chernoff law

# trapezoid in lambda for the Airy transform: its integrand decays like
# exp(-0.47 (2^(-1/3) lambda)^(3/2)), below 1e-16 by lambda = 24
_AIRY_STEP, _AIRY_MAX = 0.1, 24.0
# the table's grid in z: the density is below 1e-21 beyond |z| = 4
_TABLE_STEP, _TABLE_MAX = 1.0 / 400.0, 4.0


@dataclass(frozen=True)
class ChernoffTable:
    """The law of ``Z = argmin_s {W(s) + s^2}``, symmetric about 0.

    ``z`` is the grid [0, 4] at step 1/400, with the density ``pdf`` and the
    CDF ``cdf`` (``cdf[0] = 1/2``) on it.  Between grid points the CDF is
    the cubic Hermite interpolant of ``cdf`` and ``pdf``.  ``mass``,
    ``abs_mean`` (``E|Z|``) and ``var`` are checked Gauss-Legendre integrals
    of the density itself.
    """

    z: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    mass: float
    abs_mean: float
    var: float

    def _cubic(self, k: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(p0, p1, p2, p3)``: ``cdf - 1/2`` on piece ``k`` is ``sum p_j t^j``, ``t`` in [0, 1]."""
        a0, a1 = self.cdf[k] - 0.5, self.cdf[k + 1] - 0.5
        d0, d1 = _TABLE_STEP * self.pdf[k], _TABLE_STEP * self.pdf[k + 1]
        return a0, d0, 3.0 * (a1 - a0) - 2.0 * d0 - d1, 2.0 * (a0 - a1) + d0 + d1

    def cdf_at(self, x) -> np.ndarray:
        """``P(Z <= x)``."""
        x = np.asarray(x, dtype=float)
        r = np.minimum(np.abs(x), _TABLE_MAX) / _TABLE_STEP
        k = np.minimum(r.astype(np.int64), self.z.size - 2)
        t = r - k
        p0, p1, p2, p3 = self._cubic(k)
        return 0.5 + np.sign(x) * (p0 + t * (p1 + t * (p2 + t * p3)))

    def quantile(self, u) -> np.ndarray:
        """The inverse of :meth:`cdf_at` on [0, 1], clipped to [-4, 4].

        Newton's method on the piece's cubic, from its chord; the cubic is
        increasing, and each step is clipped to the piece.
        """
        u = np.asarray(u, dtype=float)
        v = np.abs(u - 0.5)
        k = np.clip(np.searchsorted(self.cdf - 0.5, v, side="right") - 1, 0, self.z.size - 2)
        p0, p1, p2, p3 = self._cubic(k)
        chord = p1 + p2 + p3
        t = np.clip((v - p0) / np.where(chord > 0, chord, np.inf), 0.0, 1.0)
        for _ in range(3):
            gap = p0 + t * (p1 + t * (p2 + t * p3)) - v
            slope = p1 + t * (2.0 * p2 + 3.0 * t * p3)
            t = np.clip(t - gap / np.where(slope > 0, slope, np.inf), 0.0, 1.0)
        return np.sign(u - 0.5) * (self.z[k] + _TABLE_STEP * t)


@cache
def chernoff_table() -> ChernoffTable:
    """The exact Chernoff law, built on first use and kept.

    Groeneboom (1989) gives the density ``f(z) = g(z) g(-z) / 2`` with
    ``int e^(i lambda s) g(s) ds = 2^(1/3) / Ai(i 2^(-1/3) lambda)``.  For
    ``z >= 0``, ``g(+-z) = C(z) +- S(z)``, where ``C`` is ``1/pi`` times the
    integral over ``lambda >= 0`` of ``cos(lambda z)`` times the real part of
    that transform and ``S`` the same with ``sin`` and the imaginary part.
    Both integrands are even in ``lambda`` and analytic, so the trapezoid
    rule in ``lambda`` converges geometrically (as in Groeneboom & Wellner
    2001).  Each step of the grid CDF is the end-corrected trapezoid
    ``h (f_k + f_k+1) / 2 + h^2 (f'_k - f'_k+1) / 12``, the exact integral
    of the Hermite cubic of the density.
    """
    lam = _AIRY_STEP * np.arange(round(_AIRY_MAX / _AIRY_STEP) + 1)
    ghat = 2.0 ** (1.0 / 3.0) / airy(1j * 2.0 ** (-1.0 / 3.0) * lam)[0]
    weights = np.full(lam.size, _AIRY_STEP / math.pi)
    weights[0] *= 0.5
    re, im = weights * ghat.real, weights * ghat.imag

    def density(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``f(z)`` and ``f'(z)`` for ``z >= 0``."""
        arg = np.multiply.outer(z, lam)
        cos, sin = np.cos(arg), np.sin(arg)
        c, s = cos @ re, sin @ im
        return 0.5 * (c * c - s * s), c * -(sin @ (lam * re)) - s * (cos @ (lam * im))

    z = _TABLE_STEP * np.arange(round(_TABLE_MAX / _TABLE_STEP) + 1)
    pdf, dpdf = density(z)
    pdf = np.maximum(pdf, 0.0)  # the far tail is rounding noise of size 1e-22
    step = _TABLE_STEP * (pdf[:-1] + pdf[1:]) / 2 + _TABLE_STEP**2 * (dpdf[:-1] - dpdf[1:]) / 12
    cdf = 0.5 + np.concatenate(([0.0], np.cumsum(step)))
    edges, q = np.linspace(0.0, _TABLE_MAX, 9), QuadratureCfg(1e-13)
    mass, abs_mean, var = (
        2.0 * _gl_checked(lambda x, j=j: x**j * density(x)[0], edges, q) for j in range(3)
    )
    return ChernoffTable(z, pdf, cdf, mass, abs_mean, var)


def chernoff_exact_batch(m: int, seed_or_rng) -> np.ndarray:
    """Exact draws of ``argmin_s {Z(s) + s^2}``: the table's quantiles of uniforms."""
    return chernoff_table().quantile(_as_rng(seed_or_rng).random(m))


# ---------------------------------------------------------------------------
# greatest-convex-minorant slope samplers


def _slope_at(row: np.ndarray, slot: int, step: float) -> tuple[float, bool]:
    """Left minorant slope at increment ``slot`` of one path's drawn increments.

    The increments' isotonic fit is the grid step times the minorant's
    slope over each increment; its block starts, followed by the increment
    count, are the minorant's vertex indices.  Also returns whether the
    block at ``slot`` touches the grid boundary (window too small to
    localize the slope).
    """
    res = isotonic_regression(row)
    blocks = res.blocks
    b = int(np.searchsorted(blocks, slot, side="right")) - 1
    return res.x[slot] / step, blocks[b] == 0 or blocks[b + 1] == blocks[-1]


def _largest_minimizers(row: np.ndarray, s: np.ndarray, step: float, tilts) -> np.ndarray:
    """Largest minimizer over ``s`` of one path minus ``tilts * s``, from its increments ``row``.

    It ends the last increment whose minorant slope (the isotonic fit over
    the step) is at most the tilt; a scalar tilt gives a scalar.
    """
    return s[np.searchsorted(isotonic_regression(row).x / step, tilts, side="right")]


def _grid_draws(grid: PathGrid, m: int, rng, drift_inc, scale: float, read) -> np.ndarray:
    """The one grid-slope kernel: ``read(row)`` for each of ``m`` paths of ``scale * W + drift``.

    ``row`` holds one path's increments, drift increments ``drift_inc``
    added, from the blocks of :func:`_increment_blocks`; no path is built.
    A reader fits its row (:func:`_slope_at`, :func:`_largest_minimizers`,
    or the isotonic fit itself) and returns a value or a tuple of values:
    one row of the result.
    """
    if m < 1:
        raise ValueError(f"a batch needs at least one path, got {m}")
    with closing(_increment_blocks(grid, m, rng, drift_inc, scale)) as blocks:
        return np.array([read(row) for block in blocks for row in block])


def check_slow_pointwise(link: LinkSpec, x0: float) -> None:
    """Raise unless the slow pointwise law holds: its drift expands the link at 0."""
    if link.beta > 1 and x0 != 0.0:
        raise ValueError(
            f"the slow-regime pointwise law for flatness order beta = {link.beta} "
            f"is derived at x0 = 0 only, got x0 = {x0}"
        )


def _slow_drift_coeff(link: LinkSpec, law: FeatureLaw, x0: float) -> float:
    check_slow_pointwise(link, x0)
    coef = link.taylor_coefficient
    if coef <= 0:
        raise ValueError("leading Taylor coefficient of the link at 0 must be strictly positive")
    p0 = float(law.density(x0))
    return coef / (p0**link.beta * (link.beta + 1))


def slow_limit_batch(
    link: LinkSpec,
    law: FeatureLaw,
    x0: float,
    grid: PathGrid,
    m: int,
    seed_or_rng,
) -> np.ndarray:
    """Slow-regime pointwise limit draws.

    Simulates ``noise_scale * Z(s) + coef * s**(beta+1)``, with ``beta``
    from the link, on the two-sided grid and returns the left slope of its
    greatest convex minorant at 0.
    """
    if not grid.two_sided:
        raise ValueError("the slow-regime sampler needs a two-sided grid")
    coef = _slow_drift_coeff(link, law, x0)
    drift_inc = cache(lambda g: np.diff(coef * g.points() ** (link.beta + 1)))  # per window
    rng = _as_rng(seed_or_rng)

    def draw(g: PathGrid, k: int):  # the slope over the increment ending at 0
        read = partial(_slope_at, slot=g.n_steps - 1, step=g.step)
        slopes, touched = _grid_draws(g, k, rng, drift_inc(g), link.noise_scale, read).T
        return slopes, touched.astype(bool)

    return _redraw_escapes(
        grid, m, draw, "minorant block at the origin kept touching the window boundary"
    )


def _chernoff_scale(link: LinkSpec, law: FeatureLaw, u, x):
    """``(4 phi0(u) (1 - phi0(u)) phi0'(u) / density(x))^(1/3)``, scalar or array."""
    p = link_eval(link, u)
    return (4.0 * p * (1.0 - p) * link_slope(link, u) / law.density(x)) ** (1.0 / 3.0)


def scaled_chernoff_constant(link: LinkSpec, law: FeatureLaw, x0: float) -> float:
    """Cube-root constant multiplying the Chernoff draw in the slow regime."""
    if link.beta != 1:
        raise ValueError(
            "the closed-form constant exists for flatness order 1 only; "
            "use the general slow-regime sampler for higher orders"
        )
    if link_slope(link, 0.0) <= 0:
        raise ValueError(
            "link has vanishing first derivative at 0; "
            "use the general slow-regime sampler"
        )
    return _chernoff_scale(link, law, 0.0, x0)


def boundary_drift(
    c: float, link: LinkSpec, law: FeatureLaw, x0: float, s
) -> float | np.ndarray:
    """Drift of the boundary-case limit process at times ``s`` in [0, 1].

    ``sqrt(c) * coef * E[(X^beta - x0^beta) 1{X <= quantile(s)}]``, with
    ``beta = link.beta`` and ``coef = link.taylor_coefficient``: near 0,
    ``phi_n(x) - phi_n(x0) = coef delta_n^beta (x^beta - x0^beta)`` to leading
    order.  From the exact antiderivative (vanishing at ``-T``) of the
    polynomial ``(x^beta - x0^beta) density(x)``.  A scalar ``s`` gives a float.
    """
    if c < 0:
        raise ValueError("boundary constant c must be nonnegative")
    power = np.r_[-(x0**link.beta), np.zeros(link.beta - 1), 1.0]
    integrand = Polynomial(power) * Polynomial(law.density_coeffs)
    antiderivative = integrand.integ(lbnd=-law.half_width)
    out = math.sqrt(c) * link.taylor_coefficient * antiderivative(law.quantile(s))
    return float(out) if np.isscalar(s) else out


def boundary_limit_batch(
    c: float,
    link: LinkSpec,
    law: FeatureLaw,
    x0: float,
    grid: PathGrid,
    m: int,
    seed_or_rng,
) -> np.ndarray:
    """Boundary-case pointwise limit draws on a grid.

    Left slope at ``F_X(x0)`` of the greatest convex minorant of
    ``noise_scale * W + drift`` on [0, 1].  At ``c = 0`` this is the
    fast-regime law, which :func:`fast_slope_batch` draws exactly; the grid
    route stays as an independent check of it.
    """
    if grid.two_sided or abs(grid.half_width - 1.0) > 1e-12:
        raise ValueError("boundary sampler needs a one-sided grid on [0, 1]")
    pts = grid.points()
    drift_inc = np.diff(boundary_drift(c, link, law, x0, pts))
    slot = int(np.searchsorted(pts, float(law.cdf(x0)), side="left")) - 1
    rng = _as_rng(seed_or_rng)
    return _grid_draws(
        grid, m, rng, drift_inc, link.noise_scale, lambda row: _slope_at(row, slot, grid.step)[0]
    )


def l1_fast_batch(link: LinkSpec, m: int, seed_or_rng) -> np.ndarray:
    """Exact fast-regime L1 limit draws: ``noise_scale * chi_3``.

    The limit is ``noise_scale * (W(1) - 2 min W)`` for a Brownian motion
    ``W`` on [0, 1] (the feature law drops out because its CDF maps the
    support onto [0, 1]).  By Pitman's 2M - X theorem ``W(1) - 2 min W``
    has the law of the norm of a 3-D standard normal vector, which is
    drawn directly: no grid, no path.
    """
    rng = _as_rng(seed_or_rng)
    return link.noise_scale * np.linalg.norm(rng.standard_normal((m, 3)), axis=1)


# sticks broken per round of the exact fast-regime slope sampler: the
# leftover after 48 breaks is about e^-48 of [0, 1]
_STICKS = 48


def _break_sticks(left: np.ndarray, rng: np.random.Generator):
    """``_STICKS`` more faces of the minorant of W on [0, 1], per row of ``left``.

    Uniform stick-breaking of each leftover length, with one standard
    normal per face: returns the face lengths, their slopes ``Z / sqrt(l)``
    and the new leftovers.
    """
    u = rng.random((left.size, _STICKS))
    rest = left[:, None] * np.cumprod(1.0 - u, axis=1)
    lengths = np.concatenate((left[:, None], rest[:, :-1]), axis=1) * u
    return lengths, rng.standard_normal(lengths.shape) / np.sqrt(lengths), rest[:, -1]


def fast_slope_batch(
    link: LinkSpec, law: FeatureLaw, x0: float, m: int, seed_or_rng
) -> np.ndarray:
    """Exact fast-regime pointwise limit draws, with no grid.

    The law is the left slope at ``t0 = F_X(x0)`` of the greatest convex
    minorant of ``noise_scale * W`` on [0, 1].  Pitman & Uribe Bravo (2012)
    give that minorant exactly: face lengths by uniform stick-breaking, face
    increments ``sqrt(l) Z``, faces laid out in increasing order of slope.
    The draw is the slope of the face whose ``(start, end]`` holds ``t0``.

    The faces not yet broken off (the leftover) have unknown slopes, so
    they can only move a face later, by at most the leftover length.  In
    the layout without the leftover, the face ending at or after ``t0``
    certainly holds it once its start lies more than the leftover before
    ``t0``; until then the draw's leftover is broken further, ``_STICKS``
    faces at a time.
    """
    t0 = float(law.cdf(x0))
    rng = _as_rng(seed_or_rng)

    def draw(k: int) -> np.ndarray:
        out = np.empty(k)
        pending = np.arange(k)
        lengths, slopes, left = _break_sticks(np.ones(k), rng)
        while True:
            order = np.argsort(slopes, axis=1)
            ends = np.cumsum(np.take_along_axis(lengths, order, axis=1), axis=1)
            face = np.minimum((ends < t0).sum(axis=1), ends.shape[1] - 1)
            rows = np.arange(face.size)
            start = np.where(face > 0, ends[rows, face - 1], 0.0)
            kept = (ends[rows, face] >= t0) & (t0 - start > left)
            out[pending[kept]] = slopes[rows, order[rows, face]][kept]
            if kept.all():
                return link.noise_scale * out
            more = ~kept
            pending = pending[more]
            new_lengths, new_slopes, left = _break_sticks(left[more], rng)
            lengths = np.concatenate((lengths[more], new_lengths), axis=1)
            slopes = np.concatenate((slopes[more], new_slopes), axis=1)

    if m < 1:
        raise ValueError(f"a batch needs at least one path, got {m}")
    return np.concatenate([draw(min(_CHUNK, m - start)) for start in range(0, m, _CHUNK)])


# ---------------------------------------------------------------------------
# constants


def chernoff_abs_mean() -> float:
    """Exact ``E|Z|`` of the Chernoff law, from :func:`chernoff_table`."""
    return chernoff_table().abs_mean


def chernoff_abs_mean_mc(m: int, seed_or_rng) -> tuple[float, float]:
    """Mean of |Z| over ``m`` exact draws, with its standard error: a check of the table."""
    if m < 10_000:
        raise ValueError("first-absolute-moment runs need at least 10^4 draws")
    draws = np.abs(chernoff_exact_batch(m, seed_or_rng))
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(m))


def edge_layer_constant(grid: PathGrid, m: int, seed_or_rng) -> tuple[float, float]:
    """Monte Carlo support-edge constant ``D`` with its standard error.

    ``D = int_0^inf (E|S(u) - 2u| / 2 - E|X(0)|) du``, where ``S`` is the
    left slope of the greatest convex minorant of ``W(s) + s^2`` on the
    half-line ``s >= 0``: the excess of the rate-scaled L1 error in the
    layer next to one support edge, in units of the local Chernoff width
    and scale.  Far from the edge ``(S(u) - 2u) / 2`` has the law of
    ``X(0)``, so the profile settles to ``E|X(0)|``.

    On the one-sided window [0, L] the profile is integrated over
    [0, L/2] and its far-field level is read as its mean over the middle
    third [L/3, 2L/3] of the same paths, so the grid's discretization
    bias in ``E|X(0)|`` cancels; the exact :func:`chernoff_abs_mean` must
    not stand in for the level, which moves with the grid step.  The
    window end at L bends the profile like the edge at 0 does, and both
    settle within about 2 units, hence ``L >= 6``.
    """
    if grid.two_sided or grid.half_width < 6.0:
        raise ValueError("the edge constant needs a one-sided grid [0, L] with L >= 6")
    if m < 2:
        raise ValueError("the edge constant needs at least 2 paths for its error")
    rng = _as_rng(seed_or_rng)
    s = grid.points()
    drift_inc = np.diff(s * s)
    n_inc = grid.n_steps
    twice_mid = s[:-1] + s[1:]  # drift slope over each increment
    half, lo, hi = n_inc // 2, n_inc // 3, 2 * n_inc // 3

    def path_excess(row: np.ndarray) -> float:
        profile = 0.5 * np.abs(isotonic_regression(row).x / grid.step - twice_mid)
        return grid.step * (profile[:half].sum() - half * profile[lo:hi].mean())

    excess = _grid_draws(grid, m, rng, drift_inc, 1.0, path_excess)
    return float(excess.mean()), float(excess.std(ddof=1) / math.sqrt(m))


@dataclass(frozen=True)
class CovIntegral:
    """Covariance integral of the shifted-argmin family, with diagnostics."""

    estimate: float
    se: float
    a_values: np.ndarray
    cov_curve: np.ndarray
    cov_se: np.ndarray

    @property
    def tail_cov(self) -> float:
        return float(self.cov_curve[-1])

    @property
    def tail_se(self) -> float:
        return float(self.cov_se[-1])


def chernoff_cov_integral(
    grid: PathGrid,
    a_max: float,
    a_step: float,
    m: int,
    seed_or_rng,
    bootstrap: int = 200,
) -> CovIntegral:
    """Trapezoid integral over [0, a_max] of Cov(|X(0)|, |X(a) - a|).

    ``X(a)`` is the argmin of ``Z(s) + (s - a)^2``; all shifts reuse one
    path per draw, since the covariance couples shifts within a path.
    Up to the constant ``a^2`` that is ``f(s) - 2 a s`` with ``f = Z + s^2``,
    so one minorant of ``f`` per path gives every shift's largest minimizer.
    The window is enlarged internally by ``a_max`` so shifted minimizers
    stay away from the boundary.
    """
    if a_max < 3.0:
        raise ValueError(f"shift range a_max must be at least 3, got {a_max}")
    if not 0.0 < a_step <= 0.25:
        raise ValueError(f"shift step must lie in (0, 0.25], got {a_step}")
    if not grid.two_sided:
        raise ValueError("covariance runs need a two-sided grid")
    if m < 2:
        raise ValueError(f"the covariance integral needs at least 2 draws for its error, got {m}")
    rng = _as_rng(seed_or_rng)
    big = PathGrid(grid.half_width + math.ceil(a_max), grid.step, True)
    s = big.points()
    drift_inc = np.diff(s * s)
    n_a = int(round(a_max / a_step)) + 1
    a_values = a_step * np.arange(n_a)

    def path_shifts(row: np.ndarray) -> np.ndarray:
        x_a = _largest_minimizers(row, s, big.step, 2.0 * a_values)
        if np.any(np.abs(x_a) > 0.9 * big.half_width):
            raise GridEscapeError(
                "shifted argmin reached the enlarged window boundary; "
                "increase the base grid half-width"
            )
        return np.abs(x_a - a_values)

    def cov(x0: np.ndarray, shifts: np.ndarray) -> np.ndarray:  # Cov(|X(0)|, |X(a) - a|) per a
        return (x0[:, None] * shifts).mean(axis=0) - x0.mean() * shifts.mean(axis=0)

    abs_shift = _grid_draws(big, m, rng, drift_inc, 1.0, path_shifts)
    abs_x0 = abs_shift[:, 0]  # the shift a = 0
    cov_curve = cov(abs_x0, abs_shift)
    estimate = float(np.trapezoid(cov_curve, a_values))
    boot_curves = np.empty((bootstrap, n_a))
    for b in range(bootstrap):
        idx = rng.integers(0, m, m)
        boot_curves[b] = cov(abs_x0[idx], abs_shift[idx])
    boots = np.trapezoid(boot_curves, a_values, axis=1)
    return CovIntegral(
        estimate,
        float(boots.std(ddof=1)),
        a_values,
        cov_curve,
        boot_curves.std(axis=0, ddof=1),
    )


def mu_n(
    scn: Scenario, n: int, chernoff_abs_mean_value: float, q: QuadratureCfg | None = None
) -> float:
    """First-order centering of the slow-regime L1 law at sample size ``n``.

    ``E|X(0)|`` times the integral over the support of the local Chernoff
    scale ``kappa_n(t) = (4 phi_n (1 - phi_n) phi0'(delta_n t) / density(t))^(1/3)``.
    It leaves out the support-boundary layer (:func:`boundary_term`),
    which is of relative order ``(n delta_n^2)^(-1/3)``.  The integral is
    checked piecewise Gauss-Legendre, split at the affine link's clip
    points.  There ``kappa_n`` has a cube-root zero, so a piece that ends
    at one is integrated in ``t`` through ``x = a + (b - a) s(t)`` with the
    smoothstep ``s(t) = 10 t^3 - 15 t^4 + 6 t^5``: its cubic contact at
    both ends makes the integrand smooth.
    """
    if link_slope(scn.link, 0.0) <= 0:
        raise ValueError("centering needs a strictly positive link slope at 0")
    t = scn.law.half_width
    delta = scn.delta(n)
    curve = scn.phi_fn(n)
    edges = _split_points(-t, t, curve)
    clip = np.isin(edges, curve.breakpoints)
    mapped = clip[:-1] | clip[1:]
    lo, width = edges[:-1], np.diff(edges)

    def integrand(u: np.ndarray) -> np.ndarray:  # u in (i, i + 1) runs over piece i
        i = u.astype(np.int64)
        s = u - i
        jac = np.where(mapped[i], 30.0 * s * s * (1.0 - s) ** 2, 1.0)
        s = np.where(mapped[i], s**3 * (10.0 - 15.0 * s + 6.0 * s * s), s)
        x = lo[i] + width[i] * s
        return _chernoff_scale(scn.link, scn.law, delta * x, x) * width[i] * jac

    pieces = np.arange(lo.size + 1.0)
    return chernoff_abs_mean_value * _gl_checked(integrand, pieces, q or QuadratureCfg())


def local_width(scn: Scenario, n: int, x: float) -> float:
    """Local Chernoff width at ``x``, in feature units.

    ``h_n(x) = (4 phi_n (1 - phi_n) / (density(x) phi0'(delta_n x)^2 n delta_n^2))^(1/3)``:
    the span of data that the NPMLE at ``x`` pools, the unit in which
    :func:`edge_layer_constant` measures distance from an edge.
    """
    delta = scn.delta(n)
    p = float(link_eval(scn.link, delta * x))
    slope = link_slope(scn.link, delta * x)
    if slope <= 0:
        raise ValueError(f"local width needs a strictly positive link slope at x = {x}")
    g = float(scn.law.density(x))
    return (4.0 * p * (1.0 - p) / (g * slope * slope * n * delta * delta)) ** (1.0 / 3.0)


def boundary_term(scn: Scenario, n: int, edge_constant: float) -> float:
    """Support-boundary layer of the slow-regime L1 centering.

    ``B_n = D * sum_{e = -T, T} kappa_n(e) h_n(e)`` with ``D`` from
    :func:`edge_layer_constant`; ``mu_n + B_n`` centres the rate-scaled L1
    error over the whole support [-T, T].
    """
    t = scn.law.half_width
    delta = scn.delta(n)
    return edge_constant * sum(
        _chernoff_scale(scn.link, scn.law, delta * e, e) * local_width(scn, n, e)
        for e in (-t, t)
    )


# ---------------------------------------------------------------------------
# tagged batches


@dataclass(frozen=True)
class LimitBatch:
    """Draws from one limit law plus its grid (None when drawn exactly) and parameters."""

    law_tag: str
    draws: np.ndarray
    grid: PathGrid | None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        draws = np.asarray(self.draws, dtype=float)
        object.__setattr__(self, "draws", draws)
        if not np.all(np.isfinite(draws)):
            raise ValueError("limit batch draws must be finite")


def sample_limit_batch(
    law_tag: str,
    m: int,
    seed: int,
    *,
    link: LinkSpec,
    law: FeatureLaw,
    x0: float = 0.0,
    beta: int = 1,
    c: float = 0.0,
    grid: PathGrid | None = None,
) -> LimitBatch:
    """Tagged batch of ``m`` draws on ``grid``, by default the law's own window.

    ``scaled_chernoff``, ``fast_w_slope`` and ``l1_fast_maxA`` are exact and
    take no grid (:data:`LAW_GRIDS`).
    ``beta`` must equal ``link.beta``.  Every other tag uses ``x0``, which
    must be interior to the feature support.
    """
    own_grid = law_grid(law_tag, beta)
    if m < 1:
        raise ValueError(f"need at least 1 limit draw, got {m} draws")
    if beta != link.beta:
        raise ValueError(f"flatness order beta={beta} does not match the link's {link.beta}")
    if law_tag != "l1_fast_maxA" and not -law.half_width < x0 < law.half_width:
        raise ValueError(f"x0 must be interior to the feature support, got {x0}")
    if own_grid is None and grid is not None:
        raise ValueError(f"{law_tag} is drawn exactly and takes no grid")
    grid = grid or own_grid
    rng = stream(seed, LAW_TAGS.index(law_tag))
    params: dict = {"x0": x0, "beta": beta}
    if law_tag == "scaled_chernoff":
        kappa = scaled_chernoff_constant(link, law, x0)
        draws = kappa * chernoff_exact_batch(m, rng)
        params["kappa"] = kappa
    elif law_tag == "slow_fbeta":
        draws = slow_limit_batch(link, law, x0, grid, m, rng)
    elif law_tag == "boundary_gbc":
        draws = boundary_limit_batch(c, link, law, x0, grid, m, rng)
        params["c"] = c
    elif law_tag == "fast_w_slope":
        draws = fast_slope_batch(link, law, x0, m, rng)
    else:  # l1_fast_maxA
        draws = l1_fast_batch(link, m, rng)
        params.pop("x0")
    params["noise_scale"] = link.noise_scale
    return LimitBatch(law_tag, draws, grid, params)
