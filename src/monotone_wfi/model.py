"""Model layer: link functions, feature distributions, sampling, hypotheses.

A regression scenario is a base link ``phi0`` (monotone, into [0,1]),
a feature distribution on a compact interval ``[-T, T]``, and an impact
schedule ``delta(n) = c * n**-gamma``.  Labels are Bernoulli draws with
success probability ``phi0(delta(n) * x)``, so the feature-label curve
flattens as ``n`` grows whenever ``gamma > 0``.

The module also builds the two-point and hypercube hypothesis families
used by the minimax lower-bound audits, together with an exact
slope-band certificate for piecewise-affine functions (Lipschitz constant
at most ``delta``, modulus of continuity ratio at least ``delta / 2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import erf, erfinv, logit

__all__ = [
    "LinkSpec",
    "LinkCurve",
    "FeatureLaw",
    "Scenario",
    "Sample",
    "PiecewiseAffine",
    "HypothesisPair",
    "HypothesisCube",
    "link_eval",
    "link_slope",
    "link_inverse",
    "phi_n",
    "draw_sample",
    "sample_from_csv_text",
    "build_pointwise_hypotheses",
    "build_assouad_cube",
    "in_slope_band",
    "slope_band_report",
    "default_fast_pair_constant",
    "default_slow_pair_constant",
    "default_cube_constant",
]

_LINK_KINDS = ("logistic", "probit", "affine", "beta_flat", "constant")
_LAW_KINDS = ("uniform", "polynomial")


# ---------------------------------------------------------------------------
# links


@dataclass(frozen=True)
class LinkSpec:
    """A base link: monotone map from the reals into [0, 1].

    kind
        One of ``logistic`` (1/(1+exp(-u))), ``probit`` (normal CDF with
        scale parameter), ``affine`` (clamped line, for hypothesis work),
        ``beta_flat`` (logistic of ``u**beta`` with odd ``beta``, flat to
        order ``beta - 1`` at zero) or ``constant`` (degenerate test link).
    beta
        Order of the first non-vanishing derivative at zero; every family
        except ``beta_flat`` requires 1.
    params
        Family-specific parameters: probit ``(scale,)``, affine
        ``(intercept, slope)``, constant ``(level,)``.
    """

    kind: str
    beta: int = 1
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.beta < 1:
            raise ValueError("flatness order beta must be a positive integer")
        if self.kind == "beta_flat":
            if self.beta % 2 == 0:
                raise ValueError(
                    "beta_flat links require odd beta; even powers are not monotone"
                )
        elif self.beta != 1:
            raise ValueError(f"{self.kind} link has beta = 1")
        if self.kind == "probit":
            scale = self.params[0] if self.params else 1.0
            if scale <= 0:
                raise ValueError("probit scale must be positive")
        elif self.kind == "affine":
            if len(self.params) != 2:
                raise ValueError("affine link needs params (intercept, slope)")
            a, b = self.params
            if not 0.0 < a < 1.0:
                raise ValueError("affine intercept (value at 0) must lie in (0, 1)")
            if b <= 0:
                raise ValueError("affine slope must be positive")
        elif self.kind == "constant":
            if len(self.params) != 1 or not 0.0 <= self.params[0] <= 1.0:
                raise ValueError("constant link needs params (level,) with level in [0, 1]")

    @property
    def value_at_zero(self) -> float:
        return float(link_eval(self, 0.0))

    @property
    def taylor_coefficient(self) -> float:
        """``phi0^(beta)(0) / beta!``, so ``phi0(u) = phi0(0) + coef u^beta + o(u^beta)``.

        1/4 for ``beta_flat`` (logistic of ``u**beta`` is
        ``1/2 + u**beta/4 + O(u**(3 beta))``), the slope at 0 otherwise.
        """
        if self.kind == "beta_flat":
            return 0.25
        return link_slope(self, 0.0)

    @property
    def noise_scale(self) -> float:
        """sqrt(phi0(0) * (1 - phi0(0))): Bernoulli noise scale at the center."""
        p = self.value_at_zero
        return math.sqrt(p * (1.0 - p))


def _logistic(u):
    # The split form 1/(1+e^-u) for u >= 0, e^u/(1+e^u) below, in one exp
    # pass: min(u, -u) is -|u| and never overflows, and keeps a NaN's sign.
    u = np.asarray(u, dtype=float)
    e = np.exp(np.minimum(u, -u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def link_eval(link: LinkSpec, u) -> np.ndarray | float:
    """Evaluate the link at ``u`` (scalar or array); total on the reals."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    if link.kind == "logistic":
        out = _logistic(u)
    elif link.kind == "probit":
        scale = link.params[0] if link.params else 1.0
        out = 0.5 * (1.0 + erf(u / (scale * math.sqrt(2.0))))
    elif link.kind == "affine":
        a, b = link.params
        out = np.clip(a + b * u, 0.0, 1.0)
    elif link.kind == "beta_flat":
        out = _logistic(u**link.beta)
    else:  # constant
        out = np.full_like(u, link.params[0])
    return float(out) if scalar else out


def link_slope(link: LinkSpec, u) -> np.ndarray | float:
    """First derivative ``phi0'(u)`` of the link (scalar or array), in closed form."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    if link.kind == "logistic":
        lam = _logistic(u)
        out = lam * (1.0 - lam)
    elif link.kind == "probit":
        scale = link.params[0] if link.params else 1.0
        v = u / scale
        out = np.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi) / scale
    elif link.kind == "affine":
        a, b = link.params
        out = np.where((0.0 < a + b * u) & (a + b * u < 1.0), b, 0.0)
    elif link.kind == "beta_flat":
        beta = link.beta
        with np.errstate(over="ignore", invalid="ignore"):
            lam = _logistic(u**beta)
            out = beta * u ** (beta - 1) * lam * (1.0 - lam)
        out = np.where(lam * (1.0 - lam) == 0.0, 0.0, out)  # not inf * 0 where u**beta is huge
    else:  # constant
        out = np.zeros_like(u)
    return float(out) if scalar else out


def link_inverse(link: LinkSpec, p) -> np.ndarray | float:
    """Inverse of the link at probabilities ``p`` in [0, 1] (scalar or array).

    Gives -inf and inf at 0 and 1 for the links that never reach them;
    the affine link gives its clip points there.  The constant link has
    no inverse.
    """
    scalar = np.isscalar(p)
    p = np.asarray(p, dtype=float)
    if link.kind == "logistic":
        out = logit(p)
    elif link.kind == "probit":
        scale = link.params[0] if link.params else 1.0
        out = scale * math.sqrt(2.0) * erfinv(2.0 * p - 1.0)
    elif link.kind == "affine":
        a, b = link.params
        out = (p - a) / b
    elif link.kind == "beta_flat":
        z = logit(p)
        out = np.copysign(np.abs(z) ** (1.0 / link.beta), z)
    else:
        raise ValueError("constant link has no inverse")
    return float(out) if scalar else out


@dataclass(frozen=True)
class LinkCurve:
    """The success-probability curve ``x -> phi0(delta * x)`` at one impact ``delta``.

    Exposes the kinks of the clamped affine link as ``breakpoints`` and
    inverts in closed form, so metrics split and cross it exactly.
    """

    link: LinkSpec
    delta: float

    def __call__(self, x) -> np.ndarray | float:
        return link_eval(self.link, self.delta * np.asarray(x, dtype=float))

    def inverse(self, p) -> np.ndarray | float:
        """The ``x`` with ``phi0(delta * x) = p``; +-inf where the link never reaches ``p``."""
        return link_inverse(self.link, p) / self.delta

    @property
    def breakpoints(self) -> np.ndarray:
        if self.link.kind != "affine":
            return np.empty(0)
        a, b = self.link.params
        return np.array([-a, 1.0 - a]) / (b * self.delta)


# ---------------------------------------------------------------------------
# feature laws


@dataclass(frozen=True)
class FeatureLaw:
    """Feature distribution on ``[-half_width, half_width]``.

    kind
        ``uniform``, or ``polynomial``: a uniform/quadratic density
        mixture ``(1-tilt)/(2T) + tilt * 3x^2/(2T^3)`` with ``tilt`` in
        [0, 1), continuous and bounded away from zero on the support.

    ``quantile`` is closed form: the line ``2Ts - T`` at ``tilt`` 0, else
    Cardano's root of the cubic ``F(x) = s`` in hyperbolic form (Nickalls
    1993, *Math. Gazette* 77) and one Newton step on ``cdf``.
    """

    kind: str
    half_width: float = 1.0
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _LAW_KINDS:
            raise ValueError(f"unknown feature law kind {self.kind!r}")
        if not 0.0 < self.half_width * self.half_width * self.half_width < math.inf:
            raise ValueError("support half-width must be positive with a finite nonzero cube")
        if not 0.0 <= self.tilt < 1.0:
            raise ValueError("polynomial tilt must lie in [0, 1)")

    @property
    def tilt(self) -> float:
        """Weight of the quadratic density part; 0 for the uniform law."""
        return 0.0 if self.kind == "uniform" else (self.params[0] if self.params else 0.5)

    @property
    def density_coeffs(self) -> tuple[float, float, float]:
        """Power-series coefficients of the density in ``x`` on the support."""
        t, th = self.half_width, self.tilt
        return (1.0 - th) / (2.0 * t), 0.0, th * 3.0 / (2.0 * t**3)

    def density(self, x) -> np.ndarray | float:
        scalar = np.isscalar(x)
        x = np.asarray(x, dtype=float)
        t = self.half_width
        c0, _, c2 = self.density_coeffs
        inside = np.clip(x, -t, t)  # keeps 0 * x^2 finite off the support
        out = np.where(np.abs(x) <= t, c0 + c2 * inside * inside, 0.0)
        return float(out) if scalar else out

    def cdf(self, x) -> np.ndarray | float:
        scalar = np.isscalar(x)
        x = np.clip(np.asarray(x, dtype=float), -self.half_width, self.half_width)
        t, th = self.half_width, self.tilt
        # grouped so that F(0) = 1/2 and F(+-T) = 0, 1 exactly, and so that tilt 0
        # gives the line's bits (1.0 * v + 0.0 * w is v); both cubes as products
        # (libm pow is slower and rounds unlike x * x * x)
        t3 = t * t * t
        out = (1.0 - th) * ((x + t) / (2.0 * t)) + th * ((x * x * x + t3) / (2.0 * t3))
        return float(out) if scalar else out

    def quantile(self, s) -> np.ndarray | float:
        scalar = np.isscalar(s)
        s = np.asarray(s, dtype=float)
        if not ((s >= 0.0) & (s <= 1.0)).all():  # NaN too
            raise ValueError("quantile argument must lie in [0, 1]")
        t, th = self.half_width, self.tilt
        if th == 0.0:  # no cubic term
            out = 2.0 * t * s - t
        else:  # y = x/T solves y^3 + p y + q = 0 with p > 0: one real root
            p, q = (1.0 - th) / th, (1.0 - 2.0 * s) / th
            z = np.arcsinh(1.5 * q / p * math.sqrt(3.0 / p))
            x = np.clip(-2.0 * t * math.sqrt(p / 3.0) * np.sinh(z / 3.0), -t, t)
            x = np.clip(x - (self.cdf(x) - s) / self.density(x), -t, t)
            out = x + 0.0  # s = 1/2 gives -0.0 before this
        return float(out) if scalar else out

    @property
    def sup_density(self) -> float:
        return (1.0 + 2.0 * self.tilt) / (2.0 * self.half_width)


# ---------------------------------------------------------------------------
# scenario and sampling


@dataclass(frozen=True)
class Scenario:
    """Link + feature law + impact schedule ``delta(n) = c * n**-gamma``."""

    link: LinkSpec
    law: FeatureLaw
    impact_scale: float = 1.0
    impact_exponent: float = 0.0
    beta: int = 1

    def __post_init__(self) -> None:
        if self.impact_scale <= 0:
            raise ValueError("impact scale c must be positive")
        if self.impact_exponent < 0:
            raise ValueError("impact exponent gamma must be nonnegative")
        if self.beta != self.link.beta:
            raise ValueError("scenario flatness order must match the link")

    def delta(self, n: int) -> float:
        return self.impact_scale * float(n) ** (-self.impact_exponent)

    def phi_fn(self, n: int) -> LinkCurve:
        return LinkCurve(self.link, self.delta(n))


def phi_n(scn: Scenario, n: int, x):
    """Conditional success probability at feature value ``x`` for size ``n``."""
    return scn.phi_fn(n)(x)


@dataclass(frozen=True)
class Sample:
    """Sorted feature-label data with duplicate features aggregated.

    ``xs`` is strictly increasing; block ``i`` holds ``weights[i]`` draws
    of which ``ones[i]`` had label one.  For duplicate-free data
    ``weights`` is all ones and ``ones`` is the 0/1 label vector.
    """

    xs: np.ndarray
    ones: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ones = np.asarray(self.ones, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.int64)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ones", ones)
        object.__setattr__(self, "weights", weights)
        if xs.size == 0:
            raise ValueError("empty sample")
        if not (len(xs) == len(ones) == len(weights)):
            raise ValueError("sample fields must have equal length")
        if not np.isfinite(xs).all():
            raise ValueError("sample xs must be finite")
        if not (xs[1:] > xs[:-1]).all():
            raise ValueError("sample xs must be strictly increasing")
        if (weights < 1).any():
            raise ValueError("weights must be positive integers")
        if (ones < 0).any() or (ones > weights).any():
            raise ValueError("label counts must lie in [0, weight] per block")

    @property
    def n(self) -> int:
        return int(self.weights.sum())

    @cached_property
    def diagram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer cusums and the vertex indices of their exact minorant, built on first use.

        Kept on the sample for :func:`~monotone_wfi.estimator.switch_check`,
        which on every call reads the fitted value off the minorant and
        scans the cusums for the inverse.
        """
        from .estimator import _cusums, _minorant_indices  # estimator imports this module

        cw, co = _cusums(self)
        return cw, co, _minorant_indices(cw, co)

    @property
    def ys(self) -> np.ndarray:
        """Binary labels; defined only when no aggregation happened."""
        if np.any(self.weights != 1):
            raise ValueError("sample has aggregated duplicates; use ones/weights")
        return self.ones.copy()

    @classmethod
    def from_draws(cls, xs, ys) -> "Sample":
        """Sort raw draws by feature and aggregate duplicate feature values."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValueError("draws must be 1-D")
        if xs.size == 0:
            raise ValueError("empty sample")
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have equal length")
        if not ((ys == 0) | (ys == 1)).all():
            raise ValueError("labels must be 0 or 1")
        order = np.argsort(xs)
        return cls._from_sorted(xs[order], ys[order].astype(np.int64))

    @classmethod
    def _from_sorted(cls, xs: np.ndarray, ys: np.ndarray) -> "Sample":
        """Aggregate draws already sorted by feature (float ``xs``, int64 ``ys``)."""
        new = xs[1:] != xs[:-1]
        if new.all():  # no ties: every draw is its own block
            return cls(xs + 0.0, ys, np.ones(xs.size, np.int64))  # a zero is written +0.0
        starts = np.flatnonzero(np.r_[True, new])
        counts = np.diff(np.r_[starts, xs.size])
        return cls(xs[starts] + 0.0, np.add.reduceat(ys, starts), counts)


def sample_from_csv_text(text: str) -> Sample:
    """Parse ``x,y`` rows (header required, labels 0/1, duplicates merged).

    Raises ValueError naming the offending line on malformed input.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip().lower() != "x,y":
        raise ValueError("sample CSV must start with header 'x,y'")
    xs: list[float] = []
    ys: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'x,y'")
        try:
            x = float(parts[0])
            y = float(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric field") from None
        if not math.isfinite(x):
            raise ValueError(f"line {lineno}: feature x must be finite")
        if y not in (0.0, 1.0):
            raise ValueError(f"line {lineno}: label must be 0 or 1")
        xs.append(x)
        ys.append(int(y))
    if not xs:
        raise ValueError("empty sample")
    return Sample.from_draws(np.array(xs), np.array(ys))


def draw_sample(scn: Scenario, n: int, rng: np.random.Generator) -> Sample:
    """Draw ``n`` pairs from the scenario using the supplied generator.

    Consumption order is fixed: ``n`` uniforms for the quantile transform
    of the features, then ``n`` uniforms for the labels.

    On the line quantile (tilt 0) one sort of ``uint64`` keys, each
    uniform's bits above its label, replaces ``argsort``: the bits keep a
    nonnegative double's order and ``fl(fl(2T s) - T)`` is nondecreasing in
    ``s``.  The cubic quantile is not provably monotone and keeps ``argsort``.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    u_x = rng.random(n)
    xs = np.asarray(scn.law.quantile(u_x), dtype=float)
    labels = rng.random(n) < link_eval(scn.link, scn.delta(n) * xs)
    if scn.law.tilt != 0.0:
        return Sample.from_draws(xs, labels.astype(np.int64))
    keys = np.sort((u_x.view(np.uint64) << 1) | labels)  # the shift maps -0.0 to +0.0
    xs = scn.law.quantile((keys >> 1).view(float))
    return Sample._from_sorted(xs, (keys & 1).view(np.int64))


# ---------------------------------------------------------------------------
# piecewise-affine monotone functions and hypothesis constructions


@dataclass(frozen=True)
class PiecewiseAffine:
    """Monotone piecewise-affine function, constant outside its knots."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.size < 2 or not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing with length >= 2")
        if np.any(np.diff(values) < 0):
            raise ValueError("values must be nondecreasing")

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = np.interp(np.asarray(x, dtype=float), self.knots, self.values)
        return float(out) if scalar else out

    @property
    def breakpoints(self) -> np.ndarray:
        return self.knots


@dataclass(frozen=True)
class HypothesisPair:
    """Two slope-band hypotheses separated at ``x0`` by the minimax gap."""

    upper: PiecewiseAffine
    lower: PiecewiseAffine
    case: str  # 'fast' (affine pair) or 'slow' (kinked pair)
    separation: float
    delta: float
    n: int
    constant: float
    x0: float


@dataclass(frozen=True)
class HypothesisCube:
    """Hypercube of monotone hypotheses; one bit toggles one cell's shape.

    Cell ``k`` covers ``[edges[k], edges[k+1]]`` of width ``2 * half_step``;
    bit 1 selects slopes (delta/2, delta) on the two half-cells, bit 0 the
    mirrored pattern.  All hypotheses start at 1/4 and stay below 3/4.
    """

    delta: float
    n: int
    constant: float
    half_width: float
    m: int
    half_step: float
    edges: np.ndarray

    def function(self, bits) -> PiecewiseAffine:
        bits = np.asarray(bits, dtype=np.int64)
        if bits.shape != (self.m,):
            raise ValueError(f"bit vector must have length {self.m}")
        if not np.isin(bits, (0, 1)).all():
            raise ValueError("bits must be 0 or 1")
        d, h = self.delta, self.half_step
        first = np.where(bits == 1, 0.5 * d * h, d * h)
        rises = np.empty(2 * self.m)
        rises[0::2] = first
        rises[1::2] = 1.5 * d * h - first
        knots = np.empty(2 * self.m + 1)
        knots[0::2] = self.edges
        knots[1::2] = self.edges[:-1] + h
        values = 0.25 + np.concatenate(([0.0], np.cumsum(rises)))
        return PiecewiseAffine(knots, values)

    def one_flip_l1(self) -> float:
        """Exact L1 gap on a cell between the two base shapes."""
        return 0.5 * self.delta * self.half_step**2

    def one_flip_l1_lower_bound(self) -> float:
        """Audited lower bound ``h * 2*T*C * (n/delta)**(-1/3)`` for the gap."""
        return (
            self.half_step
            * 2.0
            * self.half_width
            * self.constant
            * (self.n / self.delta) ** (-1.0 / 3.0)
        )


def default_fast_pair_constant() -> float:
    return 0.4


def _slow_pair_cap(law: FeatureLaw) -> float:
    """Upper limit ``min((4T)^(1/3)/8, (32 sup p)^(-1/3))`` of the slow-pair constant."""
    t = law.half_width
    return min((4.0 * t) ** (1.0 / 3.0) / 8.0, (32.0 * law.sup_density) ** (-1.0 / 3.0))


def default_slow_pair_constant(law: FeatureLaw) -> float:
    return 0.5 * _slow_pair_cap(law)


def default_cube_constant(law: FeatureLaw) -> float:
    return 0.5 * (1.0 / (32.0 * law.sup_density)) ** (1.0 / 3.0)


def build_pointwise_hypotheses(
    delta: float, n: int, C: float, law: FeatureLaw, x0: float
) -> HypothesisPair:
    """Two-point hypotheses achieving separation ``2C max(n^-1/2, (n/delta)^-1/3)``.

    For ``delta`` below ``n**-0.5`` the pair is two parallel lines of slope
    ``delta``; otherwise the pair is kinked around ``x0`` with slopes
    ``delta/2`` and ``delta``.  Raises if a constraint needed by the
    separation/affinity budget is violated, naming the constraint.
    """
    t = law.half_width
    if not 0.0 <= delta <= 1.0 / (4.0 * t):
        raise ValueError("delta outside [0, 1/(4T)]")
    if not -t < x0 < t:
        raise ValueError("x0 must be interior to the feature support")
    root_n = n ** (-0.5)
    if delta < root_n:
        if not 0.0 < C < 1.0 / math.sqrt(2.0):
            raise ValueError("fast-case constant violates 0 < C < 1/sqrt(2)")
        if n < 16.0 * (C + t) ** 2:
            raise ValueError("fast case needs n >= 16 (C + T)^2 to stay inside [1/4, 3/4]")
        eta = 0.5 - delta * t - C * root_n
        sep = 2.0 * C * root_n
        knots = np.array([-t, t])
        lower = PiecewiseAffine(knots, eta + delta * (knots + t))
        upper = PiecewiseAffine(knots, eta + sep + delta * (knots + t))
        return HypothesisPair(upper, lower, "fast", sep, delta, n, C, x0)

    if not 0.0 < C < _slow_pair_cap(law):
        raise ValueError(
            "slow-case constant violates 0 < C < min((4T)^(1/3)/8, (32 sup p)^(-1/3))"
        )
    if n < 16.0**3 * C**3:
        raise ValueError("slow case needs n >= 16^3 C^3 to stay inside [1/4, 3/4]")
    kink = 4.0 * C * (n * delta**2) ** (-1.0 / 3.0)
    if x0 - kink <= -t or x0 + kink >= t:
        raise ValueError("kink offset 4C(n delta^2)^(-1/3) leaves the feature support")
    eta = 0.5 - 0.5 * delta * (x0 + t)
    sep = 2.0 * C * (n / delta) ** (-1.0 / 3.0)
    # upper: half slope until x0 - kink, full slope until x0, half slope after
    ku = np.array([-t, x0 - kink, x0, t])
    vu = np.array(
        [
            eta,
            eta + 0.5 * delta * (x0 - kink + t),
            eta + 0.5 * delta * (x0 + t) + sep,
            eta + 0.5 * delta * (t + t + kink),
        ]
    )
    # lower: half slope until x0, full slope until x0 + kink, half slope after
    kl = np.array([-t, x0, x0 + kink, t])
    vl = np.array(
        [
            eta,
            eta + 0.5 * delta * (x0 + t),
            eta + 0.5 * delta * (x0 + kink + t) + sep,
            eta + 0.5 * delta * (t + t + kink),
        ]
    )
    return HypothesisPair(
        PiecewiseAffine(ku, vu), PiecewiseAffine(kl, vl), "slow", sep, delta, n, C, x0
    )


def build_assouad_cube(delta: float, n: int, C: float, T: float) -> HypothesisCube:
    """Hypercube with ``m = floor((n delta^2)^(1/3) / (4C))`` cells on [-T, T]."""
    if T <= 0:
        raise ValueError("half-width T must be positive")
    if not n ** (-0.5) <= delta <= 1.0 / (4.0 * T):
        raise ValueError("delta outside [n^(-1/2), 1/(4T)]")
    if C <= 0:
        raise ValueError("cube constant must be positive")
    m = int(math.floor((n * delta**2) ** (1.0 / 3.0) / (4.0 * C)))
    if m == 0:
        raise ValueError("degenerate cube: m = 0 cells for these (n, delta, C)")
    h = T / m
    edges = -T + 2.0 * h * np.arange(m + 1)
    return HypothesisCube(delta, n, C, T, m, h, edges)


# ---------------------------------------------------------------------------
# slope-band membership


_BAND_TOL = 1e-9


def slope_band_report(f: PiecewiseAffine, half_width: float) -> dict:
    """Exact slope-band audit of a piecewise-affine ``f`` on ``[-T, T]``.

    ``f`` is affine between its knots clipped to ``[-T, T]``, so
    monotonicity and range are read off its values there and the
    Lipschitz constant is the largest segment slope.  The least modulus
    ratio ``max rise / nu`` over the dyadic spacings ``nu = 2T / 2**j`` is
    the chord slope ``(f(T) - f(-T)) / 2T``: ``[-T, T]`` is ``2**j``
    windows of length ``nu`` whose rises add up to ``f(T) - f(-T)``, so the
    largest rise is at least ``nu`` times the chord slope, with equality
    at ``j = 0``.
    """
    t = half_width
    xs = np.unique(np.clip(np.r_[-t, f.knots, t], -t, t))
    vals = f(xs)
    rises = np.diff(vals)
    return {
        "monotone": bool(np.all(rises >= -1e-12)),
        "in_range": bool(np.all((vals >= -1e-12) & (vals <= 1.0 + 1e-12))),
        "lipschitz": float(np.max(rises / np.diff(xs))),
        "min_modulus_ratio": float(vals[-1] - vals[0]) / (2.0 * t),
    }


def in_slope_band(f: PiecewiseAffine, delta: float, half_width: float) -> bool:
    """True when ``f`` passes the slope-band audit for level ``delta``."""
    rep = slope_band_report(f, half_width)
    return (
        rep["monotone"]
        and rep["in_range"]
        and rep["lipschitz"] <= delta * (1.0 + _BAND_TOL) + _BAND_TOL
        and rep["min_modulus_ratio"] >= 0.5 * delta * (1.0 - _BAND_TOL) - _BAND_TOL
    )
