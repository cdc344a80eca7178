"""Monotone-regression maximum likelihood via the cusum diagram.

The fitted curve at the i-th order statistic is the left-hand slope of
the greatest convex minorant of the cumulative-sum diagram at the
cumulative sample fraction i/n; between order statistics it is extended
as a right-continuous step function that is 0 left of the data and
constant at and beyond the largest point.

The minorant is the isotonic (pool-adjacent-violators) fit of the block
label means, so its vertices are read off the blocks of
``scipy.optimize.isotonic_regression``.  The diagram is kept in integer
counts: block boundaries between exactly equal slopes are dropped, and
the blocks are accepted only after an integer certificate proves them to
be the exact hull (:class:`HullCertificateError` otherwise).  A
pure-Python weighted pooling pass (:func:`pava_fit`) is kept as an
independent oracle, and the largest argmin of the cusum diagram minus a
linear ramp gives the estimator's generalized inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression

from .model import Sample

__all__ = [
    "HullCertificateError",
    "StepEstimate",
    "npmle_fit",
    "npmle_values",
    "pava_fit",
    "inverse_process",
    "switch_check",
    "log_likelihood",
]


_MAX_N = 3_037_000_499  # isqrt(2**63 - 1): every cross product of the hull fits int64


class HullCertificateError(RuntimeError):
    """Float isotonic blocks that are not the exact minorant of an integer diagram."""


@dataclass(frozen=True)
class StepEstimate:
    """Right-continuous nondecreasing step function into [0, 1].

    Zero left of the first jump; after the last jump it stays at the last
    value.  ``n`` records the sample size behind the fit (0 for synthetic
    steps).
    """

    jump_xs: np.ndarray
    values: np.ndarray
    n: int = 0

    def __post_init__(self) -> None:
        jx = np.asarray(self.jump_xs, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "jump_xs", jx)
        object.__setattr__(self, "values", vals)
        if jx.shape != vals.shape:
            raise ValueError("jump locations and values must have equal length")
        if not (jx[1:] > jx[:-1]).all():
            raise ValueError("jump locations must be strictly increasing")
        if vals.size and ((vals[1:] < vals[:-1]).any() or vals[0] < 0 or vals[-1] > 1):
            raise ValueError("values must be nondecreasing within [0, 1]")

    def __call__(self, x):
        scalar = np.isscalar(x)
        idx = np.searchsorted(self.jump_xs, np.asarray(x, dtype=float), side="right")
        out = np.concatenate(([0.0], self.values))[idx]
        return float(out) if scalar else out

    @property
    def breakpoints(self) -> np.ndarray:
        return self.jump_xs

    @classmethod
    def from_fitted(cls, xs: np.ndarray, fitted: np.ndarray, n: int) -> "StepEstimate":
        """Compress per-point fitted values to jump locations (value changes)."""
        fitted = np.asarray(fitted, dtype=float)
        prev = np.concatenate(([0.0], fitted[:-1]))
        keep = fitted != prev
        return cls(np.asarray(xs, dtype=float)[keep], fitted[keep], n)


def _cusums(s: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Integer cusum diagram: cumulative weights and cumulative ones from 0."""
    return (
        np.concatenate(([0], np.cumsum(s.weights))),
        np.concatenate(([0], np.cumsum(s.ones))),
    )


def _minorant_indices(cw: np.ndarray, co: np.ndarray) -> np.ndarray:
    """Vertex indices of the greatest convex minorant of an integer diagram.

    ``cw`` (strictly increasing) and ``co`` are int64 arrays, in practice
    the cusums of :func:`_cusums`.  The block boundaries of the isotonic
    fit of the increment ratios are the minorant's vertices, but the fit
    pools in floating point and can split a block whose pooled means
    differ only by rounding (unit weights, labels
    ``111011011001001111001001000010``: blocks ``[0, 28, 30]`` against the
    hull ``[0, 30]``).  Every boundary between two exactly equal block
    slopes is therefore dropped, and the blocks are then accepted only
    under an exact integer certificate: segment slopes strictly increasing
    (cross-multiplied) and every diagram point on or above its segment.
    Together these make the polygon through the block ends the minorant,
    with every vertex a strict kink; blocks that fail the certificate
    raise :class:`HullCertificateError`.  For the cusums of n draws every
    product stays within ``n**2``, so int64 is exact up to
    ``n = isqrt(2**63 - 1)`` (:data:`_MAX_N`); larger diagrams raise
    ValueError rather than overflow silently.
    """
    if cw[-1] > _MAX_N:
        raise ValueError(f"the exact hull takes at most n={_MAX_N} draws, got n={int(cw[-1])}")
    # slices rather than np.diff: its overhead dominates on small samples
    dw, do = cw[1:] - cw[:-1], co[1:] - co[:-1]
    blocks = isotonic_regression(do / dw, weights=dw).blocks
    vw, vo = cw[blocks], co[blocks]
    sw, so = vw[1:] - vw[:-1], vo[1:] - vo[:-1]
    tie = so[:-1] * sw[1:] == so[1:] * sw[:-1]
    if tie.any():  # merge the blocks that rounding split, chains of ties at once
        blocks = np.delete(blocks, 1 + np.flatnonzero(tie))
        vw, vo = cw[blocks], co[blocks]
        sw, so = vw[1:] - vw[:-1], vo[1:] - vo[:-1]
    lens = blocks[1:] - blocks[:-1]
    # the running cross product against each point's own segment is 0 at
    # every block end, so one cumsum over all increments covers every block
    above = np.cumsum(do * np.repeat(sw, lens) - dw * np.repeat(so, lens))
    if (so[:-1] * sw[1:] < so[1:] * sw[:-1]).all() and above.min() >= 0:
        return blocks
    raise HullCertificateError(
        f"the float isotonic blocks of the n={int(cw[-1])} cusum diagram "
        "failed the exact hull certificate"
    )


def _faces(s: Sample) -> tuple[np.ndarray, np.ndarray]:
    """Minorant vertex indices and the float slope of each face between them.

    The vertices are exact integer counts and every slope a correctly rounded
    count ratio: nondecreasing and within [0, 1] with no epsilon games.
    """
    cw, co = _cusums(s)
    keep = _minorant_indices(cw, co)
    vw, vo = cw[keep], co[keep]
    return keep, (vo[1:] - vo[:-1]) / (vw[1:] - vw[:-1])


def npmle_values(s: Sample) -> np.ndarray:
    """Maximum-likelihood fitted values at the sample points."""
    keep, slopes = _faces(s)
    return np.repeat(slopes, np.diff(keep))


def npmle_fit(s: Sample) -> StepEstimate:
    """Maximum-likelihood step estimate over all monotone curves into [0, 1].

    By :meth:`StepEstimate.from_fitted`'s rule, a face starts a jump unless
    its float slope equals the previous face's (0 before the first face).
    """
    keep, slopes = _faces(s)
    new = slopes != np.concatenate(([0.0], slopes[:-1]))
    return StepEstimate(s.xs[keep[:-1][new]], slopes[new], s.n)


def _pava(means: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators; returns the isotonic fit."""
    vals: list[float] = []
    wts: list[float] = []
    counts: list[int] = []
    for m, w in zip(means, weights):
        vals.append(float(m))
        wts.append(float(w))
        counts.append(1)
        while len(vals) >= 2 and vals[-2] >= vals[-1]:
            v = (vals[-2] * wts[-2] + vals[-1] * wts[-1]) / (wts[-2] + wts[-1])
            wts[-2] += wts[-1]
            counts[-2] += counts[-1]
            vals[-2] = v
            vals.pop()
            wts.pop()
            counts.pop()
    return np.repeat(vals, counts)


def pava_fit(s: Sample) -> StepEstimate:
    """Pooling oracle: isotonic regression of block label means.

    Agrees with :func:`npmle_fit` at every sample point; kept as a fully
    independent computation path.
    """
    fitted = _pava(s.ones / s.weights, s.weights.astype(float))
    return StepEstimate.from_fitted(s.xs, fitted, s.n)


def inverse_process(s: Sample, a: float) -> tuple[float, float]:
    """Largest minimizer of the cusum polygon minus the ramp ``a * t``.

    Returns ``(grid_t, x_value)`` where ``grid_t`` is the largest diagram
    abscissa minimizing ``polygon(t) - a t`` (polygon minima sit at
    vertices) and ``x_value`` is the empirical quantile of ``grid_t``
    (``-inf`` when ``grid_t`` is 0).

    Minimization runs on floats; vertices within rounding distance of the
    float minimum are re-ranked by exact integer keys ``co * q - p * cw``
    with ``a = p / q``, so exact ties (e.g. ``a`` equal to a block mean)
    break to the largest abscissa as the supremum-of-minimizers convention
    demands.
    """
    cw, co = _cusums(s)
    i = _inverse_index(cw, co, a)
    grid_t = float(cw[i] / s.n)
    x_value = float(s.xs[i - 1]) if i > 0 else -np.inf
    return grid_t, x_value


def _inverse_index(cw: np.ndarray, co: np.ndarray, a: float) -> int:
    """Index of the largest exact minimizer of ``cusum - a * ramp``."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("level a must lie in [0, 1]")
    crit = (co - a * cw) / cw[-1]
    near = np.flatnonzero(crit <= crit.min() + 1e-12)
    if near.size == 1:
        return int(near[0])
    # co - a cw scaled by q > 0: exact integers in the same order
    p, q = float(a).as_integer_ratio()
    keys = [int(co[j]) * q - p * int(cw[j]) for j in near]
    best = min(keys)
    return int(near[max(k for k, key in enumerate(keys) if key == best)])


def switch_check(s: Sample, x: float, a: float) -> dict:
    """Strict switch relation: fitted value above ``a`` iff inverse left of x.

    ``lhs`` is ``fit(x) > a``; ``rhs`` is ``inverse(a) < F_n(x)`` with the
    inverse taken as the largest minimizer.  Both sides are evaluated in
    exact integer arithmetic on ``a = p / q``, so the equivalence holds for
    every ``x`` within the sample range and every ``a`` in [0, 1], ties
    included.  The cusums and the minorant come from ``s.diagram``, built
    once per sample; the inverse is the scan of :func:`inverse_process`.
    The fit at block ``k > 0`` is the count ratio of the minorant face
    over it, and 0 at ``k = 0``.
    """
    cw, co, keep = s.diagram
    k = int(np.searchsorted(s.xs, x, side="right"))
    rhs = _inverse_index(cw, co, a) < k
    p, q = float(a).as_integer_ratio()
    j = int(np.searchsorted(keep, k))
    lo, hi = keep[j - 1], keep[j]
    lhs = k > 0 and int(co[hi] - co[lo]) * q > p * int(cw[hi] - cw[lo])
    return {"lhs": bool(lhs), "rhs": bool(rhs)}


def log_likelihood(f, s: Sample) -> float:
    """Bernoulli log-likelihood of a curve on a sample.

    ``f`` may be any callable into [0, 1] (a step estimate included).
    Blocks contribute ``ones * log p + (weight - ones) * log(1 - p)`` with
    the convention ``0 * log 0 = 0``; a positive count against probability
    zero yields ``-inf``.
    """
    p = np.asarray(f(s.xs), dtype=float)
    ones = s.ones.astype(float)
    zeros = (s.weights - s.ones).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(ones > 0, ones * np.log(p), 0.0)
        term0 = np.where(zeros > 0, zeros * np.log1p(-p), 0.0)
    total = term1.sum() + term0.sum()
    return float(total) if np.isfinite(total) else -np.inf
