"""Distances between regression curves and related statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FeatureLaw, Sample

__all__ = [
    "QuadratureCfg",
    "QuadratureError",
    "hellinger",
    "l1_error",
    "sup_norm_on",
    "ks_two_sample",
]


class QuadratureError(RuntimeError):
    """A Gauss-Legendre sum missed its tolerance: the integrand is not smooth on a piece."""


@dataclass(frozen=True)
class QuadratureCfg:
    """Bound on the Gauss-Legendre error estimate (32 nodes against two 16-node halves)."""

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError("quadrature tolerance must be positive")


_GL_RULES = {k: np.polynomial.legendre.leggauss(k) for k in (16, 32)}


def _gl_integrate(fn, a: np.ndarray, b: np.ndarray, order: int = 32) -> np.ndarray:
    """Vectorized fixed-order Gauss-Legendre over a batch of intervals."""
    nodes, weights = _GL_RULES[order]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * nodes[None, :]
    return half * (fn(x) * weights[None, :]).sum(axis=1)


def _gl_checked(fn, edges: np.ndarray, q: QuadratureCfg) -> float:
    """32-node Gauss-Legendre sum over the pieces between ``edges``.

    Its error estimate, the distance to two 16-node halves summed over the
    pieces, must be at most ``q.abs_tol``; otherwise :class:`QuadratureError`.
    """
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    whole = _gl_integrate(fn, a, b)
    halves = _gl_integrate(fn, a, mid, 16) + _gl_integrate(fn, mid, b, 16)
    err = float(np.abs(whole - halves).sum())
    if err > q.abs_tol:
        raise QuadratureError(
            f"Gauss-Legendre error estimate {err:.3g} exceeds the tolerance {q.abs_tol:.3g} "
            f"on [{float(edges[0])!r}, {float(edges[-1])!r}]: the integrand is not smooth "
            "between the breakpoints"
        )
    return float(whole.sum())


def _split_points(lo: float, hi: float, *fns) -> np.ndarray:
    """``lo``, ``hi`` and the ``breakpoints`` the curves expose between them, sorted."""
    pts = np.concatenate([[lo, hi], *(getattr(f, "breakpoints", ()) for f in fns)])
    return np.unique(pts[(pts >= lo) & (pts <= hi)])


def hellinger(f, g, law: FeatureLaw, q: QuadratureCfg | None = None) -> float:
    """Root half-integrated squared difference of sqrt-probabilities.

    ``d(f, g)^2 = (1/2) int [(sqrt(1-f)-sqrt(1-g))^2 + (sqrt f - sqrt g)^2] dP_X``.
    ``f`` and ``g`` take arrays.  The support is split at the jumps and
    kinks the curves expose as ``breakpoints``, and each piece gets the
    checked 32-node Gauss-Legendre rule of :func:`_gl_checked`, whose
    nodes are strictly inside the piece.
    """
    t = law.half_width

    def integrand(x: np.ndarray) -> np.ndarray:
        fv = np.clip(f(x), 0.0, 1.0)
        gv = np.clip(g(x), 0.0, 1.0)
        h2 = (np.sqrt(1.0 - fv) - np.sqrt(1.0 - gv)) ** 2 + (np.sqrt(fv) - np.sqrt(gv)) ** 2
        return 0.5 * h2 * law.density(x)

    total = _gl_checked(integrand, _split_points(-t, t, f, g), q or QuadratureCfg())
    return float(np.sqrt(max(total, 0.0)))


def l1_error(
    step,
    target,
    measure: str,
    *,
    interval: tuple[float, float] | None = None,
    sample: Sample | None = None,
) -> float:
    """Integrated absolute error of a step estimate against a monotone target.

    measure
        ``lebesgue`` integrates over ``interval``; ``empirical`` averages
        over a sample's points with their weights.

    The interval is split at the jumps of the step and any kinks of the
    target.  On a piece where the target starts below the step level and
    ends above it, the crossing is ``target.inverse(level)`` clipped to the
    piece (a :class:`~monotone_wfi.model.LinkCurve` inverts in closed
    form); every other piece keeps one sign.  The sign-constant sub-pieces
    are integrated by 32-node Gauss-Legendre.
    """
    if measure == "empirical":
        if sample is None:
            raise ValueError("empirical measure needs a sample")
        devs = np.abs(np.asarray(step(sample.xs)) - np.asarray(target(sample.xs)))
        return float((devs * sample.weights).sum() / sample.n)
    if measure != "lebesgue":
        raise ValueError(f"unknown measure {measure!r}")
    if interval is None:
        raise ValueError("lebesgue measure needs an interval")
    lo, hi = float(interval[0]), float(interval[1])
    if hi <= lo:
        return 0.0

    edges = _split_points(lo, hi, step, target)
    a = edges[:-1]
    b = edges[1:]
    levels = np.asarray(step(a), dtype=float)
    # one target pass; the left limit at b: a target jump at b belongs to the next piece
    ta, tb = np.asarray(target(np.concatenate((a, np.nextafter(b, a))).reshape(2, -1)), float)
    c = np.where(ta >= levels, a, b)
    is_open = (ta < levels) & (tb > levels)
    if is_open.any():
        c[is_open] = np.clip(target.inverse(levels[is_open]), a[is_open], b[is_open])

    def gap(x):
        return np.abs(np.concatenate((levels, levels))[:, None] - np.asarray(target(x)))

    # both sign-constant halves [a, c] and [c, b] of every piece in one batch
    halves = _gl_integrate(gap, np.concatenate((a, c)), np.concatenate((c, b)))
    return float(np.sum(halves[: a.size] + halves[a.size :]))


def sup_norm_on(step, target, interval: tuple[float, float]) -> float:
    """Exact sup of |step - target| on an interval, target continuous monotone.

    On each constancy piece ``[a, b)`` of the step the gap is monotone, so
    the sup is attained at its ends; the term at ``b`` is also the left
    limit at the jump there, which covers both sides of every jump.
    """
    lo, hi = float(interval[0]), float(interval[1])
    jumps = step.jump_xs
    inner = jumps[(jumps > lo) & (jumps <= hi)]
    edges = np.unique(np.concatenate([[lo], inner, [hi]]))
    best = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        lev = float(step(a))
        best = max(best, abs(lev - float(target(a))), abs(lev - float(target(b))))
    return best


def ks_two_sample(a, b) -> float:
    """Sup distance between the empirical CDFs of two samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))
