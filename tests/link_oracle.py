"""Test-side oracle for the logistic link: the masked split form."""

import numpy as np


def logistic_split(u) -> np.ndarray:
    """``1 / (1 + exp(-u))`` where ``u >= 0`` and ``exp(u) / (1 + exp(u))`` elsewhere.

    Each sign is gathered, evaluated with its own ``exp`` call and
    scattered back, so ``exp`` never overflows.  NaN takes the second form.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out
