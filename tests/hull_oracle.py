"""Test-side oracles for the greatest convex minorant: the monotone-stack hull and the argmin."""

import numpy as np


def lower_hull_indices(ts, vs) -> np.ndarray:
    """Indices of the lower convex hull of points sorted by abscissa.

    Single monotone-stack pass; collinear middle points are dropped so
    segment slopes come out strictly increasing.  Cross products are
    evaluated on the raw floats with no epsilon, so on integer diagrams
    below 2**26 in both coordinates the hull is exact.
    """
    ts = list(map(float, ts))
    vs = list(map(float, vs))
    idx: list[int] = []
    for i in range(len(ts)):
        ti = ts[i]
        vi = vs[i]
        while len(idx) >= 2:
            a = idx[-2]
            b = idx[-1]
            if (ts[b] - ts[a]) * (vi - vs[a]) - (ti - ts[a]) * (vs[b] - vs[a]) <= 0.0:
                idx.pop()
            else:
                break
        idx.append(i)
    return np.asarray(idx, dtype=np.int64)


def argmin_last(values: np.ndarray) -> np.ndarray:
    """Row argmin of a 2-D array, ties broken to the largest index."""
    return values.shape[1] - 1 - np.argmin(values[:, ::-1], axis=1)
