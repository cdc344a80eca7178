"""Outside-in tracing: wrap the names each layer's caller resolves.

A :class:`Tracer` replaces module attributes with wrappers that record a
span (name, start, end, parent) per call, plus a size where the layer has
one (points drawn or hulled, normals simulated).  Spans live in memory
and are written out when the benchmark ends; :func:`installed` puts the
original objects back on exit.  The program itself is not changed.

Span names are ``<layer>.<function>``; a layer's self time is the sum of
its spans' durations minus the time their child spans cover, so the
self times of all layers add up to the root span, the traced wall.
"""

from __future__ import annotations

import contextlib
import functools
import time

LAYERS = ("model", "estimator", "metrics", "limits", "experiments", "cli", "streams")
ROOT = "cli.main"


def _n_points(args, kwargs):
    return int(args[1])  # draw_sample(scn, n, rng)


def _distinct_xs(args, kwargs):
    return int(args[0].xs.size)  # npmle_fit(sample)


def _normals(args, kwargs):
    grid, m = args[0], int(args[1])  # brownian_paths(grid, m, rng)
    per_path = 2 * grid.n_steps if grid.two_sided else grid.n_steps
    return (m * per_path, float(grid.half_width))


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, size]
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(
                [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                 size(args, kwargs) if size else 0]
            )
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def root(self):
        """Span covering one whole workload run; its self time is the CLI's."""
        idx = len(self.spans)
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, 0])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()


def targets():
    """(owner, attribute, span name, size function) for every traced name."""
    from monotone_wfi import cli, experiments, limits
    from monotone_wfi.model import FeatureLaw

    out = [
        (experiments, "draw_sample", "model.draw_sample", _n_points),
        (experiments, "npmle_fit", "estimator.npmle_fit", _distinct_xs),
        (experiments, "inverse_process", "estimator.inverse_process", None),
        (experiments, "l1_error", "metrics.l1_error", None),
        (experiments, "stream", "streams.stream", None),
        (limits, "brownian_paths", "limits.brownian_paths", _normals),
        (limits, "isotonic_regression", "limits.isotonic_regression", None),
        (limits, "stream", "streams.stream", None),
        (FeatureLaw, "quantile", "model.quantile", None),
    ]
    for attr in sorted(vars(cli)):
        if attr.startswith("run_"):
            out.append((cli, attr, f"experiments.{attr}", None))
    for attr in ("sample_limit_batch", "chernoff_abs_mean", "chernoff_cov_integral"):
        out.append((cli, attr, f"limits.{attr}", None))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    saved = [(owner, attr, name, size, vars(owner)[attr])
             for owner, attr, name, size in targets()]
    try:
        for owner, attr, name, size, original in saved:
            setattr(owner, attr, tracer.wrap(name, original, size))
        yield
    finally:
        for owner, attr, _, _, original in saved:
            setattr(owner, attr, original)


def snapshot() -> dict:
    """The objects currently bound at every traced name, keyed by name."""
    from monotone_wfi import experiments

    out = {
        f"{getattr(owner, '__name__', owner)}.{attr}": vars(owner)[attr]
        for owner, attr, _, _ in targets()
    }
    out["experiments.ProcessPoolExecutor"] = experiments.ProcessPoolExecutor
    return out


class PoolCounter:
    """Counts pools started and tasks submitted through ``experiments``."""

    def __init__(self) -> None:
        self.pools = 0
        self.tasks = 0

    @contextlib.contextmanager
    def installed(self):
        from monotone_wfi import experiments

        counter = self
        original = experiments.ProcessPoolExecutor

        class CountingPool(original):
            def __init__(self, *args, **kwargs):
                counter.pools += 1
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                counter.tasks += 1
                return super().submit(fn, *args, **kwargs)

        experiments.ProcessPoolExecutor = CountingPool
        try:
            yield
        finally:
            experiments.ProcessPoolExecutor = original


def summarize(spans: list[list]) -> dict:
    """Per-name calls, sizes and self times, per-layer self times, traced wall.

    ``spans`` holds the spans of one workload run under a single root.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, dict] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    wall = 0.0
    redraws = 0
    first_window: dict[int, float] = {}
    for i, (name, start, end, parent, size) in enumerate(spans):
        self_s = (end - start) - child_time[i]
        rec = by_name.setdefault(name, {"calls": 0, "self_s": 0.0, "size": 0})
        rec["calls"] += 1
        rec["self_s"] += self_s
        layer_self[name.split(".", 1)[0]] += self_s
        if name == ROOT:
            wall += end - start
        elif name == "limits.brownian_paths":
            normals, half_width = size
            rec["size"] += normals
            # a wider window than the first one drawn under the same caller
            # is an escape retry on a doubled window
            base = first_window.setdefault(parent, half_width)
            redraws += half_width > base
        else:
            rec["size"] += size
    return {"by_name": by_name, "layer_self": layer_self, "wall": wall,
            "window_redraws": redraws}
