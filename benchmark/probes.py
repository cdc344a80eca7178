"""Layer probes: fixed-input calls to the public functions, timed one by one.

Inputs come from the benchmark seed.  Each probe reports the median of a
few repeats in milliseconds; the names match the performance targets the
project states (hull at n = 32768, polynomial draw against uniform draw, one
512-path batch per limit law).
"""

from __future__ import annotations

import statistics
import time

from workloads import LIMIT_TAGS

PROBE_N = 32768
PROBE_PATHS = 512
REPEATS = 5


def _median_ms(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def run(seed: int) -> dict:
    from monotone_wfi.estimator import npmle_fit
    from monotone_wfi.limits import sample_limit_batch
    from monotone_wfi.metrics import l1_error
    from monotone_wfi.model import FeatureLaw, LinkSpec, Scenario, draw_sample
    from monotone_wfi.streams import stream

    logistic = LinkSpec("logistic", 1, ())
    uniform = Scenario(logistic, FeatureLaw("uniform", 1.0, ()), 1.0, 0.25, 1)
    polynomial = Scenario(logistic, FeatureLaw("polynomial", 1.0, (0.5,)), 1.0, 0.25, 1)
    out = {
        "model.probe.draw_uniform_32768_ms": _median_ms(
            lambda: draw_sample(uniform, PROBE_N, stream(seed, 1))
        ),
        "model.probe.draw_polynomial_32768_ms": _median_ms(
            lambda: draw_sample(polynomial, PROBE_N, stream(seed, 2))
        ),
    }
    sample = draw_sample(uniform, PROBE_N, stream(seed, 1))
    fit = npmle_fit(sample)
    phi = uniform.phi_fn(PROBE_N)
    out["estimator.probe.npmle_fit_32768_ms"] = _median_ms(lambda: npmle_fit(sample))
    out["metrics.probe.l1_error_32768_ms"] = _median_ms(
        lambda: l1_error(fit, phi, "lebesgue", interval=(-1.0, 1.0))
    )
    for tag in LIMIT_TAGS:
        kwargs = {"link": logistic, "law": uniform.law, "c": 1.0}
        if tag == "slow_fbeta":
            kwargs.update(link=LinkSpec("beta_flat", 3, ()), beta=3)
        out[f"limits.probe.{tag}_{PROBE_PATHS}_ms"] = _median_ms(
            lambda: sample_limit_batch(tag, PROBE_PATHS, seed, **kwargs), 3
        )
    return out
