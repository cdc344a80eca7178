"""Workload definitions: which CLI commands a run makes, and how to check them.

Each workload is a list of steps.  A step is one ``monotone-wfi`` command
with its settings written to a config file and passed with ``--config``;
the seed, thread count and output directory are passed as flags.  One
workload run is all of its steps, in order, through ``cli.main``.

The sizes are reduced configs of the study commands the acceptance
suite drives, chosen so that one run takes about a second: a measured
stretch then holds enough runs for a median and a tail percentile with
ten runs beyond it.  Each workload keeps the layer mix of its full-size
command (see the docstring of each workload function);
``scale="smoke"`` shrinks everything further for the benchmark's
self-checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Seed of the committed reference digests (``reference.json``).
REFERENCE_SEED = 20260808


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload run."""

    command: str
    settings: dict
    threads: int = 1
    outputs: tuple[str, ...] = ()
    rows: dict = field(default_factory=dict)  # CSV name -> expected data rows


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    units: int  # units of work per run, for units_per_s
    unit: str
    # CSV compared byte for byte between the pool run and a serial run
    # (empty when the workload never starts a pool)
    pooled_records: str = ""


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def pool_threads() -> int:
    """Worker count for the pooled workload: two, capped at the core count."""
    return max(1, min(2, os.cpu_count() or 1))


def _rate_elbow(scale: str) -> Workload:
    """The NPMLE hull is the largest layer, then draw_sample, then l1_error.

    One gamma at n >= 4096 keeps the layer order of the full default
    study (hull about 60 %, draw_sample 20 %, l1_error 15 %) in a run of
    about a second; three gammas at n <= 4096 would put l1_error's fixed
    per-call cost ahead of draw_sample.  No limit-law code, no process pool.
    """
    gammas = (0.25,)
    ns = (4096, 6144, 8192) if scale == "full" else (64, 128, 256)
    reps = 50  # the study's minimum
    step = Step(
        "rate-study",
        {
            "study.gammas": _csv_list(gammas),
            "study.n_list": _csv_list(ns),
            "study.replicates": reps,
        },
        threads=1,
        outputs=(
            "rate_study.csv",
            "rate_study.manifest.json",
            "rate_study.pointwise.svg",
            "rate_study.l1.svg",
        ),
        rows={"rate_study.csv": len(gammas) * len(ns) * reps},
    )
    return Workload(
        "rate_elbow",
        (step,),
        len(gammas) * len(ns) * reps,
        "fitted replicates",
    )


def _tail_poly(scale: str) -> Workload:
    """The polynomial law's bisection quantile inside draw_sample dominates.

    The estimator work is inverse_process only (no hull).  The only
    workload that starts a process pool, so the only one that exercises
    chunking and pool start-up.
    """
    ns = (512, 1024, 2048) if scale == "full" else (64, 128, 256)
    reps = 50
    step = Step(
        "tail-probe",
        {
            "law.kind": "polynomial",
            "law.params": "0.5",
            "study.replicates": reps,
            "study.n_list": _csv_list(ns),
        },
        threads=pool_threads(),
        outputs=("tail_probe.csv", "tail_probe.manifest.json", "tail_probe.medians.svg"),
        rows={"tail_probe.csv": len(ns) * reps},
    )
    return Workload(
        "tail_poly",
        (step,),
        len(ns) * reps,
        "probed replicates",
        pooled_records="tail_probe.csv",
    )


LIMIT_TAGS = ("scaled_chernoff", "slow_fbeta", "boundary_gbc", "fast_w_slope", "l1_fast_maxA")


def _limit_laws(scale: str) -> Workload:
    """Every limit-law sampler, then the Monte Carlo constants: all limits work.

    Never calls the hull or draw_sample.  Brownian path generation
    dominates, mostly in the constants' 10^4 absolute-mean draws (the
    sampler's minimum), which run on a grid twice as coarse as the
    default to keep a run near one second.
    """
    draws = 256 if scale == "full" else 32
    abs_mean_draws = 10000  # the sampler's minimum
    cov_draws = 256 if scale == "full" else 32
    steps = []
    for tag in LIMIT_TAGS:
        settings = {"limit.law_tag": tag, "limit.draws": draws}
        if tag == "slow_fbeta":
            settings.update({"scenario.link": "beta_flat", "scenario.beta": 3})
        steps.append(
            Step(
                "simulate-limit",
                settings,
                outputs=("limit_batch.csv", "limit_batch.meta.json"),
                rows={"limit_batch.csv": draws},
            )
        )
    constants = {
        "constants.abs_mean_draws": abs_mean_draws,
        "constants.cov_draws": cov_draws,
        "grid.step": 0.004 if scale == "full" else 0.04,
    }
    steps.append(
        Step(
            "constants",
            constants,
            outputs=("constants.csv", "constants.manifest.json"),
            rows={"constants.csv": 2},
        )
    )
    return Workload(
        "limit_laws",
        tuple(steps),
        len(LIMIT_TAGS) * draws + abs_mean_draws + cov_draws,
        "limit draws",
    )


_WORKLOADS = {"rate_elbow": _rate_elbow, "tail_poly": _tail_poly, "limit_laws": _limit_laws}
NAMES = tuple(_WORKLOADS)


def get(name: str, scale: str = "full") -> Workload:
    if name not in _WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if scale not in ("full", "smoke"):
        raise ValueError(f"unknown scale {scale!r}")
    return _WORKLOADS[name](scale)


def config_text(step: Step) -> str:
    """The step's settings as a ``key = value`` config file."""
    return "".join(f"{k} = {v}\n" for k, v in sorted(step.settings.items()))
