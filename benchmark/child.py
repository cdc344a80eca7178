"""One workload in a fresh interpreter.

Started by ``run.py`` from the root of a checkout, with ``src`` on
``PYTHONPATH``::

    python3 benchmark/child.py MODE WORKLOAD SEED SECONDS SCALE

The child imports ``monotone_wfi.cli`` and parses the workload's config
files (written by ``run.py``), then prints ``ready``: that is the end of
set-up.  MODE ``setup`` stops there.  MODE ``run`` times whole workload
runs through ``cli.main`` for SECONDS; MODE ``trace`` alternates untraced
and traced runs for SECONDS and then times the layer probes.  Both print
one JSON object as their last line.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_RUNS = 21  # so that ten runs lie beyond a percentile at or above the median


class Runner:
    """Runs one workload through ``cli.main`` and records every attempt."""

    def __init__(self, cli, wl: workloads.Workload, work: Path) -> None:
        self.cli = cli
        self.wl = wl
        self.work = work
        self.out = work / "out"
        self.runs: list[dict] = []

    def __call__(self, seed: int, base: Path | None = None, threads: int | None = None,
                 tracer=None) -> tuple[float, str]:
        """One workload run; returns (wall seconds, problem or "")."""
        base = base or self.out
        argvs = []
        for i, step in enumerate(self.wl.steps):
            checks.clear(base / str(i))
            argvs.append([
                step.command, "--config", str(self.work / "configs" / f"{i}.cfg"),
                "--seed", str(seed), "--threads", str(threads or step.threads),
                "--out", str(base / str(i)),
            ])
        try:
            t0 = time.perf_counter()
            if tracer is None:
                codes = [self.cli.main(a) for a in argvs]
            else:
                with tracer.root():
                    codes = [self.cli.main(a) for a in argvs]
            wall = time.perf_counter() - t0
        except Exception:  # a crashing run is a failed run; keep measuring
            import traceback

            traceback.print_exc()
            return float("nan"), "exception"
        if any(codes):
            return wall, f"exit codes {codes}"
        return wall, checks.outputs(self.wl, base)

    def record(self, wall: float, problem: str, digest: str | None = None) -> None:
        self.runs.append({"wall": wall, "problem": problem, "digest": digest})


def run_mode(run: Runner, seed: int, seconds: float, scale: str) -> dict:
    """Timed runs at one seed, then the serial and reference-seed checks."""
    wl = run.wl
    start = time.perf_counter()
    while True:
        wall, problem = run(seed)
        run.record(wall, problem, None if problem else checks.digest(wl, run.out))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(run.runs) >= MIN_RUNS or elapsed >= 1.2 * seconds):
            break
    # every run used the same inputs, so every run must give the same bytes
    first = next((r["digest"] for r in run.runs if r["digest"]), None)
    for r in run.runs:
        if r["digest"] and r["digest"] != first:
            r["problem"] = "output differs from the first run at the same seed"
    result: dict = {}
    if wl.pooled_records:
        pooled = checks.records(wl, run.out)
        serial = run.work / "serial"
        wall, problem = run(seed, serial, threads=1)
        if not problem and checks.records(wl, serial) != pooled:
            problem = "serial records differ from the pooled records"
        result["serial"] = {"wall": wall, "problem": problem}
    wall, problem = run(workloads.REFERENCE_SEED)
    result["reference"] = checks.reference(wl, run.out, problem, scale)
    return result


def trace_mode(run: Runner, seed: int, seconds: float) -> dict:
    """Untraced and traced runs side by side for SECONDS, then the layer probes.

    The per-layer numbers come from the traced run with the median wall,
    so its layers' self times add up to its wall exactly.
    """
    import json
    import statistics

    import probes
    import tracing

    wl = run.wl
    before = tracing.snapshot()
    untraced, traced, pooled, counts = [], [], [], []
    problems: list[str] = []
    spans: list = []
    start = time.perf_counter()
    while True:
        wall, problem = run(seed, threads=1)
        plain = None if problem else checks.digest(wl, run.out)
        run.record(wall, problem, plain)
        untraced.append(wall)

        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            wall, problem = run(seed, threads=1, tracer=tracer)
        if not problem and checks.digest(wl, run.out) != plain:
            problem = "traced output differs from the untraced output"
        run.record(wall, problem)
        summary = tracing.summarize(tracer.spans)
        summary["bytes_written"] = 0 if problem else checks.bytes_written(wl, run.out)
        traced.append(summary)
        spans = tracer.spans
        gap = abs(sum(summary["layer_self"].values()) - summary["wall"])
        if gap > 1e-6:
            problems.append(f"layer self times miss the traced wall by {gap:.3g} s")
        run_counts = {k: (v["calls"], v["size"]) for k, v in summary["by_name"].items()}
        run_counts["window_redraws"] = summary["window_redraws"]

        if wl.pooled_records:
            serial = checks.records(wl, run.out)
            counter = tracing.PoolCounter()
            with counter.installed():
                wall, problem = run(seed)
            if not problem and checks.records(wl, run.out) != serial:
                problem = "pooled records differ from the serial records"
            run.record(wall, problem)
            pooled.append(wall)
            run_counts["pools"] = (counter.pools, counter.tasks)
        counts.append(run_counts)
        if time.perf_counter() - start >= seconds and len(traced) >= 2:
            break

    if any(c != counts[0] for c in counts):
        problems.append("traced runs gave different counts")
    after = tracing.snapshot()
    if any(after[k] is not v for k, v in before.items()):
        problems.append("a traced name was not restored")

    med = statistics.median
    chosen = sorted(traced, key=lambda s: s["wall"])[(len(traced) - 1) // 2]
    wall = chosen["wall"]
    layer_self = chosen["layer_self"]

    def get(name: str, key: str):
        return chosen["by_name"].get(name, {"calls": 0, "size": 0, "self_s": 0.0})[key]

    pools, tasks = counts[0].get("pools", (0, 0))
    metrics = {
        "model.draw_sample.calls": get("model.draw_sample", "calls"),
        "model.draw_sample.points": get("model.draw_sample", "size"),
        "model.draw_sample.self_s": get("model.draw_sample", "self_s"),
        "model.quantile.self_s": get("model.quantile", "self_s"),
        "estimator.npmle_fit.calls": get("estimator.npmle_fit", "calls"),
        "estimator.npmle_fit.points": get("estimator.npmle_fit", "size"),
        "estimator.npmle_fit.self_s": get("estimator.npmle_fit", "self_s"),
        "estimator.inverse_process.self_s": get("estimator.inverse_process", "self_s"),
        "metrics.l1_error.calls": get("metrics.l1_error", "calls"),
        "metrics.l1_error.self_s": get("metrics.l1_error", "self_s"),
        "limits.sample_limit_batch.self_s": get("limits.sample_limit_batch", "self_s"),
        "limits.chernoff_abs_mean.self_s": get("limits.chernoff_abs_mean", "self_s"),
        "limits.chernoff_cov_integral.self_s": get("limits.chernoff_cov_integral", "self_s"),
        "limits.brownian_paths.calls": get("limits.brownian_paths", "calls"),
        "limits.brownian_paths.normals": get("limits.brownian_paths", "size"),
        "limits.brownian_paths.self_s": get("limits.brownian_paths", "self_s"),
        "limits.isotonic_regression.calls": get("limits.isotonic_regression", "calls"),
        "limits.isotonic_regression.self_s": get("limits.isotonic_regression", "self_s"),
        "limits.window_redraws": chosen["window_redraws"],
        "experiments.self_s": layer_self["experiments"],
        "experiments.pool_spawns": pools,
        "experiments.tasks": tasks,
        # traced serial wall over (workers x untraced pooled wall); 0 without a pool
        "experiments.parallel_efficiency": (
            wall / (wl.steps[0].threads * med(pooled)) if pooled else 0.0
        ),
        "cli.self_s": layer_self["cli"],
        "cli.bytes_written": chosen["bytes_written"],
        "streams.stream.calls": get("streams.stream", "calls"),
        "streams.stream.self_s": get("streams.stream", "self_s"),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - med(untraced),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.share"] = layer_self[layer] / wall
    metrics.update(probes.run(seed))

    trace_dir = run.work / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / "spans.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "size"], "spans": spans})
    )
    (trace_dir / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True))
    return {"metrics": metrics, "trace_problems": problems}


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, scale = argv
    seed, seconds = int(seed), float(seconds)

    from monotone_wfi import cli

    wl = workloads.get(name, scale)
    work = Path(".bench_out") / name
    for i, step in enumerate(wl.steps):
        text = (work / "configs" / f"{i}.cfg").read_text(encoding="utf-8")
        cli.parse_config_text(step.command, text)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import json
    import platform
    import resource

    import numpy
    import scipy

    run = Runner(cli, wl, work)
    if mode == "run":
        result = run_mode(run, seed, seconds, scale)
    else:
        result = trace_mode(run, seed, seconds)
    result["runs"] = run.runs
    result["versions"] = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    # the workload process's own peak plus its largest pool worker's peak (KiB)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + workers) / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
