"""Benchmark of the monotone-wfi study commands.

Run from the root of a checkout::

    python3 benchmark/run.py --workload rate_elbow --seed 20260808 --seconds 30 --trace 0

Each invocation starts the workload in one fresh interpreter (``child.py``)
with ``src`` on ``PYTHONPATH`` and drives it through the public
``monotone_wfi.cli.main`` entry point.  ``--trace 0`` times whole workload
runs for ``--seconds`` and prints the end-to-end metrics; ``--trace 1``
runs the workload untraced and traced side by side, wraps each layer's
public names from outside (``tracing.py``), times the layer probes
(``probes.py``) and prints the per-layer metrics.  Every run's outputs are
checked (``checks.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The seed reaches the program only through ``--seed``.  Outputs, config
files, spans and the run record go under ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

SETUP_PROBES = 6  # extra fresh interpreters that only set up; the run adds one
DEADLINE_S = 170.0


def _spawn(mode: str, args, env, deadline: float) -> tuple[float, dict | None, str]:
    """Start one child; return (set-up seconds, its JSON result, problem)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve().parent / "child.py"),
        mode, args.workload, str(args.seed), str(args.seconds), args.scale,
    ]
    t0 = time.perf_counter()
    # its own session, so that a kill also reaches any pool workers it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return 0.0, None, f"{mode} child timed out"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if first.strip() != "ready":
        return 0.0, None, f"{mode} child failed before set-up ended (exit {proc.returncode})"
    if proc.returncode != 0:
        return setup, None, f"{mode} child exited {proc.returncode}"
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None), ""


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(root: Path, args) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "pool_workers": workloads.pool_threads(),
        "cpu": _cpu_model(),
        "commit": _commit(root),
        "src_sha256": src.hexdigest(),
    }


def _tail(walls: list[float]) -> tuple[float, float]:
    """(highest percentile with at least ten runs beyond it, its value)."""
    ordered = sorted(walls)
    if len(ordered) <= 10:  # too few runs for such a percentile: report the slowest
        return 100.0, ordered[-1]
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes, for the benchmark's self-checks")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "monotone_wfi" / "cli.py").is_file():
        print("run from the root of a monotone-wfi checkout (no src/monotone_wfi)",
              file=sys.stderr)
        return 2
    wl = workloads.get(args.workload, args.scale)
    work = root / ".bench_out" / wl.name
    (work / "configs").mkdir(parents=True, exist_ok=True)
    for i, step in enumerate(wl.steps):
        (work / "configs" / f"{i}.cfg").write_text(workloads.config_text(step))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    def probe_setup() -> bool:
        setup, _, problem = _spawn("setup", args, env, deadline)
        if problem:
            print(problem, file=sys.stderr)
        setups.append(setup)
        return not problem

    # set-up probes before and after the run, so that a slow spell of the
    # machine on either side weighs less in their median
    setups: list[float] = []
    probes = 0 if args.trace else SETUP_PROBES // 2
    if not all(probe_setup() for _ in range(probes)):
        return 1
    setup, result, problem = _spawn("trace" if args.trace else "run", args, env, deadline)
    if problem or result is None:
        print(problem or "child printed no result", file=sys.stderr)
        return 1
    setups.append(setup)
    if not all(probe_setup() for _ in range(probes)):
        return 1

    record = {**run_record(root, args), **result["versions"]}
    runs = result["runs"]
    problems = [r["problem"] for r in runs if r["problem"]]
    attempted = len(runs)
    for extra in ("serial", "reference"):
        if extra in result:
            attempted += 1
            if result[extra]["problem"]:
                problems.append(f"{extra}: {result[extra]['problem']}")
    problems += result.get("trace_problems", [])
    failed = len(problems)
    walls = [r["wall"] for r in runs if not r["problem"]]

    lines = [f"run record: {json.dumps(record, sort_keys=True)}"]
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in result["metrics"].items()}
        lines.append(f"per-layer numbers and spans written under {work / 'trace'}")
    else:
        if not walls:
            print("no run succeeded: " + "; ".join(dict.fromkeys(problems)), file=sys.stderr)
            return 1
        pct, tail = _tail(walls)
        metrics = {
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "run_s_tail": {"value": tail, "unit": "s"},
            "units_per_s": {"value": wl.units / statistics.median(walls), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        ref = result["reference"]
        lines += [
            f"runs: {len(walls)} timed, each {wl.units} {wl.unit}",
            f"run_s_tail: p{pct:.1f} of {len(walls)} runs",
            f"setup_s: median of {len(setups)} fresh interpreters",
            f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4g}",
            "reference digest at seed {}: {}".format(
                workloads.REFERENCE_SEED,
                {True: "matches", False: "differs (not a failure)",
                 None: "no reference recorded"}[ref["match"]],
            ),
        ]
        if "serial" in result:
            same = not result["serial"]["problem"]
            lines.append(f"pooled records identical to a serial run: {same}")
    for problem in problems:
        lines.append(f"FAILED: {problem}")
    for name, m in metrics.items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    (work / "result.json").write_text(json.dumps(
        {"record": record, "problems": problems, "metrics": metrics, "walls": walls,
         "reference": result.get("reference")}, indent=2, sort_keys=True
    ))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", ".parallel_efficiency")):
        return "ratio"
    if name.endswith(".bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
