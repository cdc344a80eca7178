"""Self-checks of the benchmark itself.

Run from the root of a checkout::

    python3 benchmark/selfcheck.py

Checks, at the tiny ``smoke`` sizes:

* each workload runs untraced and traced, correctly and with no failed run;
* the metrics printed are exactly the ones ``BENCHMARK.json`` names, with
  its units, and every name uses only letters, digits, ``_``, ``.``, ``-``;
* two traced runs at one seed give exactly equal counts;
* the traced names are the original objects again after tracing;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the benchmark exits nonzero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COUNT_SUFFIXES = (".calls", ".points", ".normals", ".tasks", ".pool_spawns",
                  ".window_redraws", ".bytes_written")


def _bench(args: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "benchmark" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 and proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            check(bool(NAME.match(m["name"])), f"metric name {m['name']!r} is well formed")

    for name in workloads.NAMES:
        common = ["--workload", name, "--seed", "11", "--seconds", "1", "--scale", "smoke"]
        code, plain = _bench(common + ["--trace", "0"], root)
        check(code == 0 and plain is not None and plain["correct"] and plain["failed"] == 0,
              f"{name}: untraced smoke run is correct")
        if plain:
            got = {k: v["unit"] for k, v in plain["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            check(got == want, f"{name}: end-to-end metrics and units match BENCHMARK.json")
        traced = []
        for _ in range(2):
            code, res = _bench(common + ["--trace", "1"], root)
            check(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
                  f"{name}: traced smoke run is correct (counts repeat, names restored)")
            if res:
                traced.append(res["metrics"])
        if traced:
            got = {k: v["unit"] for k, v in traced[0].items()}
            want = {m["name"]: m["unit"] for m in spec["per_layer"]}
            check(got == want, f"{name}: per-layer metrics and units match BENCHMARK.json")
        if len(traced) == 2:
            counts = [
                {k: v["value"] for k, v in t.items() if k.endswith(COUNT_SUFFIXES)}
                for t in traced
            ]
            check(counts[0] == counts[1], f"{name}: two traced runs give equal counts")

    import tracing

    sys.path.insert(0, str(root / "src"))
    before = tracing.snapshot()
    with tracing.installed(tracing.Tracer()), tracing.PoolCounter().installed():
        wrapped = tracing.snapshot()
    after = tracing.snapshot()
    check(all(wrapped[k] is not v for k, v in before.items()),
          "every traced name is wrapped while tracing")
    check(all(after[k] is v for k, v in before.items()),
          "every traced name is the original object after tracing")

    bare = root / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, res = _bench(["--workload", workloads.NAMES[0], "--seconds", "1"], bare)
    check(code != 0 and res is None, "without the program the benchmark exits nonzero")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
