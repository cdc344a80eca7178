"""Command-line front end.

Configuration lives in a flat ``key = value`` text file; ``#`` starts a
comment, keys are dotted, unknown keys are rejected, and every key can
be overridden with ``--set key=value``.  ``emit-config`` prints the
canonical default file for a command, and emit -> parse -> emit is a
fixed point.

Exit codes: 0 success, 2 input or validation error (unreadable files
included), 3 numerical failure (quadrature, grid escape or hull
certificate), 4 acceptance-check failure under --check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import svgplot
from .experiments import (
    AuditConfig,
    StudyConfig,
    StudyResult,
    _g17,
    check_rate_study,
    run_consistency_study,
    run_limit_comparison,
    run_lower_bound_audit,
    run_rate_study,
    run_tail_bound_probe,
)
from .estimator import HullCertificateError, npmle_fit
from .limits import (
    DEFAULT_TWO_SIDED_GRID,
    GridEscapeError,
    PathGrid,
    chernoff_abs_mean,
    chernoff_abs_mean_mc,
    chernoff_cov_integral,
    law_grid,
    sample_limit_batch,
)
from .metrics import QuadratureError
from .model import FeatureLaw, LinkSpec, Scenario, sample_from_csv_text

__all__ = ["main", "ConfigError", "parse_config_text", "emit_config_text"]

ENV_SEED = "MONOTONE_WFI_SEED"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_CHECK = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: key -> (type tag, default)
# type tags: int, float, ofloat (optional float), str, ints, floats

_SCENARIO_KEYS = {
    "scenario.link": ("str", "logistic"),
    "scenario.beta": ("int", 1),
    "scenario.link_params": ("floats", ()),
    "scenario.impact_scale": ("float", 1.0),
    "scenario.impact_exponent": ("float", 0.25),
    "law.kind": ("str", "uniform"),
    "law.half_width": ("float", 1.0),
    "law.params": ("floats", ()),
}

_COMMON_KEYS = {
    "seed": ("int", 20260808),
    "threads": ("int", 1),
    "out": ("str", "out"),
}

# none: the law's own value (limits.law_grid)
_GRID_KEYS = {
    "grid.half_width": ("ofloat", None),
    "grid.step": ("ofloat", None),
}

SCHEMAS: dict[str, dict[str, tuple[str, object]]] = {
    "rate-study": {
        **_COMMON_KEYS,
        **_SCENARIO_KEYS,
        "study.gammas": ("floats", (0.0, 0.25, 0.8)),
        "study.n_list": ("ints", (512, 1024, 2048, 4096, 8192, 16384, 32768)),
        "study.replicates": ("int", 400),
        "study.x0": ("float", 0.0),
        "study.centering_draws": ("int", 0),
    },
    "limit-compare": {
        **_COMMON_KEYS,
        **_SCENARIO_KEYS,
        "study.regime": ("str", "slow_pointwise"),
        "study.n_list": ("ints", (20000,)),
        "study.replicates": ("int", 2000),
        "study.x0": ("float", 0.0),
        "study.limit_draws": ("int", 50000),
    },
    "lower-bound-audit": {
        **_COMMON_KEYS,
        "law.kind": ("str", "uniform"),
        "law.half_width": ("float", 1.0),
        "law.params": ("floats", ()),
        "audit.x0": ("float", 0.0),
        "audit.n_fast": ("int", 400),
        "audit.delta_fast": ("float", 0.001),
        "audit.n_slow": ("int", 10000),
        "audit.delta_slow": ("float", 0.1),
        "audit.c_fast": ("ofloat", None),
        "audit.c_slow": ("ofloat", None),
        "audit.c_cube": ("ofloat", None),
        "audit.quad_tol": ("float", 1e-8),
    },
    "tail-probe": {
        **_COMMON_KEYS,
        **_SCENARIO_KEYS,
        "study.n_list": ("ints", (512, 2048, 8192, 32768)),
        "study.replicates": ("int", 400),
        "study.x0": ("float", 0.0),
        "study.probe_xs": ("floats", (0.05, 0.1, 0.2)),
    },
    "consistency": {
        **_COMMON_KEYS,
        **_SCENARIO_KEYS,
        "study.n_list": ("ints", (512, 1024, 2048, 4096, 8192, 16384, 32768)),
        "study.replicates": ("int", 200),
        "study.hellinger_ns": ("ints", (400, 6400)),
        "study.sup_gammas": ("floats", (0.25, 0.8)),
    },
    "simulate-limit": {
        **_COMMON_KEYS,
        **_SCENARIO_KEYS,
        **_GRID_KEYS,
        "limit.law_tag": ("str", "scaled_chernoff"),
        "limit.draws": ("int", 1000),
        "limit.x0": ("float", 0.0),
        "limit.c": ("float", 1.0),
    },
    "constants": {
        **_COMMON_KEYS,
        **_GRID_KEYS,
        "constants.abs_mean_draws": ("int", 200000),
        "constants.cov_draws": ("int", 20000),
        "constants.a_max": ("float", 4.0),
        "constants.a_step": ("float", 0.25),
    },
}


def _parse_value(tag: str, raw: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "ofloat":
            return None if raw.lower() in ("", "none") else float(raw)
        if tag == "str":
            return raw
        if tag == "ints":
            return tuple(int(p) for p in raw.split(",") if p.strip() != "")
        return tuple(float(p) for p in raw.split(",") if p.strip() != "")  # floats
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r} as {tag}: {exc}") from None


def _emit_value(tag: str, value) -> str:
    if tag in ("int", "str"):
        return str(value)
    if tag == "float":
        return repr(float(value))
    if tag == "ofloat":
        return "none" if value is None else repr(float(value))
    if tag == "ints":
        return ",".join(str(int(v)) for v in value)
    return ",".join(repr(float(v)) for v in value)  # floats


def _config_entries(command: str, text: str) -> dict:
    """The keys a ``key = value`` file sets, checked against the command's schema."""
    schema = SCHEMAS[command]
    given = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for {command}")
        given[key] = _parse_value(schema[key][0], raw)
    return given


def parse_config_text(command: str, text: str) -> dict:
    """Parse a ``key = value`` file against the command's schema."""
    return {**{k: v for k, (_, v) in SCHEMAS[command].items()}, **_config_entries(command, text)}


def emit_config_text(command: str, cfg: dict | None = None) -> str:
    """Canonical config text (sorted keys); emit(parse(emit())) is emit()."""
    schema = SCHEMAS[command]
    cfg = cfg or {k: v for k, (_, v) in schema.items()}
    lines = [f"# monotone-wfi {command} configuration"]
    for key in sorted(schema):
        lines.append(f"{key} = {_emit_value(schema[key][0], cfg[key])}")
    return "\n".join(lines) + "\n"


def _apply_overrides(command: str, given: dict, args) -> dict:
    """The schema defaults, ``MONOTONE_WFI_SEED`` for the default seed, then
    the config file's keys ``given``, ``--set`` and the flags, each over the last."""
    schema = SCHEMAS[command]
    cfg = {k: v for k, (_, v) in schema.items()}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from None
    cfg.update(given)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for {command}")
        cfg[key] = _parse_value(schema[key][0], raw)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    if args.out is not None:
        cfg["out"] = args.out
    if cfg["seed"] < 0:  # numpy's seed sequences take no negative entropy
        raise ConfigError(f"seed must be nonnegative, got {cfg['seed']}")
    if cfg["threads"] < 0:
        raise ConfigError(f"threads must be 0 (one per core) or positive, got {cfg['threads']}")
    return cfg


def _keys_under(cfg: dict, prefix: str) -> dict:
    """The values of the keys ``<prefix>.<name>``, by ``name``."""
    return {k[len(prefix) + 1 :]: v for k, v in cfg.items() if k.startswith(prefix + ".")}


def _build_law(cfg: dict) -> FeatureLaw:
    return FeatureLaw(cfg["law.kind"], cfg["law.half_width"], tuple(cfg["law.params"]))


def _build_scenario(cfg: dict) -> Scenario:
    link = LinkSpec(
        cfg["scenario.link"], cfg["scenario.beta"], tuple(cfg["scenario.link_params"])
    )
    return Scenario(
        link,
        _build_law(cfg),
        cfg["scenario.impact_scale"],
        cfg["scenario.impact_exponent"],
        cfg["scenario.beta"],
    )


def _build_grid(cfg: dict, grid: PathGrid | None, what: str) -> PathGrid | None:
    """``grid`` with the grid keys that are set laid over it; ``None`` takes no key."""
    given = {k: v for k, v in _keys_under(cfg, "grid").items() if v is not None}
    if given and grid is None:
        raise ConfigError(f"{what} is drawn exactly and takes no grid")
    return replace(grid, **given) if given else grid


def _study_config(cfg: dict, scenario: Scenario, **own_fields) -> StudyConfig:
    """The keys every study shares, plus the command's own fields."""
    return StudyConfig(
        scenario,
        cfg["study.n_list"],
        cfg["study.replicates"],
        seed_base=cfg["seed"],
        threads=cfg["threads"],
        **own_fields,
    )


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_manifest(path: Path, command: str, cfg: dict, manifest: dict) -> None:
    canonical = emit_config_text(command, cfg)
    payload = {
        "command": command,
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.items()},
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        **manifest,
    }
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_study(cfg: dict, command: str, res: StudyResult) -> Path:
    """Write the study's records CSV and manifest; return the output directory."""
    out = _out_dir(cfg)
    stem = command.replace("-", "_")
    _write_text(out / f"{stem}.csv", res.to_csv_text())
    _write_manifest(out / f"{stem}.manifest.json", command, cfg, res.manifest)
    return out


def _check_exit(args, res: StudyResult) -> int:
    if args.check and not res.passed:
        print("acceptance check failed", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands


def _cmd_fit(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        sample = sample_from_csv_text(text)
    except ValueError as exc:
        print(f"fit: {exc}", file=sys.stderr)
        return EXIT_INPUT
    fit = npmle_fit(sample)
    prefix = Path(args.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    rows = ["jump_x,value"]
    rows += [f"{_g17(x)},{_g17(v)}" for x, v in zip(fit.jump_xs, fit.values)]
    _write_text(Path(f"{prefix}.steps.csv"), "\n".join(rows) + "\n")
    meta = {
        "n": sample.n,
        "distinct_x": int(sample.xs.size),
        "extension": "right-continuous step: 0 left of the smallest x, "
        "constant at and beyond the largest x",
    }
    _write_text(
        Path(f"{prefix}.meta.json"), json.dumps(meta, sort_keys=True, indent=2) + "\n"
    )
    return EXIT_OK


def _cmd_simulate_limit(cfg: dict, args) -> int:
    scn = _build_scenario(cfg)
    tag = cfg["limit.law_tag"]
    batch = sample_limit_batch(
        tag,
        cfg["limit.draws"],
        cfg["seed"],
        link=scn.link,
        law=scn.law,
        x0=cfg["limit.x0"],
        beta=cfg["scenario.beta"],
        c=cfg["limit.c"],
        grid=_build_grid(cfg, law_grid(tag, cfg["scenario.beta"]), tag),
    )
    out = _out_dir(cfg)
    _write_text(
        out / "limit_batch.csv",
        "draw\n" + "\n".join(_g17(d) for d in batch.draws) + "\n",
    )
    _write_manifest(
        out / "limit_batch.meta.json",
        "simulate-limit",
        cfg,
        {
            "law_tag": tag,
            "draws": int(batch.draws.size),
            "grid": None if batch.grid is None else asdict(batch.grid),
            "params": batch.params,
            "seed": cfg["seed"],
        },
    )
    return EXIT_OK


def _cmd_rate_study(cfg: dict, args) -> int:
    gammas = cfg["study.gammas"]
    if not gammas or len(set(gammas)) < len(gammas):
        raise ConfigError(f"study.gammas must be nonempty and without repeats, got {gammas}")
    scn = _build_scenario(cfg)
    # every gamma's config is checked before the first replicate is drawn
    studies = [
        _study_config(
            cfg,
            replace(scn, impact_exponent=gamma),
            x0=cfg["study.x0"],
            centering_draws=cfg["study.centering_draws"],
        )
        for gamma in gammas
    ]
    for study in studies:
        check_rate_study(study)
    results = [run_rate_study(study) for study in studies]
    res = StudyResult(
        results[0].columns,
        [rec for r in results for rec in r.records],
        {
            "per_gamma": {repr(float(g)): r.manifest for g, r in zip(gammas, results)},
            "flags": {f"gamma_{g}": r.passed for g, r in zip(gammas, results)},
        },
    )
    out = _write_study(cfg, "rate-study", res)
    notes = tuple(
        f"gamma={g:g}: slope pw {r.manifest['slope_pointwise']:.3f}, "
        f"L1 {r.manifest['slope_l1']:.3f} (target {r.manifest['target_slope']:.3f})"
        for g, r in zip(gammas, results)
    )
    for part, title in (("pointwise", "Pointwise"), ("l1", "Integrated")):
        svgplot.line_plot(
            out / f"rate_study.{part}.svg",
            [
                {
                    "xs": list(cfg["study.n_list"]),
                    "ys": r.manifest[f"medians_{part}"],
                    "label": f"gamma={g:g}",
                }
                for g, r in zip(gammas, results)
            ],
            title=f"{title} error medians",
            xlabel="n",
            ylabel="median error",
            logx=True,
            logy=True,
            annotations=notes,
        )
    return _check_exit(args, res)


def _cmd_limit_compare(cfg: dict, args) -> int:
    study = _study_config(
        cfg,
        _build_scenario(cfg),
        x0=cfg["study.x0"],
        regime=cfg["study.regime"],
        limit_draws=cfg["study.limit_draws"],
    )
    res = run_limit_comparison(study)
    out = _write_study(cfg, "limit-compare", res)
    n_big = cfg["study.n_list"][-1]
    svgplot.cdf_overlay(
        out / "limit_compare.cdf.svg",
        [res.extras["finite"][n_big], res.extras["limit"][n_big]],
        [f"finite n={n_big}", "limit law"],
        title=f"{cfg['study.regime']}: KS={res.manifest['ks'][str(n_big)]:.4f}",
    )
    return _check_exit(args, res)


def _cmd_lower_bound_audit(cfg: dict, args) -> int:
    # every audit.* key is an AuditConfig field of the same name
    audit = AuditConfig(_build_law(cfg), **_keys_under(cfg, "audit"))
    res = run_lower_bound_audit(audit)
    out = _write_study(cfg, "lower-bound-audit", res)
    pair = res.extras["slow_pair"]
    cube = res.extras["cube"]
    grid = np.linspace(-audit.law.half_width, audit.law.half_width, 513)
    bits = np.zeros(cube.m, dtype=int)
    bits[:: 2] = 1
    svgplot.line_plot(
        out / "lower_bound_audit.hypotheses.svg",
        [
            {"xs": grid.tolist(), "ys": pair.upper(grid).tolist(), "label": "pair upper"},
            {"xs": grid.tolist(), "ys": pair.lower(grid).tolist(), "label": "pair lower"},
            {
                "xs": grid.tolist(),
                "ys": cube.function(bits)(grid).tolist(),
                "label": "cube (alternating bits)",
                "dashed": True,
            },
        ],
        title="Lower-bound hypotheses",
        xlabel="x",
        ylabel="value",
    )
    return _check_exit(args, res)


def _cmd_tail_probe(cfg: dict, args) -> int:
    study = _study_config(
        cfg, _build_scenario(cfg), x0=cfg["study.x0"], probe_xs=cfg["study.probe_xs"]
    )
    res = run_tail_bound_probe(study)
    out = _write_study(cfg, "tail-probe", res)
    svgplot.line_plot(
        out / "tail_probe.medians.svg",
        [
            {
                "xs": list(cfg["study.n_list"]),
                "ys": res.manifest["medians"],
                "label": "median deviation",
            }
        ],
        title="Inverse-process deviation medians",
        xlabel="n",
        ylabel="median |dev|",
        logx=True,
        logy=True,
        annotations=(
            f"slope {res.manifest['slope']:.3f} (target {res.manifest['target_slope']:.3f})",
        ),
    )
    return _check_exit(args, res)


def _cmd_consistency(cfg: dict, args) -> int:
    res = run_consistency_study(
        _study_config(cfg, _build_scenario(cfg)),
        hellinger_ns=tuple(cfg["study.hellinger_ns"]),
        sup_gammas=tuple(cfg["study.sup_gammas"]),
    )
    _write_study(cfg, "consistency", res)
    return _check_exit(args, res)


def _cmd_constants(cfg: dict, args) -> int:
    # E|Z| is exact; the grid keys size the covariance integral's paths only
    grid = _build_grid(cfg, DEFAULT_TWO_SIDED_GRID, "constants")
    exact = chernoff_abs_mean()
    mc, mc_se = chernoff_abs_mean_mc(cfg["constants.abs_mean_draws"], cfg["seed"])
    cov = chernoff_cov_integral(
        grid, cfg["constants.a_max"], cfg["constants.a_step"], cfg["constants.cov_draws"],
        cfg["seed"] + 1,
    )
    res = StudyResult(
        ("name", "estimate", "se"),
        [("chernoff_abs_mean", exact, 0.0), ("cov_integral", cov.estimate, cov.se)],
        {
            "chernoff_abs_mean": exact,
            "chernoff_abs_mean_mc": mc,
            "chernoff_abs_mean_mc_se": mc_se,
            "cov_integral": cov.estimate,
            "cov_integral_se": cov.se,
            "cov_tail": cov.tail_cov,
            "cov_tail_se": cov.tail_se,
            "flags": {
                "abs_mean_mc_within_4se": abs(mc - exact) <= 4.0 * mc_se,
                "tail_within_2se": abs(cov.tail_cov) <= 2.0 * cov.tail_se,
            },
        },
    )
    _write_study(cfg, "constants", res)
    return _check_exit(args, res)


_COMMANDS = {
    "simulate-limit": _cmd_simulate_limit,
    "rate-study": _cmd_rate_study,
    "limit-compare": _cmd_limit_compare,
    "lower-bound-audit": _cmd_lower_bound_audit,
    "tail-probe": _cmd_tail_probe,
    "consistency": _cmd_consistency,
    "constants": _cmd_constants,
}


@cache  # built once per process; every later main() call reuses it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotone-wfi",
        description="Monotone binary regression: estimator, limit laws, MC studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the monotone MLE to a CSV of (x, y) rows")
    fit.add_argument("--input", required=True)
    fit.add_argument("--output-prefix", required=True)

    emit = sub.add_parser("emit-config", help="print the default config for a command")
    emit.add_argument("target", choices=sorted(SCHEMAS))
    emit.add_argument("--out", default=None)

    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE")
        p.add_argument("--check", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "emit-config":
            text = emit_config_text(args.target)
            if args.out:
                _write_text(Path(args.out), text)
            else:
                sys.stdout.write(text)
            return EXIT_OK
        text = ""
        if args.config:
            text = Path(args.config).read_text(encoding="utf-8")
        cfg = _apply_overrides(args.command, _config_entries(args.command, text), args)
        return _COMMANDS[args.command](cfg, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, GridEscapeError, HullCertificateError) as exc:
        print(f"{args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
