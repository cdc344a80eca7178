"""Command-line surface: config handling, commands, files, exit codes."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from monotone_wfi import cli, estimator, experiments, limits, svgplot
from monotone_wfi.cli import (
    SCHEMAS,
    ConfigError,
    emit_config_text,
    main,
    parse_config_text,
)
from monotone_wfi.estimator import StepEstimate


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _step_from_csv(path):
    rows = _read(path).splitlines()[1:]
    if not rows:
        return StepEstimate(np.array([]), np.array([]))
    parts = np.array([[float(c) for c in row.split(",")] for row in rows])
    return StepEstimate(parts[:, 0], parts[:, 1])


class TestConfig:
    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_emit_parse_emit_fixed_point(self, command):
        text = emit_config_text(command)
        assert "tolerances." not in text  # the --check tolerances are not config
        cfg = parse_config_text(command, text)
        assert emit_config_text(command, cfg) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("rate-study", "study.bogus = 3\n")

    def test_bad_line_rejected(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("rate-study", "# fine\nnot a pair\n")

    def test_comments_and_overrides(self):
        cfg = parse_config_text("rate-study", "seed = 5  # inline comment\n")
        assert cfg["seed"] == 5
        assert cfg["scenario.link"] == "logistic"

    def test_value_parsing(self):
        cfg = parse_config_text(
            "rate-study", "study.n_list = 64,128\nstudy.gammas = 0.1,0.9\n"
        )
        assert cfg["study.n_list"] == (64, 128)
        assert cfg["study.gammas"] == (0.1, 0.9)
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("rate-study", "seed = pi\n")

    def test_set_without_equals_exits_2(self, tmp_path, capsys):
        code = main(["simulate-limit", "--out", str(tmp_path), "--set", "limit.draws"])
        assert code == 2
        assert "--set needs key=value, got 'limit.draws'" in capsys.readouterr().err


class TestFitCommand:
    def test_worked_example(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write(data, "x,y\n1,0\n2,1\n3,0\n4,1\n")
        prefix = tmp_path / "fit"
        assert main(["fit", "--input", str(data), "--output-prefix", str(prefix)]) == 0
        step = _step_from_csv(f"{prefix}.steps.csv")
        assert np.allclose(step(np.array([1.0, 2.0, 3.0, 4.0])), [0, 0.5, 0.5, 1.0])
        meta = json.loads(_read(f"{prefix}.meta.json"))
        assert meta["n"] == 4
        assert "right-continuous" in meta["extension"]

    def test_empty_sample(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        _write(data, "x,y\n")
        code = main(["fit", "--input", str(data), "--output-prefix", str(tmp_path / "o")])
        assert code == 2
        assert "empty sample" in capsys.readouterr().err

    def test_non_binary_label_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        _write(data, "x,y\n1,0\n2,0.7\n")
        code = main(["fit", "--input", str(data), "--output-prefix", str(tmp_path / "o")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_malformed_row_names_line(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        _write(data, "x,y\n1,0\noops\n")
        code = main(["fit", "--input", str(data), "--output-prefix", str(tmp_path / "o")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_x", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, capsys, bad_x):
        data = tmp_path / "bad.csv"
        _write(data, f"x,y\n1,0\n{bad_x},1\n")
        code = main(["fit", "--input", str(data), "--output-prefix", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "finite" in err

    def test_missing_input_exits_2_with_one_line(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["fit", "--input", str(missing), "--output-prefix", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "missing.csv" in err

    def test_over_large_sample_exits_2(self, tmp_path, capsys, monkeypatch):
        # a lowered bound stands in for a sample past n = isqrt(2**63 - 1)
        data = tmp_path / "d.csv"
        _write(data, "x,y\n1,0\n2,1\n3,0\n4,1\n")
        monkeypatch.setattr(estimator, "_MAX_N", 3)
        code = main(["fit", "--input", str(data), "--output-prefix", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "fit: the exact hull takes at most n=3 draws, got n=4\n"
        assert not (tmp_path / "o.steps.csv").exists()

    def test_header_required(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        _write(data, "a,b\n1,0\n")
        assert main(["fit", "--input", str(data), "--output-prefix", str(tmp_path / "o")]) == 2


class TestSimulateLimit:
    def test_deterministic_outputs(self, tmp_path):
        args = [
            "simulate-limit",
            "--out", str(tmp_path / "a"),
            "--seed", "42",
            "--set", "limit.draws=500",
        ]
        assert main(args) == 0
        first = _read(tmp_path / "a" / "limit_batch.csv")
        args[2] = str(tmp_path / "b")
        assert main(args) == 0
        assert _read(tmp_path / "b" / "limit_batch.csv") == first
        meta = json.loads(_read(tmp_path / "a" / "limit_batch.meta.json"))
        assert meta["law_tag"] == "scaled_chernoff"
        assert meta["draws"] == 500 and meta["grid"] is None

    def test_l1_fast_draws_nonnegative(self, tmp_path):
        code = main([
            "simulate-limit",
            "--out", str(tmp_path),
            "--set", "limit.law_tag=l1_fast_maxA",
            "--set", "limit.draws=400",
        ])
        assert code == 0
        draws = [float(v) for v in _read(tmp_path / "limit_batch.csv").splitlines()[1:]]
        assert len(draws) == 400 and all(v >= 0 for v in draws)
        assert json.loads(_read(tmp_path / "limit_batch.meta.json"))["grid"] is None

    def test_l1_fast_rejects_grid_keys(self, tmp_path, capsys):
        code = main([
            "simulate-limit",
            "--out", str(tmp_path),
            "--set", "limit.law_tag=l1_fast_maxA",
            "--set", "grid.half_width=1.0",
        ])
        assert code == 2
        assert "no grid" in capsys.readouterr().err
        assert not (tmp_path / "limit_batch.csv").exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_bad_draw_count_exits_2(self, tmp_path, capsys, count):
        code = main([
            "simulate-limit", "--out", str(tmp_path), "--set", f"limit.draws={count}",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "draws" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "limit_batch.csv").exists()

    def test_interior_point_violation(self, tmp_path, capsys):
        code = main([
            "simulate-limit",
            "--out", str(tmp_path),
            "--set", "limit.law_tag=boundary_gbc",
            "--set", "limit.x0=1.0",
            "--set", "grid.step=0.002",
        ])
        assert code == 2
        assert "interior" in capsys.readouterr().err

    @pytest.mark.parametrize("tag", ["scaled_chernoff", "slow_fbeta"])
    def test_exterior_x0_exits_2(self, tmp_path, capsys, tag):
        code = main([
            "simulate-limit", "--out", str(tmp_path),
            "--set", f"limit.law_tag={tag}", "--set", "limit.x0=2.0", "--set", "limit.draws=10",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "interior" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "limit_batch.csv").exists()

    def test_higher_beta_for_a_non_flat_link_exits_2(self, tmp_path, capsys):
        # an affine link is flat to no order; boundary_gbc drew a zero drift for it
        code = main([
            "simulate-limit", "--out", str(tmp_path),
            "--set", "limit.law_tag=boundary_gbc", "--set", "limit.draws=10",
            "--set", "scenario.link=affine", "--set", "scenario.link_params=0.4,0.2",
            "--set", "scenario.beta=3",
        ])
        assert code == 2
        assert "beta = 1" in capsys.readouterr().err
        assert not (tmp_path / "limit_batch.csv").exists()

    @pytest.mark.parametrize(
        "tag, key",
        [("l1_fast_maxA", "grid.step=0.002"), ("scaled_chernoff", "grid.step=0.002"),
         ("scaled_chernoff", "grid.half_width=8.0"), ("fast_w_slope", "grid.step=0.002"),
         ("fast_w_slope", "grid.half_width=4.0"), ("boundary_gbc", "grid.half_width=4.0")],
    )
    def test_grid_key_the_law_cannot_take_exits_2(self, tmp_path, capsys, tag, key):
        # an exact law takes no grid; the boundary law lives on [0, 1]
        code = main([
            "simulate-limit", "--out", str(tmp_path),
            "--set", f"limit.law_tag={tag}", "--set", key,
        ])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "limit_batch.csv").exists()

    def test_grid_keys_from_config_file(self, tmp_path):
        # a config file sets keys too; the law's own window fills the rest,
        # and "none" restores the law's own value
        cfg = tmp_path / "cfg"
        _write(cfg, "limit.law_tag = boundary_gbc\ngrid.step = 0.002  # coarse\n")
        assert main(["simulate-limit", "--config", str(cfg), "--out", str(tmp_path / "a"),
                     "--set", "limit.draws=5"]) == 0
        meta = json.loads(_read(tmp_path / "a" / "limit_batch.meta.json"))
        assert meta["grid"] == {"half_width": 1.0, "step": 0.002, "two_sided": False}
        assert main(["simulate-limit", "--config", str(cfg), "--out", str(tmp_path / "b"),
                     "--set", "limit.draws=5", "--set", "grid.step=none"]) == 0
        meta = json.loads(_read(tmp_path / "b" / "limit_batch.meta.json"))
        step = limits.LAW_GRIDS["boundary_gbc"].step
        assert meta["grid"] == {"half_width": 1.0, "step": step, "two_sided": False}

    def test_step_alone_keeps_the_law_window(self, tmp_path):
        # the half-width and sidedness that are not set come from the law itself
        assert main(["simulate-limit", "--out", str(tmp_path), "--set", "limit.draws=5",
                     "--set", "limit.law_tag=boundary_gbc", "--set", "grid.step=0.001"]) == 0
        meta = json.loads(_read(tmp_path / "limit_batch.meta.json"))
        assert meta["grid"] == {"half_width": 1.0, "step": 0.001, "two_sided": False}

    @pytest.mark.parametrize("command", ["simulate-limit", "constants"])
    def test_two_sided_is_not_a_key(self, tmp_path, capsys, command):
        # each law has exactly one valid sidedness, so there is no key for it
        assert main([command, "--out", str(tmp_path), "--set", "grid.two_sided=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'grid.two_sided'" in err and len(err.strip().splitlines()) == 1

    def test_unknown_tag(self, tmp_path, capsys):
        code = main([
            "simulate-limit", "--out", str(tmp_path), "--set", "limit.law_tag=bogus",
        ])
        assert code == 2

    def test_unknown_tag_message_names_the_tags(self, tmp_path, capsys):
        main(["simulate-limit", "--out", str(tmp_path), "--set", "limit.law_tag=bogus"])
        err = capsys.readouterr().err
        assert err == f"simulate-limit: unknown law tag 'bogus'; choose from {limits.LAW_TAGS}\n"
        assert not (tmp_path / "limit_batch.csv").exists()


class TestStudyCommands:
    @pytest.mark.parametrize("gammas", ["0.8", "0.8,0.25"])
    def test_rate_study_files_and_manifest(self, tmp_path, gammas):
        out = tmp_path / "rate"
        args = [
            "rate-study",
            "--out", str(out),
            "--seed", "7",
            "--set", f"study.gammas={gammas}",
            "--set", "study.n_list=64,128,256",
            "--set", "study.replicates=50",
        ]
        assert main(args) == 0
        lines = _read(out / "rate_study.csv").splitlines()
        assert lines[0] == "gamma,n,replicate,err_pointwise,err_l1"
        order = [float(g) for g in gammas.split(",")]
        assert len(lines) == 1 + len(order) * 3 * 50
        # one block of rows per gamma, in the configured order
        assert [float(row.split(",")[0]) for row in lines[1:]] == [g for g in order
                                                                   for _ in range(150)]
        manifest = json.loads(_read(out / "rate_study.manifest.json"))
        assert sorted(manifest["per_gamma"]) == sorted(repr(g) for g in order)
        assert manifest["per_gamma"]["0.8"]["target_slope"] == -0.5
        assert len(manifest["flags"]) == len(order)
        svg = _read(out / "rate_study.pointwise.svg")
        assert svg.startswith("<svg")
        assert "slope" in svg

    def test_rate_manifest_holds_the_plotted_statistics(self, tmp_path):
        # the medians and fitted slopes the figures show, at full precision
        out = tmp_path / "rate"
        assert main(["rate-study", "--out", str(out), "--seed", "7",
                     *SMOKE_RUNS["rate-study"]]) == 0
        entry = json.loads(_read(out / "rate_study.manifest.json"))["per_gamma"]["0.8"]
        rows = np.array([[float(c) for c in row.split(",")]
                         for row in _read(out / "rate_study.csv").splitlines()[1:]])
        ns = np.array([64.0, 128.0, 256.0])
        for col, part in ((3, "pointwise"), (4, "l1")):
            medians = [np.median(rows[rows[:, 1] == n, col]) for n in ns]
            assert entry[f"medians_{part}"] == medians
            slope, se = experiments.fit_loglog_slope(ns, np.array(medians))
            assert (entry[f"slope_{part}"], entry[f"slope_{part}_se"]) == (slope, se)
        note = f"slope pw {entry['slope_pointwise']:.3f}, L1 {entry['slope_l1']:.3f}"
        assert note in _read(out / "rate_study.pointwise.svg")

    def test_svg_reruns_byte_identical(self, tmp_path):
        outs = []
        for name in ("p", "q"):
            out = tmp_path / name
            main([
                "rate-study", "--out", str(out), "--seed", "7",
                "--set", "study.gammas=0.8",
                "--set", "study.n_list=64,128,256",
                "--set", "study.replicates=50",
            ])
            outs.append(_read(out / "rate_study.pointwise.svg"))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("xs, points", [
        ([1, 2, 3], "70.00,374.09 345.00,374.09 620.00,374.09"),
        ([2], "70.00,374.09"),
    ])
    def test_flat_series_plots_inside_the_frame(self, tmp_path, xs, points):
        # a flat range [v, v] widens to [v, v + 1]; y then takes a 5 % pad, so y = v sits 1/22 up
        path = tmp_path / "flat.svg"
        svgplot.line_plot(path, [{"xs": xs, "ys": [0.5] * len(xs), "label": "flat"}])
        assert f'<polyline points="{points}"' in _read(path)

    def test_lower_bound_audit_manifest(self, tmp_path):
        out = tmp_path / "audit"
        assert main(["lower-bound-audit", "--out", str(out), "--check"]) == 0
        manifest = json.loads(_read(out / "lower_bound_audit.manifest.json"))
        assert manifest["alpha"]["fast"] == pytest.approx(0.64)
        assert any("<= " in s and "< 2" in s for s in manifest["inequalities"])
        assert (out / "lower_bound_audit.hypotheses.svg").exists()

    def test_constants_command(self, tmp_path):
        out = tmp_path / "const"
        args = [
            "constants",
            "--out", str(out),
            "--seed", "5",
            "--set", "constants.abs_mean_draws=10000",
            "--set", "constants.cov_draws=500",
            "--set", "grid.step=0.04",
        ]
        assert main(args) == 0
        rows = _read(out / "constants.csv").splitlines()
        assert rows[0] == "name,estimate,se"
        names = [r.split(",")[0] for r in rows[1:]]
        assert names == ["chernoff_abs_mean", "cov_integral"]
        exact, cov = (r.split(",")[1:] for r in rows[1:])
        # E|Z| is exact; the abs_mean_draws size its Monte Carlo check
        assert float(exact[0]) == limits.chernoff_abs_mean() and float(exact[1]) == 0.0
        assert float(cov[0]) > 0 and float(cov[1]) > 0
        manifest = json.loads(_read(out / "constants.manifest.json"))
        mc, mc_se = manifest["chernoff_abs_mean_mc"], manifest["chernoff_abs_mean_mc_se"]
        assert manifest["flags"]["abs_mean_mc_within_4se"] == (abs(mc - float(exact[0])) <= 4 * mc_se)
        assert 0 < mc_se < 0.01

    def test_constants_check_mode(self, tmp_path, monkeypatch):
        # --check exits 4 exactly when a flag fails; here the covariance
        # integral's tail is made to sit far outside its standard error
        args = ["constants", "--check", "--seed", "5", "--set", "constants.abs_mean_draws=10000",
                "--set", "constants.cov_draws=500", "--set", "grid.step=0.04"]
        code = main([*args, "--out", str(tmp_path / "a")])
        flags = json.loads(_read(tmp_path / "a" / "constants.manifest.json"))["flags"]
        assert set(flags) == {"abs_mean_mc_within_4se", "tail_within_2se"}
        assert code == (0 if all(flags.values()) else 4)
        real = cli.chernoff_cov_integral

        def far_tail(*a, **kw):
            res = real(*a, **kw)
            curve = res.cov_curve.copy()
            curve[-1] = 10.0 * res.tail_se + 1.0
            return limits.CovIntegral(res.estimate, res.se, res.a_values, curve, res.cov_se)

        monkeypatch.setattr(cli, "chernoff_cov_integral", far_tail)
        assert main([*args, "--out", str(tmp_path / "b")]) == 4
        assert main([args[0], *args[2:], "--out", str(tmp_path / "c")]) == 0  # no --check

    def test_check_mode_failure_exit(self, tmp_path, monkeypatch):
        # errors that grow with n fail the fixed slope tolerance: exit 4 under --check only
        monkeypatch.setattr(experiments, "fit_loglog_slope", lambda ns, errors: (1.0, 0.0))
        args = ["rate-study", "--check", "--seed", "7", *SMOKE_RUNS["rate-study"]]
        assert main([*args, "--out", str(tmp_path / "a")]) == 4
        manifest = json.loads(_read(tmp_path / "a" / "rate_study.manifest.json"))
        assert manifest["flags"] == {"gamma_0.8": False}
        assert main([args[0], *args[2:], "--out", str(tmp_path / "b")]) == 0  # no --check

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MONOTONE_WFI_SEED", "999")
        out = tmp_path / "env"
        main([
            "simulate-limit", "--out", str(out),
            "--set", "limit.draws=50",
        ])
        meta = json.loads(_read(out / "limit_batch.meta.json"))
        assert meta["seed"] == 999

    def test_env_seed_never_overrides_an_explicit_seed(self, tmp_path, monkeypatch):
        # the variable replaces the schema default only, even where a seed equals it
        monkeypatch.setenv("MONOTONE_WFI_SEED", "5")
        cfg_path = tmp_path / "cfg"
        _write(cfg_path, "seed = 20260808\nlimit.draws = 50\n")
        runs = {
            "set": ["--set", "seed=20260808", "--set", "limit.draws=50"],
            "file": ["--config", str(cfg_path)],
        }
        for name, extra in runs.items():
            assert main(["simulate-limit", "--out", str(tmp_path / name), *extra]) == 0
            meta = json.loads(_read(tmp_path / name / "limit_batch.meta.json"))
            assert meta["seed"] == 20260808, name

    def test_env_seed_not_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MONOTONE_WFI_SEED", "abc")
        code = main(["simulate-limit", "--out", str(tmp_path / "o"), "--set", "limit.draws=50"])
        assert code == 2
        assert "MONOTONE_WFI_SEED" in capsys.readouterr().err

    def test_emit_config_command(self, capsys):
        assert main(["emit-config", "rate-study"]) == 0
        text = capsys.readouterr().out
        assert "study.gammas" in text
        assert parse_config_text("rate-study", text)["study.replicates"] == 400

    def test_emit_config_to_a_file(self, tmp_path, capsys):
        out = tmp_path / "rate.cfg"
        assert main(["emit-config", "rate-study", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert _read(out) == emit_config_text("rate-study")

    def test_config_file_plus_set_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg"
        _write(cfg_path, "study.n_list = 64,128,256\nstudy.replicates = 50\nstudy.gammas = 0.8\n")
        out = tmp_path / "o"
        code = main([
            "rate-study", "--config", str(cfg_path), "--out", str(out),
            "--seed", "3", "--set", "study.replicates=60",
        ])
        assert code == 0
        assert len(_read(out / "rate_study.csv").splitlines()) == 1 + 3 * 60


def _no_draws(*args):
    raise AssertionError("a replicate ran before the input check")


class TestStudyInputChecks:
    @pytest.mark.parametrize("command", ["rate-study", "tail-probe"])
    def test_exterior_x0_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(experiments, "draw_sample", _no_draws)
        code = main([
            command, "--out", str(tmp_path),
            "--set", "study.x0=2.0", "--set", "study.n_list=64,128,256",
            "--set", "study.replicates=50",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "interior" in err and len(err.strip().splitlines()) == 1

    def test_flat_link_off_the_flat_point_exits_2_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        # beta = 3 is slow at gamma 0.05 and fast at 0.8; the slow gamma is
        # checked before the fast one draws
        monkeypatch.setattr(experiments, "draw_sample", _no_draws)
        code = main([
            "rate-study", "--out", str(tmp_path), "--set", "study.gammas=0.8,0.05",
            "--set", "scenario.link=beta_flat", "--set", "scenario.beta=3",
            "--set", "study.x0=0.4", "--set", "study.n_list=64,128,256",
            "--set", "study.replicates=50",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "x0 = 0 only" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "rate_study.csv").exists()

    def test_slow_fbeta_off_the_flat_point_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(limits, "_scaled_normals", _no_draws)
        code = main([
            "simulate-limit", "--out", str(tmp_path), "--set", "limit.law_tag=slow_fbeta",
            "--set", "scenario.link=beta_flat", "--set", "scenario.beta=3",
            "--set", "limit.x0=0.4", "--set", "limit.draws=10",
        ])
        assert code == 2
        assert "x0 = 0 only" in capsys.readouterr().err
        assert not (tmp_path / "limit_batch.csv").exists()

    def test_tail_probe_two_sizes_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "draw_sample", _no_draws)
        code = main([
            "tail-probe", "--out", str(tmp_path),
            "--set", "study.n_list=64,128", "--set", "study.replicates=50",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "at least 3 sample sizes" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "tail_probe.manifest.json").exists()

    @pytest.mark.parametrize("gammas", ["", "0.25,-1", "0.8,0.25,0.8"])
    def test_bad_gamma_list_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch, gammas):
        # empty, negative (checked only after the first gamma's replicates)
        # and repeated gammas (which collide in the manifest keys)
        monkeypatch.setattr(experiments, "draw_sample", _no_draws)
        code = main([
            "rate-study", "--out", str(tmp_path), "--set", f"study.gammas={gammas}",
            "--set", "study.n_list=64,128,256", "--set", "study.replicates=50",
        ])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "rate_study.csv").exists()

    @pytest.mark.parametrize(
        "key", ["constants.cov_draws=0", "constants.a_max=2.5", "constants.a_step=0.3",
                "constants.a_step=0", "constants.abs_mean_draws=9999"]
    )
    def test_bad_constants_input_exits_2_before_any_path(self, tmp_path, capsys, monkeypatch,
                                                         key):
        def no_paths(*args):
            raise AssertionError("a path was drawn before the input check")

        monkeypatch.setattr(limits, "_scaled_normals", no_paths)
        code = main(["constants", "--out", str(tmp_path), "--set", key])
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "constants.csv").exists()

    def test_limit_compare_exterior_x0_exits_2(self, tmp_path, capsys):
        code = main([
            "limit-compare", "--out", str(tmp_path),
            "--set", "study.x0=2.0", "--set", "study.n_list=200",
            "--set", "study.replicates=50", "--set", "study.limit_draws=100",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "interior" in err and len(err.strip().splitlines()) == 1

    def test_consistency_one_hellinger_size_exits_2(self, tmp_path, capsys):
        code = main([
            "consistency", "--out", str(tmp_path),
            "--set", "study.hellinger_ns=40", "--set", "study.n_list=64,128,256",
            "--set", "study.replicates=50",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "two strictly increasing sizes" in err and len(err.strip().splitlines()) == 1

    def test_consistency_repeated_sup_gammas_exits_2(self, tmp_path, capsys, monkeypatch):
        # a repeated exponent would draw and write every sup-norm replicate twice
        def no_draws(*args):
            raise AssertionError("a sample was drawn before the sup_gammas check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        code = main([
            "consistency", "--out", str(tmp_path),
            "--set", "study.sup_gammas=0.25,0.25", "--set", "study.n_list=64,128,256",
            "--set", "study.replicates=50",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "repeats" in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "consistency.csv").exists()


@pytest.mark.parametrize(
    "command, sets, bad",
    [
        ("rate-study", ["scenario.impact_scale=nan"], "nan"),
        ("rate-study", ["scenario.impact_exponent=nan"], "nan"),
        ("rate-study", ["study.gammas=nan"], "nan"),
        ("consistency", ["study.sup_gammas=nan"], "nan"),
        ("tail-probe", ["study.probe_xs=nan"], "nan"),
        ("simulate-limit", ["limit.law_tag=slow_fbeta", "grid.half_width=inf"], "inf"),
        ("simulate-limit", ["limit.law_tag=slow_fbeta", "grid.half_width=1e308"], "1e+308"),
        ("simulate-limit", ["limit.law_tag=slow_fbeta", "grid.step=nan"], "nan"),
        ("simulate-limit", ["limit.law_tag=boundary_gbc", "limit.c=nan"], "nan"),
        ("constants", ["constants.a_max=inf"], "inf"),
        ("constants", ["grid.half_width=inf"], "inf"),
    ],
)
def test_non_finite_input_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, command, sets,
                                                   bad):
    # these ran to the end with NaN records, or died in an OverflowError traceback
    monkeypatch.setattr(experiments, "draw_sample", _no_draws)
    monkeypatch.setattr(limits, "_scaled_normals", _no_draws)
    overrides = [arg for key in sets for arg in ("--set", key)]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *SMOKE_RUNS[command], *overrides]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert bad in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["rate-study", "limit-compare", "tail-probe", "consistency"])
def test_tolerances_are_not_config_keys(tmp_path, capsys, command):
    # each --check tolerance is a fixed constant of the study it decides
    code = main([command, "--out", str(tmp_path), "--set", "tolerances.slope=0.5"])
    assert code == 2
    assert "unknown key 'tolerances.slope'" in capsys.readouterr().err


def test_tail_probe_manifest_holds_the_medians_it_plots(tmp_path, monkeypatch):
    plotted = []
    line_plot = svgplot.line_plot

    def recorded(path, series, **kwargs):
        plotted.append(series[0]["ys"])
        line_plot(path, series, **kwargs)

    monkeypatch.setattr(svgplot, "line_plot", recorded)
    assert main(["tail-probe", "--out", str(tmp_path), *SMOKE_RUNS["tail-probe"]]) == 0
    manifest = json.loads(_read(tmp_path / "tail_probe.manifest.json"))
    rows = [row.split(",") for row in _read(tmp_path / "tail_probe.csv").splitlines()[1:]]
    devs = {}
    for n, _, dev in rows:
        devs.setdefault(int(n), []).append(float(dev))
    assert manifest["medians"] == [float(np.median(devs[n])) for n in manifest["n_list"]]
    assert plotted == [manifest["medians"]]


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


SMOKE_RUNS = {
    "simulate-limit": ["--set", "limit.draws=50"],
    "constants": [
        "--set", "constants.abs_mean_draws=10000", "--set", "constants.cov_draws=500",
        "--set", "grid.step=0.04",
    ],
    "rate-study": [
        "--set", "study.gammas=0.8", "--set", "study.n_list=64,128,256",
        "--set", "study.replicates=50",
    ],
    "limit-compare": [
        "--set", "scenario.impact_exponent=0.5", "--set", "study.regime=boundary_pointwise",
        "--set", "study.n_list=200", "--set", "study.replicates=50",
        "--set", "study.limit_draws=100",
    ],
    "lower-bound-audit": [],
    "tail-probe": ["--set", "study.n_list=64,128,256", "--set", "study.replicates=50"],
    "consistency": [
        "--set", "study.n_list=64,128,256", "--set", "study.replicates=50",
        "--set", "study.hellinger_ns=100,400",
    ],
}


@pytest.mark.parametrize("command", sorted(SMOKE_RUNS))
def test_every_json_output_is_strict(tmp_path, command):
    # json.dumps writes NaN and Infinity, which strict parsers reject
    assert main([command, "--out", str(tmp_path), *SMOKE_RUNS[command]]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert written
    for path in written:
        json.loads(_read(path), parse_constant=_reject_constant)


@pytest.mark.parametrize("command", ["limit-compare", "tail-probe", "consistency"])
def test_records_identical_across_threads(tmp_path, monkeypatch, command):
    # the thread count reaches every study through the shared config builder
    pools = []

    class CountedPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
    stem = command.replace("-", "_")
    texts = []
    for threads in ("1", "2", "3"):
        out = tmp_path / threads
        assert main([command, "--out", str(out), "--threads", threads,
                     *SMOKE_RUNS[command]]) == 0
        texts.append(_read(out / f"{stem}.csv"))
    assert pools == [2, 3]
    assert texts[0] == texts[1] == texts[2]


@pytest.mark.parametrize("flag", [["--threads", "-3"], ["--set", "threads=-1"]])
@pytest.mark.parametrize("command", sorted(SMOKE_RUNS))
def test_negative_threads_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, command, flag):
    # a negative count used to run silently as one process
    for module in (experiments, limits):
        monkeypatch.setattr(module, "stream", _no_draws)
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *flag, *SMOKE_RUNS[command]]) == 2
    err = capsys.readouterr().err
    assert "threads must be 0 (one per core) or positive" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--seed", "-1"], ["--set", "seed=-1"], []])
@pytest.mark.parametrize("command", sorted(SMOKE_RUNS))
def test_negative_seed_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, command, flag):
    # numpy's seed sequences reject a negative seed, but only once a draw or a
    # pool worker reaches them; the audit, which draws nothing, used to take it
    if not flag:
        monkeypatch.setenv("MONOTONE_WFI_SEED", "-4")
    for module in (experiments, limits):
        monkeypatch.setattr(module, "stream", _no_draws)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _no_draws)
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--threads", "2", *flag,
                 *SMOKE_RUNS[command]]) == 2
    err = capsys.readouterr().err
    assert "seed must be nonnegative" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_schema_defaults_match_the_study_config():
    # a StudyConfig built in code runs as the command's defaults would
    fields = {f.name: f.default for f in dataclasses.fields(experiments.StudyConfig)}
    mirrored = {"seed": "seed_base", "study.x0": "x0",
                "study.centering_draws": "centering_draws", "study.limit_draws": "limit_draws"}
    checked = 0
    for command, schema in SCHEMAS.items():
        for key in mirrored.keys() & schema.keys():
            assert schema[key][1] == fields[mirrored[key]], (command, key)
            checked += 1
    assert checked >= len(mirrored)


def test_smoke_runs_cover_every_command():
    assert set(SMOKE_RUNS) == set(SCHEMAS)


class TestNumericalFailureExit:
    def test_quadrature_exhaustion_maps_to_exit_3(self, tmp_path, capsys):
        # a tolerance below machine precision exhausts the adaptive rule
        code = main([
            "lower-bound-audit",
            "--out", str(tmp_path),
            "--set", "audit.quad_tol=1e-30",
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_failed_hull_certificate_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        # one block where the hull has three segments: the certificate refuses it
        data = tmp_path / "d.csv"
        _write(data, "x,y\n1,0\n2,1\n3,0\n4,1\n")
        monkeypatch.setattr(
            estimator, "isotonic_regression",
            lambda *a, **k: SimpleNamespace(blocks=np.array([0, 4])),
        )
        code = main(["fit", "--input", str(data), "--output-prefix", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("fit: numerical failure: ") and "n=4 " in err
        assert "certificate" in err
        assert not (tmp_path / "o.steps.csv").exists()


def test_parser_built_once_per_process(monkeypatch, capsys):
    built = []
    parser_class = cli.argparse.ArgumentParser

    def counted(*args, **kwargs):
        built.append(kwargs.get("prog"))
        return parser_class(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=counted))
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert main(["emit-config", "tail-probe"]) == 0
    assert built == ["monotone-wfi"]
    assert capsys.readouterr().out.count("# monotone-wfi tail-probe configuration") == 3
