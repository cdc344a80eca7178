"""Monte Carlo study drivers: determinism, slopes, audits, probes."""

import multiprocessing
import os
import tempfile
import time

import numpy as np
import pytest

from monotone_wfi.experiments import (
    AuditConfig,
    StudyConfig,
    expected_rate_slope,
    fit_loglog_slope,
    run_consistency_study,
    run_limit_comparison,
    run_lower_bound_audit,
    run_rate_study,
    run_tail_bound_probe,
)
from monotone_wfi import experiments
from monotone_wfi.estimator import inverse_process, npmle_fit
from monotone_wfi.metrics import QuadratureCfg, hellinger, l1_error, sup_norm_on
from monotone_wfi.model import FeatureLaw, LinkSpec, Scenario, draw_sample
from monotone_wfi.streams import stream

LOGISTIC = LinkSpec("logistic")
UNIFORM = FeatureLaw("uniform", 1.0)


FLAT3 = LinkSpec("beta_flat", beta=3)


def _scn(gamma):
    return Scenario(LOGISTIC, UNIFORM, 1.0, gamma)


class TestLoglogSlope:
    def test_exact_power_law(self):
        ns = np.array([100, 200, 400, 800])
        slope, se = fit_loglog_slope(ns, 3.0 * ns ** (-1 / 3))
        assert slope == pytest.approx(-1 / 3, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_constant_errors(self):
        slope, _ = fit_loglog_slope([10, 100, 1000], [0.2, 0.2, 0.2])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_noisy_half_rate(self):
        rng = np.random.default_rng(7)
        ns = np.logspace(2, 5, 30)
        errs = ns ** (-0.5) * (1.0 + 0.01 * rng.standard_normal(30))
        slope, se = fit_loglog_slope(ns, errs)
        assert slope == pytest.approx(-0.5, abs=0.02)
        assert se < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2], [0.1, 0.2])
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2, 3], [0.1, 0.0, 0.2])

    def test_expected_slopes(self):
        assert expected_rate_slope(0.0) == pytest.approx(-1 / 3)
        assert expected_rate_slope(0.25) == pytest.approx(-0.41666666666)
        assert expected_rate_slope(0.8) == -0.5
        assert expected_rate_slope(0.5, beta=2) == pytest.approx(-0.5)


class TestStudyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(_scn(0.25), (100, 50), 60)
        with pytest.raises(ValueError):
            StudyConfig(_scn(0.25), (50, 100), 10)
        with pytest.raises(ValueError):
            StudyConfig(_scn(0.25), (50, 100), 60, regime="weird")


class TestRateStudy:
    def test_serial_equals_parallel_bitwise(self):
        kw = dict(x0=0.1, seed_base=17, centering_draws=0)
        serial = run_rate_study(StudyConfig(_scn(0.25), (64, 128, 256), 50, threads=1, **kw))
        parallel = run_rate_study(StudyConfig(_scn(0.25), (64, 128, 256), 50, threads=4, **kw))
        assert serial.to_csv_text() == parallel.to_csv_text()
        assert serial.manifest == parallel.manifest

    def test_records_shape_and_columns(self):
        res = run_rate_study(
            StudyConfig(_scn(0.25), (64, 128, 256), 50, seed_base=3, centering_draws=0)
        )
        assert len(res.records) == 3 * 50
        assert res.columns == ("gamma", "n", "replicate", "err_pointwise", "err_l1")
        assert all(r[0] == 0.25 for r in res.records)
        assert "centering" not in res.manifest

    def test_centering_decomposition(self):
        cfg = StudyConfig(_scn(0.25), (256, 512, 1024), 50, seed_base=11, centering_draws=10_000)
        res = run_rate_study(cfg)
        c = res.manifest["centering"]
        assert c["n"] == 1024 and c["edge_constant"] > 5 * c["edge_constant_se"]
        left, right = c["edge_widths"]
        assert left == pytest.approx(right, rel=1e-12)
        assert c["boundary_term"] > 0
        centering = c["mu_n"] + c["boundary_term"]
        assert c["ratio"] == pytest.approx(c["mean_scaled_l1"] / centering, rel=1e-12)
        assert c["ratio_first_order"] == pytest.approx(c["ratio"] * centering / c["mu_n"], rel=1e-12)
        assert res.manifest["flags"]["l1_centering_within_tolerance"] == (abs(c["ratio"] - 1) <= 0.10)

    def test_split_half_slopes_agree(self):
        cfg = StudyConfig(
            _scn(0.25), (256, 512, 1024, 2048), 120, seed_base=5, threads=2,
            centering_draws=0,
        )
        res = run_rate_study(cfg)
        ns = np.array(cfg.n_list, dtype=float)
        halves = []
        for parity in (0, 1):
            meds = [
                np.median([r[4] for r in res.records if r[1] == n and r[2] % 2 == parity])
                for n in cfg.n_list
            ]
            halves.append(fit_loglog_slope(ns, meds))
        gap = abs(halves[0][0] - halves[1][0])
        assert gap <= 2 * np.hypot(halves[0][1], halves[1][1]) + 0.05

    def test_two_sizes_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a replicate ran before the size check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        cfg = StudyConfig(_scn(0.25), (2000, 4000), 50, threads=1, centering_draws=0)
        with pytest.raises(ValueError, match="at least 3 sample sizes"):
            run_rate_study(cfg)

    def test_short_centering_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a replicate ran before the centering check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        cfg = StudyConfig(_scn(0.25), (2000, 4000, 8000), 50, centering_draws=5000)
        with pytest.raises(ValueError, match="10000 draws, got 5000"):
            run_rate_study(cfg)

    def test_flat_link_off_the_flat_point_rejected_before_any_draw(self, monkeypatch):
        # the slow pointwise target's law holds at x0 = 0 only when beta > 1
        def no_draws(*args):
            raise AssertionError("a replicate ran before the x0 check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        scn = Scenario(FLAT3, UNIFORM, 1.0, 0.05, beta=3)
        cfg = StudyConfig(scn, (2000, 4000, 8000), 50, x0=0.4, centering_draws=0)
        with pytest.raises(ValueError, match="x0 = 0 only"):
            run_rate_study(cfg)


class TestLimitComparison:
    def test_regime_consistency_enforced(self):
        with pytest.raises(ValueError, match="regime"):
            run_limit_comparison(
                StudyConfig(_scn(0.8), (500,), 50, regime="slow_pointwise")
            )
        with pytest.raises(ValueError, match="regime"):
            run_limit_comparison(
                StudyConfig(_scn(0.25), (500,), 50, regime="fast_l1")
            )
        with pytest.raises(ValueError, match="regime"):
            run_limit_comparison(StudyConfig(_scn(0.25), (500,), 50))

    def test_no_limit_draws_rejected_before_any_replicate(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a replicate ran before the limit-draw check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        cfg = StudyConfig(_scn(0.8), (500,), 50, regime="fast_l1", limit_draws=0)
        with pytest.raises(ValueError, match="at least 1 limit draw"):
            run_limit_comparison(cfg)

    @pytest.mark.parametrize(
        "gamma, regime, x0",
        [
            (0.25, "slow_pointwise", 2.0),
            (0.9, "fast_pointwise", 1.0),
            (0.5, "boundary_pointwise", -1.0),
        ],
    )
    def test_exterior_x0_rejected_before_any_replicate(self, monkeypatch, gamma, regime, x0):
        def no_draws(*args):
            raise AssertionError("a replicate ran before the x0 check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        with pytest.raises(ValueError, match="interior to the feature support"):
            cfg = StudyConfig(_scn(gamma), (200,), 50, x0=x0, regime=regime, limit_draws=100)
            run_limit_comparison(cfg)

    def test_one_limit_batch_unless_c_varies(self, monkeypatch):
        # the limit law does not depend on n, not even through the boundary
        # constant c = impact_scale^(2 beta); the records match a per-size redraw
        calls = []
        draw = experiments.limits.sample_limit_batch

        def counted(*args, **kwargs):
            calls.append(kwargs["c"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(experiments.limits, "sample_limit_batch", counted)
        cfg = StudyConfig(
            _scn(0.8), (200, 400), 50, seed_base=7, regime="fast_l1", limit_draws=500
        )
        res = run_limit_comparison(cfg)
        assert calls == [0.0]
        batch = draw("l1_fast_maxA", 500, 7, link=LOGISTIC, law=UNIFORM)
        for n in (200, 400):
            assert np.array_equal(res.extras["limit"][n], batch.draws)
        calls.clear()
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.5)
        cfg = StudyConfig(
            scn, (200, 400, 1000), 50, seed_base=7, regime="boundary_pointwise", limit_draws=200
        )
        res = run_limit_comparison(cfg)
        # n delta_n^2 rounds to 1.0, 1.0000000000000002 and 0.9999999999999998
        assert calls == [1.0]
        assert res.manifest["standardization_c"] == {"200": 1.0, "400": 1.0, "1000": 1.0}

    def test_smoke_run_records(self):
        cfg = StudyConfig(
            _scn(0.25), (2000,), 50, seed_base=13, threads=2,
            regime="slow_pointwise", limit_draws=2000,
        )
        res = run_limit_comparison(cfg)
        assert res.columns == ("kind", "n", "gamma", "ks", "draws_finite", "draws_limit")
        (rec,) = res.records
        assert rec[0] == "slow_pointwise" and rec[1] == 2000
        assert rec[4] == 50 and rec[5] == 2000
        assert 0.0 <= rec[3] <= 1.0
        assert res.extras["finite"][2000].size == 50

    def test_boundary_regime_records_standardization(self):
        scn = Scenario(LOGISTIC, UNIFORM, 1.0, 0.5)
        cfg = StudyConfig(
            scn, (500,), 50, seed_base=19, regime="boundary_pointwise", limit_draws=500
        )
        res = run_limit_comparison(cfg)
        c = res.manifest["standardization_c"]["500"]
        assert c == pytest.approx(500 * scn.delta(500) ** 2)


    def test_flat_link_off_the_flat_point_rejected_before_any_replicate(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a replicate ran before the x0 check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        scn = Scenario(FLAT3, UNIFORM, 1.0, 0.05, beta=3)
        cfg = StudyConfig(scn, (2000,), 50, x0=0.4, regime="slow_pointwise", limit_draws=100)
        with pytest.raises(ValueError, match="x0 = 0 only"):
            run_limit_comparison(cfg)


class TestFlatLinkBoundaryLaw:
    """beta_flat, beta = 3, at the boundary gamma = 1/6: the drift's Taylor coefficient."""

    @staticmethod
    def _run(x0):
        scn = Scenario(FLAT3, UNIFORM, 2.0, 1.0 / 6.0, beta=3)
        cfg = StudyConfig(
            scn, (20_000,), 400, x0=x0, seed_base=11, regime="boundary_pointwise",
            limit_draws=5000,
        )
        res = run_limit_comparison(cfg)
        return res, res.extras["finite"][20_000], res.extras["limit"][20_000]

    def test_law_off_the_flat_point_matches_the_data(self):
        # x^3 - x0^3, not (x - x0)^3: the finite mean sits near +0.28 here
        res, _, _ = self._run(0.4)
        assert res.manifest["ks"]["20000"] <= 0.10

    def test_spread_at_the_flat_point_matches_the_data(self):
        # the drift carries phi0^(3)(0) / 3! = 1/4, not phi0^(3)(0) = 3/2
        _, finite, limit = self._run(0.0)
        assert limit.std(ddof=1) / finite.std(ddof=1) == pytest.approx(1.0, abs=0.10)


class TestLowerBoundAudit:
    def test_default_audit_passes(self):
        res = run_lower_bound_audit(AuditConfig(UNIFORM))
        assert res.passed
        alpha = res.manifest["alpha"]
        assert alpha["fast"] == pytest.approx(0.64)
        assert alpha["slow"] == pytest.approx(64 * (0.1984251315 / 2) ** 3 * 0.5, rel=1e-6)
        assert alpha["cube"] == pytest.approx(0.25, rel=1e-9)
        assert all(v < 2 for v in alpha.values())
        assert any("n_d2" in line for line in res.manifest["inequalities"])

    def test_audit_on_tilted_law(self):
        res = run_lower_bound_audit(AuditConfig(FeatureLaw("polynomial", 1.0, (0.4,))))
        assert res.passed

    def test_custom_constant_violation_detected(self):
        with pytest.raises(ValueError, match="constant"):
            run_lower_bound_audit(AuditConfig(UNIFORM, c_fast=0.9))


class TestTailProbe:
    def test_requires_slow_regime(self):
        with pytest.raises(ValueError, match="slow-regime"):
            run_tail_bound_probe(StudyConfig(_scn(0.8), (256, 512, 1024), 50))

    def test_smoke_run(self):
        cfg = StudyConfig(
            _scn(0.25), (256, 1024, 4096), 80, seed_base=23, threads=2,
            probe_xs=(0.02, 0.1, 0.5),
        )
        res = run_tail_bound_probe(cfg)
        assert len(res.records) == 3 * 80
        assert res.manifest["target_slope"] == pytest.approx(-1 / 6)
        freqs = res.manifest["exceedance_frequencies"]["1024"]
        vals = [freqs[k] for k in freqs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals, reverse=True)  # monotone in the threshold
        # larger thresholds below the resolution scale are flagged vacuous
        assert "0.02" in res.manifest["vacuous_thresholds"]["256"]

    def test_fewer_than_three_sizes_rejected_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a replicate ran before the size check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        for sizes in ((256,), (256, 1024)):
            with pytest.raises(ValueError, match="at least 3 sample sizes"):
                run_tail_bound_probe(StudyConfig(_scn(0.25), sizes, 50))

    def test_frequency_drops_with_sample_size(self):
        cfg = StudyConfig(
            _scn(0.25), (256, 1024, 4096), 150, seed_base=29, threads=2, probe_xs=(0.15,)
        )
        res = run_tail_bound_probe(cfg)
        f = res.manifest["exceedance_frequencies"]
        assert f["4096"]["0.15"] <= f["256"]["0.15"]


class ChunkFailed(RuntimeError):
    pass


def _failing_stat(scn, arg, n, sample) -> tuple:
    """Marks one replicate in ``marks``; the first replicate run raises."""
    marks, once = arg
    os.close(tempfile.mkstemp(dir=marks)[0])
    time.sleep(0.005)  # 35 ms a chunk, so that cancelling can beat the queue
    try:
        os.mkdir(once)  # atomic: only the first caller gets past
    except FileExistsError:
        return (0.0,)
    raise ChunkFailed(f"replicate of n = {n}")


def test_a_failed_chunk_cancels_the_queued_ones(tmp_path):
    # three heads of 8 chunks of at most 7 replicates at threads = 2
    cfg = StudyConfig(_scn(0.25), (64,), 50, threads=2)
    marks = tmp_path / "marks"
    marks.mkdir()
    arg = (str(marks), str(tmp_path / "failed"))
    heads = [(_failing_stat, (99,), _scn(0.25), arg, n) for n in (64, 65, 66)]
    with pytest.raises(ChunkFailed, match="replicate of n = "):
        experiments._replicates(heads, cfg)
    assert multiprocessing.active_children() == []
    # finishing the queue would run all 150 replicates
    assert len(list(marks.iterdir())) < 150 // 2


class TestConsistencyStudy:
    @pytest.mark.parametrize("sizes", [(40,), (400, 400), (6400, 400), (0, 400), (100, 200, 400)])
    def test_hellinger_sizes_rejected_before_any_draw(self, monkeypatch, sizes):
        def no_draws(*args):
            raise AssertionError("a replicate ran before the size check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        cfg = StudyConfig(_scn(0.25), (64, 128, 256), 50)
        with pytest.raises(ValueError, match="two strictly increasing sizes"):
            run_consistency_study(cfg, hellinger_ns=sizes)

    def test_flags_and_medians(self):
        cfg = StudyConfig(_scn(0.25), (512, 2048, 8192), 60, seed_base=31, threads=2)
        res = run_consistency_study(cfg, hellinger_ns=(400, 6400), sup_gammas=(0.25,))
        assert res.manifest["hellinger_ratio"] <= 0.55
        meds = res.manifest["sup_medians"]["0.25"]
        assert len(meds) == 3
        assert res.manifest["flags"]["supnorm_decreasing_gamma0.25"] == (
            meds[2] < meds[1] < meds[0]
        )


class TestOneRegimeRule:
    """Every study reads slow, boundary or fast from one rule with a 1e-12 tie band."""

    # beta = 1, gamma = 1/2 - 1e-13: the margin 1 - 2 beta gamma is 2e-13
    NEAR_BOUNDARY = Scenario(LOGISTIC, UNIFORM, 1.0, 0.5 - 1e-13)

    def test_tail_probe_rejects_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a replicate ran before the regime check")

        monkeypatch.setattr(experiments, "draw_sample", no_draws)
        with pytest.raises(ValueError, match="slow-regime"):
            run_tail_bound_probe(StudyConfig(self.NEAR_BOUNDARY, (64, 128, 256), 50))

    def test_rate_study_runs_no_slow_centering(self, monkeypatch):
        def no_centering(*args):
            raise AssertionError("the slow-regime centering ran")

        monkeypatch.setattr(experiments.limits, "edge_layer_constant", no_centering)
        cfg = StudyConfig(self.NEAR_BOUNDARY, (64, 128, 256), 50, centering_draws=10_000)
        res = run_rate_study(cfg)
        assert "centering" not in res.manifest

    def test_limit_comparison_reads_boundary(self):
        for regime in ("slow_pointwise", "fast_pointwise"):
            with pytest.raises(ValueError, match="inconsistent"):
                run_limit_comparison(
                    StudyConfig(self.NEAR_BOUNDARY, (200,), 50, regime=regime, limit_draws=10)
                )
        cfg = StudyConfig(
            self.NEAR_BOUNDARY, (200,), 50, regime="boundary_pointwise", limit_draws=50
        )
        assert run_limit_comparison(cfg).records[0][0] == "boundary_pointwise"


def _gamma_code(gamma):
    return round(gamma * 10**6)


class TestStreamLayout:
    """Replicate r of experiment e draws from (seed_base; e[, sub], gamma_code, n, r)."""

    def test_rate_study(self):
        scn = _scn(0.25)
        res = run_rate_study(
            StudyConfig(scn, (64, 128, 256), 50, x0=0.1, seed_base=17, threads=2,
                        centering_draws=0)
        )
        n, r = 128, 37
        fit = npmle_fit(draw_sample(scn, n, stream(17, 1, _gamma_code(0.25), n, r)))
        phi = scn.phi_fn(n)
        pointwise = abs(float(fit(0.1)) - phi(0.1))
        l1 = l1_error(fit, phi, "lebesgue", interval=(-1.0, 1.0))
        assert (0.25, n, r, pointwise, l1) in res.records

    @pytest.mark.parametrize("gamma, regime", [(0.25, "slow_pointwise"), (0.8, "fast_l1")])
    def test_limit_comparison(self, gamma, regime):
        scn = _scn(gamma)
        cfg = StudyConfig(
            scn, (200, 400), 50, x0=0.2, seed_base=5, threads=2, regime=regime,
            limit_draws=100,
        )
        res = run_limit_comparison(cfg)
        n, r = 400, 29
        sample = draw_sample(scn, n, stream(5, 2, _gamma_code(gamma), n, r))
        fit = npmle_fit(sample)
        phi = scn.phi_fn(n)
        if regime == "slow_pointwise":
            stat = (n / scn.delta(n)) ** (1.0 / 3.0) * (float(fit(0.2)) - phi(0.2))
        else:
            stat = np.sqrt(n) * l1_error(fit, phi, "empirical", sample=sample)
        assert res.extras["finite"][n][r] == float(stat)

    def test_tail_probe(self):
        scn = Scenario(LOGISTIC, FeatureLaw("polynomial", 1.0, (0.5,)), 1.0, 0.25)
        res = run_tail_bound_probe(
            StudyConfig(scn, (64, 128, 256), 50, x0=-0.3, seed_base=3, threads=2)
        )
        n, r = 256, 11
        sample = draw_sample(scn, n, stream(3, 3, _gamma_code(0.25), n, r))
        phi = scn.phi_fn(n)
        level = phi(-0.3)
        grid_t, _ = inverse_process(sample, level)
        deviation = abs(grid_t - float(scn.law.cdf(phi.inverse(level))))
        assert (n, r, deviation) in res.records

    def test_consistency_halves(self):
        res = run_consistency_study(
            StudyConfig(_scn(0.25), (64, 128, 256), 50, seed_base=9, threads=2),
            hellinger_ns=(100, 200),
            sup_gammas=(0.8, 0.25),
        )
        fixed = _scn(0.0)
        n, r = 200, 3
        fit = npmle_fit(draw_sample(fixed, n, stream(9, 4, 1, _gamma_code(0.0), n, r)))
        value = hellinger(fit, fixed.phi_fn(n), UNIFORM, QuadratureCfg(1e-8))
        assert ("hellinger", 0.0, n, r, value) in res.records
        scn = _scn(0.8)
        n, r = 128, 44
        fit = npmle_fit(draw_sample(scn, n, stream(9, 4, 2, _gamma_code(0.8), n, r)))
        value = sup_norm_on(fit, scn.phi_fn(n), (-0.5, 0.5))
        assert ("supnorm", 0.8, n, r, value) in res.records
        # the caller's gamma order does not reach the records
        gammas = [rec[1] for rec in res.records if rec[0] == "supnorm"]
        assert gammas == sorted(gammas)


class TestTracedNames:
    """The benchmark tracer wraps these module globals; every replicate must call them."""

    NAMES = ("draw_sample", "npmle_fit", "inverse_process", "l1_error", "stream")

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys(self.NAMES, 0)
        for name in self.NAMES:
            def counted(*args, _fn=getattr(experiments, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counted)
        return counts

    def test_rate_study(self, calls):
        run_rate_study(StudyConfig(_scn(0.25), (64, 128, 256), 50, centering_draws=0))
        assert calls == {
            "draw_sample": 150, "npmle_fit": 150, "inverse_process": 0, "l1_error": 150,
            "stream": 150,
        }

    def test_limit_comparison(self, calls):
        cfg = StudyConfig(_scn(0.8), (200, 400), 50, regime="fast_l1", limit_draws=100)
        run_limit_comparison(cfg)
        assert calls == {
            "draw_sample": 100, "npmle_fit": 100, "inverse_process": 0, "l1_error": 100,
            "stream": 100,
        }

    def test_tail_probe(self, calls):
        run_tail_bound_probe(StudyConfig(_scn(0.25), (64, 128, 256), 50))
        assert calls == {
            "draw_sample": 150, "npmle_fit": 0, "inverse_process": 150, "l1_error": 0,
            "stream": 150,
        }

    def test_consistency(self, calls):
        cfg = StudyConfig(_scn(0.25), (64, 128, 256), 50)
        run_consistency_study(cfg, hellinger_ns=(100, 200), sup_gammas=(0.25,))
        assert calls == {
            "draw_sample": 250, "npmle_fit": 250, "inverse_process": 0, "l1_error": 0,
            "stream": 250,
        }
