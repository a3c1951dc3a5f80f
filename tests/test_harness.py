"""Experiment configuration, Monte-Carlo runner, CSV output, and CLI."""

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_array_equal

from rrfilt.cdma import CdmaConfig
from rrfilt.combiners import Diverged, SchemeB
from rrfilt.filters import JidfFilter
from rrfilt.harness import (
    BranchParams,
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    complexity_report,
    config_from_dict,
    load_config,
    main,
    run_experiment,
    snr_sweep,
    write_csv,
    write_sweep_csv,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TINY_CDMA = dict(n_users=2, n_chips=8, n_paths=3, snr_db=12.0, doppler=1e-3)


def tiny_config(scheme="jidf", **overrides):
    branches = {
        "fullrank": [BranchParams(mu=0.05)],
        "clms": [BranchParams(mu=0.01), BranchParams(mu=0.2)],
        "jidf": [BranchParams(mu=0.05, rank=3, interp_len=2, eta=0.01)],
        "scheme_b": [
            BranchParams(mu=0.1, rank=2, interp_len=2, eta=0.01),
            BranchParams(mu=0.02, rank=5, interp_len=3, eta=0.005),
        ],
        "scheme_a": [
            BranchParams(mu=0.1, rank=2, interp_len=2, eta=0.01),
            BranchParams(mu=0.1, rank=5, interp_len=3, eta=0.01),
            BranchParams(mu=0.02, rank=2, interp_len=2, eta=0.005),
            BranchParams(mu=0.02, rank=5, interp_len=3, eta=0.005),
        ],
        "mmse": [],
    }[scheme]
    base = dict(
        scheme=scheme,
        cdma=CdmaConfig(**TINY_CDMA),
        n_symbols=80,
        n_runs=3,
        seed=42,
        n_branches=2,
        branches=branches,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_all_schemes_validate(self):
        for scheme in ("fullrank", "clms", "jidf", "scheme_a", "scheme_b", "mmse"):
            tiny_config(scheme).validate()

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            tiny_config().__class__(scheme="rls", branches=[]).validate()

    def test_branch_count_must_match_scheme(self):
        cfg = tiny_config("scheme_b")
        cfg.branches = cfg.branches[:1]
        with pytest.raises(ConfigError, match="branch"):
            cfg.validate()

    def test_reduced_rank_branches_need_all_fields(self):
        cfg = tiny_config("jidf")
        cfg.branches = [BranchParams(mu=0.05)]
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_plain_lms_branches_take_only_mu(self):
        cfg = tiny_config("clms")
        cfg.branches[0] = BranchParams(mu=0.05, rank=3, interp_len=2, eta=0.1)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            config_from_dict({"scheme": "mmse", "fooo": 1})
        with pytest.raises(ConfigError, match="unknown cdma keys"):
            config_from_dict({"scheme": "mmse", "cdma": {"bandwidth": 5}})
        with pytest.raises(ConfigError, match="unknown branch 0 keys"):
            config_from_dict(
                {"scheme": "fullrank", "branches": [{"mu": 0.1, "rho": 2}]}
            )
        with pytest.raises(ConfigError, match="unknown combiners keys"):
            config_from_dict({"scheme": "mmse", "combiners": {"mu_z": 0.1}})

    def test_yaml_round_trip(self, tmp_path):
        text = """
scheme: scheme_b
seed: 7
n_symbols: 50
n_runs: 2
n_branches: 2
cdma: {users: 2, chips: 8, paths: 3, snr_db: 12.0, doppler: 1.0e-3}
branches:
  - {rank: 2, interp_len: 2, eta: 0.01, mu: 0.1}
  - {rank: 5, interp_len: 3, eta: 0.005, mu: 0.02}
combiners: {mu_c: 0.25}
"""
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        cfg = load_config(path)
        assert cfg.scheme == "scheme_b"
        assert cfg.cdma.n_chips == 8
        assert cfg.branches[1].rank == 5
        assert cfg.combiners.mu_c == 0.25

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(path)


class TestComplexityReport:
    @pytest.mark.parametrize("m", [8, 40, 64])
    def test_fullrank(self, m):
        assert complexity_report(m, scheme="fullrank") == (2 * m, 2 * m + 1)

    @pytest.mark.parametrize("m", [8, 40, 64])
    def test_clms(self, m):
        assert complexity_report(m, scheme="clms") == (4 * m + 5, 4 * m + 6)

    @pytest.mark.parametrize("m", [8, 40, 64])
    def test_single_reduced_rank_formula(self, m):
        i, d, b = 3, 4, 8
        adds, mults = complexity_report(m, [i], [d], b, "jidf")
        assert adds == m * (i - 1) + (b + 1) * d + 2 * i
        assert mults == m * i + (b + 2) * d

    def test_desk_scale_single_filter(self):
        assert complexity_report(40, [3], [4], 8, "jidf") == (122, 160)

    def test_four_filter_tree(self):
        adds, mults = complexity_report(40, [3, 6, 3, 6], [3, 6, 3, 6], 8, "scheme_a")
        assert (adds, mults) == (758, 900)

    def test_no_formula_for_mmse(self):
        with pytest.raises(ValueError):
            complexity_report(40, scheme="mmse")

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            complexity_report(40, [3], [4], 8, "scheme_b")


class TestRunExperiment:
    def test_record_shapes_and_ranges(self):
        rec = run_experiment(tiny_config("scheme_b"))
        assert rec.cumulative_ber.shape == (80,)
        assert rec.mse.shape == (80,)
        assert np.all((rec.cumulative_ber >= 0) & (rec.cumulative_ber <= 1))
        assert rec.lambda_c.shape == (80,)
        assert rec.lambda_a is None and rec.lambda_b is None
        assert rec.branch_hist.sum() == 2 * 80 * 3  # filters * symbols * runs
        assert rec.b_opt_mode.shape == (80,)
        assert rec.complexity is not None
        assert rec.per_run_ber.shape == (3,)

    def test_cumulative_error_count_non_decreasing(self):
        rec = run_experiment(tiny_config("fullrank"))
        counts = rec.cumulative_ber * np.arange(1, 81)
        assert np.all(np.diff(counts) >= -1e-12)

    def test_deterministic_given_seed(self):
        a = run_experiment(tiny_config("scheme_a"))
        b = run_experiment(tiny_config("scheme_a"))
        assert_array_equal(a.cumulative_ber, b.cumulative_ber)
        assert_array_equal(a.mse, b.mse)
        assert_array_equal(a.lambda_a, b.lambda_a)
        assert_array_equal(a.b_opt_mode, b.b_opt_mode)

    def test_worker_count_does_not_change_results(self, monkeypatch):
        cfg = tiny_config("jidf", n_runs=4)
        monkeypatch.setenv("RRFILT_THREADS", "1")
        serial = run_experiment(cfg)
        monkeypatch.setenv("RRFILT_THREADS", "2")
        parallel = run_experiment(cfg)
        assert_array_equal(serial.cumulative_ber, parallel.cumulative_ber)
        assert_array_equal(serial.mse, parallel.mse)
        assert_array_equal(serial.per_run_ber, parallel.per_run_ber)

    def test_noiseless_single_user_mmse_is_error_free(self):
        cfg = tiny_config(
            "mmse",
            cdma=CdmaConfig(n_users=1, n_chips=8, n_paths=3, snr_db=np.inf,
                            doppler=1e-3),
            n_symbols=200,
            n_runs=2,
        )
        rec = run_experiment(cfg)
        assert rec.final_ber == 0.0

    def test_frozen_fullrank_decides_constantly(self):
        # zero step size keeps the filter (and hence the slicer decision) at
        # the tie-break constant; uniform QPSK then errs 3 times out of 4
        cfg = tiny_config(
            "fullrank", branches=[BranchParams(mu=0.0)], n_symbols=1500, n_runs=4
        )
        rec = run_experiment(cfg)
        assert rec.final_ber == pytest.approx(0.75, abs=0.03)

    def test_semi_supervised_mode_runs(self):
        cfg = tiny_config("jidf", train_mode="semi", train_symbols=40,
                          n_symbols=120)
        rec = run_experiment(cfg)
        assert np.isfinite(rec.final_ber)

    def test_semi_with_full_training_window_equals_supervised(self):
        semi = tiny_config("scheme_b", train_mode="semi", train_symbols=80)
        supervised = tiny_config("scheme_b")
        a = run_experiment(semi)
        b = run_experiment(supervised)
        assert_array_equal(a.cumulative_ber, b.cumulative_ber)
        assert_array_equal(a.mse, b.mse)

    def test_diverging_runs_are_flagged_and_excluded(self):
        # a hopelessly large step size blows the filter up within the packet
        cfg = tiny_config(
            "fullrank", branches=[BranchParams(mu=50.0)], n_symbols=400, n_runs=3
        )
        rec = run_experiment(cfg)
        assert rec.diverged_runs == 3
        assert np.all(np.isnan(rec.per_run_ber))
        assert np.isnan(rec.final_ber)

    def test_partial_divergence_keeps_good_runs(self):
        cfg = tiny_config(
            "fullrank", branches=[BranchParams(mu=50.0)], n_symbols=400, n_runs=3
        )
        good = tiny_config("fullrank", n_symbols=400, n_runs=3)
        rec_bad = run_experiment(cfg)
        rec_good = run_experiment(good)
        assert rec_bad.diverged_runs == 3
        assert rec_good.diverged_runs == 0
        assert np.all(np.isfinite(rec_good.per_run_ber))

    def test_blown_up_scheme_counts_as_diverged(self, monkeypatch):
        # at this seed one run trips the mixing node's finiteness guard
        # (Diverged) and two fail the harness's own finiteness check
        monkeypatch.setenv("RRFILT_THREADS", "1")
        wild = BranchParams(mu=50.0, rank=2, interp_len=2, eta=50.0)
        cfg = tiny_config("scheme_b", branches=[wild, wild], n_symbols=400)
        rec = run_experiment(cfg)
        assert rec.diverged_runs == 3
        assert np.all(np.isnan(rec.per_run_ber))

    @pytest.mark.parametrize(
        "scheme,owner", [("jidf", JidfFilter), ("scheme_b", SchemeB)]
    )
    def test_programming_errors_propagate(self, scheme, owner, monkeypatch):
        # only the Diverged signal marks a run as diverged; any other
        # ValueError raised by a step is a bug and must not vanish from
        # the averages
        def broken_step(self, r, d):
            raise ValueError("shape bug")

        monkeypatch.setattr(owner, "step", broken_step)
        monkeypatch.setenv("RRFILT_THREADS", "1")
        with pytest.raises(ValueError, match="shape bug") as info:
            run_experiment(tiny_config(scheme))
        assert not isinstance(info.value, Diverged)

    def test_mmse_tracks_fading_well(self):
        cfg = tiny_config("mmse", n_symbols=300, n_runs=3)
        rec = run_experiment(cfg)
        assert rec.final_ber <= 0.05


class TestSnrSweep:
    def test_empty_list_is_a_no_op(self):
        assert snr_sweep(tiny_config("jidf"), []) == []

    def test_single_point_equals_run_experiment(self):
        cfg = tiny_config("jidf")
        (swept,) = snr_sweep(cfg, [12.0])
        direct = run_experiment(
            dataclasses.replace(cfg, cdma=dataclasses.replace(cfg.cdma, snr_db=12.0))
        )
        assert_array_equal(swept.cumulative_ber, direct.cumulative_ber)
        assert_array_equal(swept.mse, direct.mse)

    def test_mmse_improves_with_snr(self):
        cfg = tiny_config("mmse", n_symbols=400, n_runs=3)
        records = snr_sweep(cfg, [0.0, 20.0])
        assert records[1].final_ber <= records[0].final_ber


class TestCsv:
    def test_round_trip_to_ten_significant_digits(self, tmp_path):
        rec = run_experiment(tiny_config("scheme_b"))
        path = tmp_path / "out.csv"
        write_csv(rec, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == rec.n_symbols
        for i in (0, 40, 79):
            row = rows[i]
            assert int(row["symbol"]) == i + 1
            assert float(row["mse"]) == pytest.approx(rec.mse[i], rel=1e-9)
            assert float(row["ber"]) == pytest.approx(
                rec.cumulative_ber[i], rel=1e-9, abs=1e-12
            )
            assert float(row["lambda_c"]) == pytest.approx(rec.lambda_c[i], rel=1e-9)
            assert row["lambda_a"] == "" and row["lambda_b"] == ""
            assert int(row["b_opt_mode"]) == rec.b_opt_mode[i]

    def test_empty_record_writes_header_only(self, tmp_path):
        empty = ExperimentRecord(
            scheme="jidf", n_symbols=0, n_runs=0, diverged_runs=0,
            cumulative_ber=np.array([]), mse=np.array([]), lambda_a=None,
            lambda_b=None, lambda_c=None, b_opt_mode=None, branch_hist=None,
            per_run_ber=np.array([]), final_ber=float("nan"), wall_time=0.0,
            complexity=None,
        )
        path = tmp_path / "empty.csv"
        write_csv(empty, path)
        lines = path.read_text().splitlines()
        assert lines == ["symbol,mse,ber,lambda_a,lambda_b,lambda_c,b_opt_mode"]

    def test_sweep_rows(self, tmp_path):
        cfg = tiny_config("mmse", n_symbols=60, n_runs=2)
        snrs = [6.0, 15.0]
        records = snr_sweep(cfg, snrs)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(snrs, records, path)
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [float(r["snr_db"]) for r in rows] == snrs
        for rec, row in zip(records, rows):
            assert float(row["ber"]) == pytest.approx(rec.final_ber, abs=1e-12)


class TestCli:
    def _write_cfg(self, tmp_path):
        text = """
scheme: jidf
seed: 3
n_symbols: 60
n_runs: 2
n_branches: 2
cdma: {users: 2, chips: 8, paths: 3, snr_db: 12.0, doppler: 1.0e-3}
branches:
  - {rank: 3, interp_len: 2, eta: 0.01, mu: 0.05}
"""
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        return path

    def test_run_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "res.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "final_ber" in captured

    def test_seed_override_changes_results(self, tmp_path):
        cfg = self._write_cfg(tmp_path)
        out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        main(["run", "--config", str(cfg), "--out", str(out1)])
        main(["run", "--config", str(cfg), "--seed", "3", "--out", str(out2)])
        main(["run", "--config", str(cfg), "--seed", "99", "--out", str(out3)])
        assert out1.read_text() == out2.read_text()
        assert out1.read_text() != out3.read_text()

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--snr", "8,16",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,ber,mse,diverged_runs"
        assert len(lines) == 3

    def test_complexity_command(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        assert main(["complexity", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "scheme,additions,multiplications"
        # M = 8 + 3 - 1 = 10, I=2, D=3, B=2
        assert out[1] == f"jidf,{10*1 + 3*3 + 4},{10*2 + 4*3}"

    def test_missing_config_is_reported(self, capsys):
        assert main(["run", "--config", "/nonexistent.yaml"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_out_key_sets_default_path(self, tmp_path, monkeypatch):
        cfg = self._write_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + "out: from_config.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.csv").exists()
        # explicit --out wins over the config key
        assert main(["run", "--config", str(cfg), "--out", "explicit.csv"]) == 0
        assert (tmp_path / "explicit.csv").exists()


# edits of configs/scheme_b.yaml whose values the filter or combiner
# constructors reject
_CONSTRUCTOR_REJECTS = {
    "rank": lambda c: c["branches"][0].update(rank=99),
    "interp_len": lambda c: c["branches"][0].update(interp_len=99),
    "n_branches": lambda c: c.update(n_branches=40),
    "branch_mu": lambda c: c["branches"][0].update(mu=-1),
    "mu_c": lambda c: c.update(combiners={"mu_c": -1}),
}
_NON_FINITE = {
    "u_max_nan": lambda c: c.update(u_max=math.nan),
    "snr_db_nan": lambda c: c["cdma"].update(snr_db=math.nan),
    "snr_db_minus_inf": lambda c: c["cdma"].update(snr_db=-math.inf),
    "doppler_nan": lambda c: c["cdma"].update(doppler=math.nan),
    "doppler_inf": lambda c: c["cdma"].update(doppler=math.inf),
    "branch_mu_nan": lambda c: c["branches"][0].update(mu=math.nan),
    "branch_eta_nan": lambda c: c["branches"][1].update(eta=math.nan),
    "mu_c_nan": lambda c: c.update(combiners={"mu_c": math.nan}),
}
# amplitude and path-profile edits, applied to configs/mmse.yaml and
# configs/scheme_b.yaml; the MMSE covariance weights are amplitudes**2
_BAD_CDMA = {
    "desired_amplitude_nan": lambda c: c["cdma"]["amplitudes"].__setitem__(0, math.nan),
    "interferer_amplitude_nan": lambda c: c["cdma"]["amplitudes"].__setitem__(3, math.nan),
    "desired_amplitude_inf": lambda c: c["cdma"]["amplitudes"].__setitem__(0, math.inf),
    "interferer_amplitude_inf": lambda c: c["cdma"]["amplitudes"].__setitem__(3, math.inf),
    "path_profile_empty": lambda c: c["cdma"].update(path_profile_db=[]),
    "path_profile_nan": lambda c: c["cdma"].update(path_profile_db=[0.0, math.nan, -9.0]),
    "path_profile_inf": lambda c: c["cdma"].update(path_profile_db=[0.0, -3.0, -math.inf]),
    "path_profile_overflow": lambda c: c["cdma"].update(path_profile_db=[0.0, 4000.0]),
    "path_profile_underflow": lambda c: c["cdma"].update(path_profile_db=[-4000.0, -4000.0]),
}
# values that do not convert to the key's type: (edit, key named in the error)
_UNCONVERTIBLE = {
    "branch_mu": (lambda c: c["branches"][0].update(mu="abc"), "branches[0].mu"),
    "n_symbols": (lambda c: c.update(n_symbols="abc"), "n_symbols"),
    "combiner_mu_c": (lambda c: c.update(combiners={"mu_c": "xyz"}), "combiners.mu_c"),
    "cdma_users_list": (lambda c: c["cdma"].update(users=[8]), "cdma.users"),
}


class TestCliRejectsBadValues:
    def _edited(self, tmp_path, edit, config="scheme_b.yaml"):
        data = yaml.safe_load((CONFIGS / config).read_text())
        data.update(n_symbols=60, n_runs=1)
        edit(data)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        return path

    @pytest.mark.parametrize(
        "edit", list(_CONSTRUCTOR_REJECTS.values()) + list(_NON_FINITE.values()),
        ids=list(_CONSTRUCTOR_REJECTS) + list(_NON_FINITE),
    )
    def test_reported_as_config_error(self, tmp_path, capsys, edit):
        cfg = self._edited(tmp_path, edit)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("config", ["mmse.yaml", "scheme_b.yaml"])
    @pytest.mark.parametrize("edit", list(_BAD_CDMA.values()), ids=list(_BAD_CDMA))
    def test_bad_amplitudes_and_path_profile(self, tmp_path, capsys, edit, config):
        cfg = self._edited(tmp_path, edit, config)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: cdma section: ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "edit,key", list(_UNCONVERTIBLE.values()), ids=list(_UNCONVERTIBLE)
    )
    def test_unconvertible_value_names_its_key(self, tmp_path, capsys, edit, key):
        cfg = self._edited(tmp_path, edit)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "o.csv").exists()

    def test_noiseless_snr_still_runs(self, tmp_path, capsys):
        cfg = self._edited(tmp_path, lambda c: c["cdma"].update(snr_db=math.inf))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        assert "(diverged=0)" in capsys.readouterr().out

    @pytest.mark.parametrize("snr", ["nan", "-inf", "abc"])
    def test_bad_sweep_point_reported(self, tmp_path, capsys, snr):
        cfg = self._edited(tmp_path, lambda c: None)
        assert main(["sweep", "--config", str(cfg), "--snr", f"10,{snr}"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
