"""Experiment configuration, Monte-Carlo runner, CSV output, and CLI."""

import copy
import csv
import ctypes
import dataclasses
import math
import multiprocessing
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import types
from concurrent import futures
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rrfilt import filters, harness
from rrfilt.cdma import CdmaConfig
from rrfilt.combiners import SchemeA, SchemeB
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

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
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
        assert cfg.combiners == {"mu_c": 0.25}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("content,problem", [
        (b"scheme: [jidf\n", "not valid YAML"),
        (b"# caf\xff\nscheme: jidf\n", "not valid UTF-8"),
    ], ids=["yaml", "utf8"])
    def test_malformed_yaml_rejected(self, tmp_path, content, problem):
        path = tmp_path / "bad.yaml"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=problem) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            config_from_dict({"scheme": "mmse", "seed": -3})
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            tiny_config("mmse", seed=-1).validate()

    @pytest.mark.parametrize("value", [5, "abc", {"mu": 0.1}, True])
    def test_branches_must_be_a_list(self, value):
        with pytest.raises(ConfigError, match="branches must be a list"):
            config_from_dict({"scheme": "fullrank", "branches": value})

    @pytest.mark.parametrize("value", [0, "abc", [{"mu_a": 0.1}]])
    def test_combiners_must_be_a_mapping(self, value):
        with pytest.raises(ConfigError, match="combiners section must be a mapping"):
            config_from_dict({"scheme": "mmse", "combiners": value})

    def test_sizes_past_any_index_rejected(self):
        # 1e300 is an exact integer, too large for any array index
        for scheme, branch in (("fullrank", {"mu": 0.1}),
                               ("jidf", {"mu": 0.1, "rank": 3, "interp_len": 2, "eta": 0.01})):
            with pytest.raises(ConfigError, match=f"scheme '{scheme}'"):
                config_from_dict(
                    {"scheme": scheme, "branches": [branch], "cdma": {"chips": 1e300}}
                )
        # so is the window length, for every scheme: the MMSE oracle builds
        # nothing in validate, and used to start its run on such a config
        for scheme in harness.SCHEMES:
            branches = [
                {k: v for k, v in dataclasses.asdict(b).items() if v is not None}
                for b in tiny_config(scheme).branches
            ]
            for cdma in ({"chips": 1e300}, {"chips": sys.maxsize}, {"paths": sys.maxsize}):
                with pytest.raises(ConfigError, match="window length chips . paths - 1"):
                    config_from_dict({"scheme": scheme, "n_symbols": 5, "n_runs": 1,
                                      "branches": branches, "cdma": cdma})
        # run and symbol counts are checked before any run starts
        for key in ("n_runs", "n_symbols"):
            for value in (1e300, sys.maxsize + 1):
                with pytest.raises(ConfigError, match="n_symbols and n_runs must be <="):
                    config_from_dict({"scheme": "mmse", key: value})
        # so is the branch count, for every scheme, not only where a
        # reduced-rank filter bank is built
        for scheme, branches in (("fullrank", [{"mu": 0.1}]),
                                 ("clms", [{"mu": 0.1}, {"mu": 0.2}]),
                                 ("mmse", [])):
            for value in (1e300, sys.maxsize + 1, 0):
                with pytest.raises(ConfigError, match="n_branches must satisfy"):
                    config_from_dict(
                        {"scheme": scheme, "branches": branches, "n_branches": value}
                    )

    @pytest.mark.parametrize("u_max", [36.74, 100.0, math.inf, math.nan, 0.0])
    def test_u_max_must_keep_the_sigmoid_below_one(self, u_max):
        for scheme in harness.SCHEMES:
            with pytest.raises(ConfigError, match="u_max must be positive"):
                tiny_config(scheme, u_max=u_max).validate()

    # fields a library caller sets to a wrong type, and the key each error names
    @pytest.mark.parametrize("scheme,changes,key", [
        ("scheme_b", {"combiners": None}, "combiners"),
        ("scheme_b", {"combiners": 0.3}, "combiners"),
        ("scheme_b", {"combiners": {"mu_c": "x"}}, "combiners.mu_c"),
        ("scheme_b", {"combiners": {"mu_c": True}}, "combiners.mu_c"),
        ("fullrank", {"branches": None}, "branches"),
        ("fullrank", {"branches": [{"mu": 0.1}]}, "branches[0]"),
        ("fullrank", {"cdma": {}}, "cdma"),
        ("fullrank", {"seed": "1"}, "seed"),
    ], ids=["combiners_none", "combiners_number", "mu_c_string", "mu_c_bool",
            "branches_none", "branch_mapping", "cdma_mapping", "seed_string"])
    def test_wrong_types_are_config_errors(self, scheme, changes, key):
        # a run or a sweep validates before it reads the noise variance
        cfg = tiny_config(scheme, **changes)
        for call in (cfg.validate, lambda: run_experiment(cfg), lambda: snr_sweep(cfg, [6.0])):
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
                call()

    def test_null_sections_take_the_defaults(self):
        cfg = config_from_dict(
            {"scheme": "mmse", "cdma": None, "branches": None, "combiners": None}
        )
        assert cfg.branches == [] and cfg.combiners == {} and cfg.cdma == CdmaConfig()

    def test_unknown_keys_of_mixed_types_are_listed(self):
        with pytest.raises(ConfigError, match=r"unknown configuration keys: \[1, 'foo'\]"):
            config_from_dict({"scheme": "mmse", "foo": 1, 1: 2})


# mixing-node step sizes of the committed configs, by node name
_COMMITTED_NODE_MUS = {
    "fullrank": {}, "clms": {"a": 0.25}, "jidf": {},
    "scheme_a": {"a": 0.25, "b": 0.25, "c": 0.25}, "scheme_b": {"c": 0.25}, "mmse": {},
}


class TestNodeStepSizes:
    """``combiners`` takes ``mu_<node>`` for the scheme's own nodes only."""

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_one_name_per_tree_node(self, scheme):
        spec = harness._SCHEMES[scheme]
        assert len(spec.nodes) == (len(spec.tree.NODES) if spec.tree else 0)

    @pytest.mark.parametrize("combiners", [{"mu_a": 0.25}, {"mu_b": -5.0},
                                           {"mu_c": 0.25, "mu_a": 0.9}])
    def test_scheme_b_refuses_other_nodes(self, combiners):
        data = yaml.safe_load((CONFIGS / "scheme_b.yaml").read_text())
        data["combiners"] = combiners
        (key,) = set(combiners) - {"mu_c"}
        with pytest.raises(ConfigError, match=rf"\['{key}'\].*\['mu_c'\]"):
            config_from_dict(data)

    @pytest.mark.parametrize("scheme", ["fullrank", "jidf", "mmse"])
    @pytest.mark.parametrize("key", ["mu_a", "mu_b", "mu_c", "mu_z"])
    def test_schemes_without_nodes_take_none(self, scheme, key):
        data = yaml.safe_load((CONFIGS / f"{scheme}.yaml").read_text())
        data["combiners"] = {key: 0.25}
        with pytest.raises(ConfigError, match=rf"\['{key}'\].*takes none"):
            config_from_dict(data)
        with pytest.raises(ConfigError, match=key):
            tiny_config(scheme, combiners={key: 0.25}).validate()

    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_committed_configs_build_their_step_sizes(self, scheme):
        cfg = load_config(CONFIGS / f"{scheme}.yaml")
        built = None if scheme == "mmse" else harness._build_scheme(cfg)
        mus = [c.mu for c in getattr(built, "combiners", [])]
        assert dict(zip(harness._SCHEMES[scheme].nodes, mus)) == _COMMITTED_NODE_MUS[scheme]
        assert len(mus) == len(_COMMITTED_NODE_MUS[scheme])

    def test_each_node_reads_its_own_key(self):
        cfg = tiny_config("scheme_a", combiners={"mu_b": 0.5, "mu_c": 0.125})
        built = harness._build_scheme(cfg)
        assert [c.mu for c in built.combiners] == [0.25, 0.5, 0.125]  # 0.25: no key
        built = harness._build_scheme(tiny_config("scheme_b", combiners={"mu_c": 0.5}))
        assert [c.mu for c in built.combiners] == [0.5]


# a valid tiny config of each adaptive scheme, as a config file would hold it
_FUZZ_BASE = {
    "scheme": "scheme_b", "seed": 3, "n_symbols": 40, "n_runs": 2,
    "train_mode": "semi", "train_symbols": 10, "n_branches": 2, "u_max": 4.0,
    "out": "o.csv",
    "cdma": {"users": 2, "chips": 8, "paths": 3, "snr_db": 12.0, "doppler": 1e-3,
             "amplitudes": [1.0, 0.5]},
    "branches": [{"rank": 2, "interp_len": 2, "eta": 0.01, "mu": 0.1},
                 {"rank": 5, "interp_len": 3, "eta": 0.005, "mu": 0.02}],
    "combiners": {"mu_c": 0.25},
}
# values of every wrong (and some right) type; sizes stay small, so that a
# value that loads builds only small filters
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.floats(-100, 100),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 2.5, -4000.0]),
    st.text(max_size=4), st.sampled_from(harness.SCHEMES),
    st.lists(st.one_of(st.integers(-2, 9), st.floats(-2, 2), st.text(max_size=2)),
             max_size=3),
    st.dictionaries(st.one_of(st.text(max_size=3), st.integers(0, 3)),
                    st.integers(-2, 9), max_size=2),
)


class TestConfigFuzz:
    """A fuzzed config mapping either loads or raises :class:`ConfigError`:
    never any other exception."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_loads_or_raises_config_error(self, data):
        cfg = copy.deepcopy(_FUZZ_BASE)
        # the path of a value to replace: a top-level key, or a key of the
        # cdma or combiners section or of one branch, or a branch entry
        where = data.draw(st.sampled_from(["top", "cdma", "combiners", "branch", "entry"]))
        if where == "top":
            owner, key = cfg, data.draw(st.sampled_from(sorted(harness._TOP_KEYS)))
        elif where == "entry":
            owner, key = cfg["branches"], data.draw(st.integers(0, 1))
        else:
            owner = cfg["branches"][data.draw(st.integers(0, 1))] if where == "branch" \
                else cfg[where]
            key = data.draw(st.sampled_from(sorted(owner)))
        owner[key] = data.draw(_JUNK, label=f"{where}[{key!r}]")
        if data.draw(st.integers(0, 4), label="extra key") == 0:
            cfg[data.draw(st.one_of(st.text(max_size=3), st.integers()))] = 1
        try:
            loaded = config_from_dict(cfg)
        except ConfigError:
            return
        loaded.validate()


# constituents per adaptive scheme, and the schemes whose constituents are
# reduced-rank filters
_N_FILTERS = {"fullrank": 1, "clms": 2, "jidf": 1, "scheme_a": 4, "scheme_b": 2}
_REDUCED_RANK = {"jidf", "scheme_a", "scheme_b"}


class TestComplexityReport:
    """The closed forms of single filters are criterion 4's
    (``test_acceptance.py``); these are the counts of whole schemes."""

    @pytest.mark.parametrize("name, counts", [
        ("fullrank", (80, 81)), ("clms", (165, 166)), ("jidf", (122, 160)),
        ("scheme_a", (758, 900)), ("scheme_b", (379, 450)), ("mmse", None),
    ])
    def test_committed_configs(self, name, counts):
        assert complexity_report(load_config(CONFIGS / f"{name}.yaml")) == counts

    @pytest.mark.parametrize("cfg", [
        ExperimentConfig("rls"),
        ExperimentConfig("jidf"),
        # one branch entry for a scheme of two constituents
        ExperimentConfig("scheme_b", branches=[BranchParams(mu=0.1, rank=4, interp_len=3)]),
    ])
    def test_invalid_config_rejected(self, cfg):
        with pytest.raises(ConfigError):
            complexity_report(cfg)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_sum_of_closed_forms(self, data):
        scheme = data.draw(st.sampled_from(sorted(_N_FILTERS)), label="scheme")
        chips, paths = data.draw(st.integers(1, 48)), data.draw(st.integers(1, 9))
        m = chips + paths - 1
        b = data.draw(st.integers(1, m), label="n_branches")
        # the ranks whose b-branch bank fits the window (signalcore's rule)
        fits = [d for d in range(1, m + 1) if b - 1 + (d - 1) * (m // d) < m]
        branches, adds, mults = [], 0, 0
        for _ in range(_N_FILTERS[scheme]):
            if scheme in _REDUCED_RANK:
                i = data.draw(st.integers(1, m), label="interp_len")
                d = data.draw(st.sampled_from(fits), label="rank")
                branches.append(BranchParams(mu=0.1, rank=d, interp_len=i, eta=0.01))
                adds += m * (i - 1) + (b + 1) * d + 2 * i
                mults += m * i + (b + 2) * d
            else:
                branches.append(BranchParams(mu=0.1))
                adds += 2 * m
                mults += 2 * m + 1
        if scheme == "clms":  # its one mixing node: 5 additions, 4 multiplications
            adds, mults = adds + 5, mults + 4
        cfg = ExperimentConfig(
            scheme=scheme, cdma=CdmaConfig(n_users=1, n_chips=chips, n_paths=paths),
            n_branches=b, branches=branches,
        )
        cfg.validate()
        counts = complexity_report(cfg)
        assert counts == (adds, mults)
        # the golden digests hash repr(complexity): Python ints, not numpy's
        assert [type(c) for c in counts] == [int, int]


class TestRunExperiment:
    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_record_shapes_and_ranges(self, scheme):
        cfg = tiny_config(scheme)
        rec = run_experiment(cfg)
        assert rec.diverged_runs == 0
        assert rec.cumulative_ber.shape == (80,)
        assert rec.mse.shape == (80,)
        assert np.all((rec.cumulative_ber >= 0) & (rec.cumulative_ber <= 1))
        # one mixing column per node, strictly convex
        assert rec.lambdas.shape == (80, len(harness._SCHEMES[scheme].nodes))
        assert rec.lambdas.dtype == np.float64
        assert np.all((rec.lambdas > 0) & (rec.lambdas < 1))
        if scheme in ("jidf", "scheme_b", "scheme_a"):
            # constituents * symbols * runs
            assert rec.branch_hist.sum() == len(cfg.branches) * 80 * 3
            assert rec.b_opt_mode.shape == (80,)
        else:
            assert rec.branch_hist is None and rec.b_opt_mode is None
        assert (rec.complexity is None) == (scheme == "mmse")
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
        assert_array_equal(a.lambdas, b.lambdas)
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
        # the constituents blow up; the mixing node skips its update on the
        # non-finite values and passes them on, so each run ends at the
        # harness's one divergence rule: a non-finite output or error
        monkeypatch.setenv("RRFILT_THREADS", "1")
        wild = BranchParams(mu=50.0, rank=2, interp_len=2, eta=50.0)
        cfg = tiny_config("scheme_b", branches=[wild, wild], n_symbols=400)
        rec = run_experiment(cfg)
        assert rec.diverged_runs == 3
        assert np.all(np.isnan(rec.per_run_ber))
        assert rec.lambdas.shape == (400, 1) and np.all(np.isnan(rec.lambdas))

    @pytest.mark.parametrize(
        "scheme,owner", [("jidf", JidfFilter), ("scheme_b", SchemeB)]
    )
    def test_programming_errors_propagate(self, scheme, owner, monkeypatch):
        # a run diverges only on a non-finite output or error; a ValueError
        # raised by a step is a bug and must not vanish from the averages
        def broken_step(self, r, d):
            raise ValueError("shape bug")

        monkeypatch.setattr(owner, "step", broken_step)
        monkeypatch.setenv("RRFILT_THREADS", "1")
        with pytest.raises(ValueError, match="shape bug"):
            run_experiment(tiny_config(scheme))

    @pytest.mark.parametrize(
        "scheme,mode,per_symbol", [("scheme_b", "semi", 2), ("scheme_a", "supervised", 4)]
    )
    def test_one_regressor_per_constituent_per_symbol(self, monkeypatch, scheme, mode,
                                                      per_symbol):
        # a decision-directed symbol builds each constituent's regressor once,
        # for its prediction and its step alike, and the harness never calls
        # the scheme's predict
        built = []
        original = filters.build_hankel

        def counted(*args):
            built.append(args[1:])
            return original(*args)

        def no_predict(self, r):
            raise AssertionError("predict called")

        monkeypatch.setattr(filters, "build_hankel", counted)
        monkeypatch.setattr({"scheme_a": SchemeA, "scheme_b": SchemeB}[scheme],
                            "predict", no_predict)
        monkeypatch.setenv("RRFILT_THREADS", "1")
        cfg = tiny_config(scheme, train_mode=mode, train_symbols=20)
        rec = run_experiment(cfg)
        assert rec.diverged_runs == 0
        assert len(built) == per_symbol * cfg.n_symbols * cfg.n_runs

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


def assert_same_record(got, want):
    """Every field but ``wall_time`` equal bit for bit (dtype, shape, bytes)."""
    for f in dataclasses.fields(ExperimentRecord):
        if f.name == "wall_time":
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert repr(a) == repr(b), f.name


def _failing_unit(cfg, noise_vars, runs):
    raise RuntimeError("unit failed")


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if its BLAS
    exports no OpenBLAS getter."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_", "_64"):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


def _blas_threads_unit(cfg, noise_vars, runs):
    return [[_blas_threads()] * len(noise_vars) for _ in runs]


def assert_same_run(got, want):
    """Every field of two runs' results equal bit for bit."""
    for f in dataclasses.fields(harness._RunResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        else:
            assert a == b, f.name


class TestWorkUnits:
    """A work unit steps its runs at every point as lanes of one bank; a
    run's results must not depend on the unit it runs in or its lane."""

    @staticmethod
    def _assert_unit_equals_runs_alone(cfg, noise_vars) -> list:
        """Runs 0 and 1 at every point, as one unit (run 0 in the first
        lanes, run 1 in the last), against each run at each point alone."""
        unit = harness._single_run(cfg, noise_vars, range(0, 2))
        for run, results in zip(range(2), unit, strict=True):
            for point, noise_var in enumerate(noise_vars):
                (alone,) = harness._single_run(cfg, (noise_var,), range(run, run + 1))[0]
                assert_same_run(results[point], alone)
        return unit

    @pytest.mark.parametrize("mode", ["supervised", "semi"])
    @pytest.mark.parametrize("scheme", harness.SCHEMES)
    def test_a_run_is_the_same_alone_and_in_either_lane(self, scheme, mode):
        cfg = tiny_config(scheme, train_mode=mode, train_symbols=20, n_symbols=50)
        self._assert_unit_equals_runs_alone(
            cfg, (cfg.cdma.noise_variance, 4 * cfg.cdma.noise_variance)
        )

    def test_a_diverged_lane_leaves_the_others(self):
        # the second point's noise blows the filter up; the first point's
        # lanes, which share the bank, must not notice
        cfg = tiny_config("fullrank", branches=[BranchParams(mu=0.5)], n_symbols=200)
        unit = self._assert_unit_equals_runs_alone(cfg, (cfg.cdma.noise_variance, 1e6))
        assert [[r.diverged for r in results] for results in unit] == [[False, True]] * 2

    def test_unit_memory_grows_by_less_than_a_block_per_lane(self):
        # the windows come slice by slice: five more lanes and one more run
        # must cost less than two whole received blocks (one block is
        # 1500 x 40 x 16 B = 0.96 MB), where whole blocks cost one a lane
        cfg = dataclasses.replace(
            load_config(CONFIGS / "scheme_b.yaml"), train_mode="semi", train_symbols=200
        )
        block = cfg.n_symbols * cfg.cdma.window_len * 16
        variance = cfg.cdma.noise_variance

        def peak(runs, noise_vars):
            tracemalloc.start()
            try:
                harness._single_run(cfg, noise_vars, runs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a short untraced run first, so one-time allocations land in
        # neither reading and the test reads the same alone as in the suite
        harness._single_run(dataclasses.replace(cfg, n_symbols=300), (variance,), range(1))
        small = peak(range(1), (variance,))
        wide = peak(range(2), (variance, 4 * variance, 16 * variance))
        assert wide - small < 2 * block


class TestMonteCarloEngine:
    SNRS = [6.0, 12.0, math.inf]

    @pytest.fixture
    def pools(self, monkeypatch):
        """Pool constructions, counted through the name the engine imports
        when it starts a pool; two CPUs, so that ``RRFILT_THREADS=2`` means
        two workers on any box."""
        made = []

        class Counting(futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Counting)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        return made

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "scheme,mode", [("scheme_b", "semi"), ("mmse", "supervised")]
    )
    def test_sweep_points_equal_their_own_runs(self, monkeypatch, pools, scheme, mode,
                                               threads):
        monkeypatch.setenv("RRFILT_THREADS", threads)
        cfg = tiny_config(scheme, train_mode=mode, train_symbols=30)
        swept = snr_sweep(cfg, self.SNRS)
        assert len(swept) == 3
        assert len({rec.wall_time for rec in swept}) == 1  # one call, one time
        for snr, rec in zip(self.SNRS, swept):
            point = dataclasses.replace(cfg, cdma=dataclasses.replace(cfg.cdma, snr_db=snr))
            assert_same_record(rec, run_experiment(point))
        # the points differ, so the check above compares three distinct records
        assert swept[0].mse.tobytes() != swept[2].mse.tobytes()
        # with two workers, the sweep and each of the three runs took one pool
        assert pools == ([2] * 4 if threads == "2" else [])

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_units_of_two_runs_at_every_point(self, monkeypatch, pools, threads):
        # five runs at three points: units of runs 0-1, 2-3 and 4, each
        # stepping six, six and three lanes
        monkeypatch.setenv("RRFILT_THREADS", threads)
        units = []
        unit = harness._single_run

        def recorded(cfg, noise_vars, runs):
            units.append((runs, len(noise_vars)))
            return unit(cfg, noise_vars, runs)

        if threads == "1":  # a pool cannot take a local function
            monkeypatch.setattr(harness, "_single_run", recorded)
        cfg = tiny_config("scheme_b", train_mode="semi", train_symbols=30, n_runs=5)
        swept = snr_sweep(cfg, self.SNRS)
        monkeypatch.setattr(harness, "_single_run", unit)
        if threads == "1":
            assert units == [(range(0, 2), 3), (range(2, 4), 3), (range(4, 5), 3)]
        for snr, rec in zip(self.SNRS, swept):
            point = dataclasses.replace(cfg, cdma=dataclasses.replace(cfg.cdma, snr_db=snr))
            assert_same_record(rec, run_experiment(point))
        assert pools == ([2] * 4 if threads == "2" else [])

    def test_reduction_under_partial_and_total_divergence(self, monkeypatch):
        # a reduced-rank scheme (CI's tiny scheme_a config) whose runs all
        # survive at 6 dB, half diverge at -8 dB and all diverge at -30 dB
        monkeypatch.setenv("RRFILT_THREADS", "1")
        cfg = config_from_dict(dict(
            scheme="scheme_a", seed=11, n_symbols=200, n_runs=4, n_branches=4,
            cdma=dict(users=4, chips=16, paths=5, snr_db=12.0, doppler=1e-3),
            branches=[
                dict(rank=3, interp_len=3, eta=0.01, mu=0.1),
                dict(rank=6, interp_len=4, eta=0.01, mu=0.1),
                dict(rank=3, interp_len=3, eta=0.0075, mu=0.01),
                dict(rank=6, interp_len=4, eta=0.0075, mu=0.01),
            ],
        ))
        snrs = [6.0, -8.0, -30.0]
        points = [dataclasses.replace(cfg, cdma=dataclasses.replace(cfg.cdma, snr_db=snr))
                  for snr in snrs]
        swept = snr_sweep(cfg, snrs)
        assert [rec.diverged_runs for rec in swept] == [0, 2, 4]
        # each run's per-run BER is NaN exactly where that run diverged
        unit = harness._single_run(cfg, tuple(p.cdma.noise_variance for p in points), range(4))
        for k, rec in enumerate(swept):
            assert np.isnan(rec.per_run_ber).tolist() == [run[k].diverged for run in unit]
            assert rec.branch_hist.dtype == np.int64 and rec.branch_hist.shape == (4,)
        partial, total = swept[1], swept[2]
        assert partial.final_ber == pytest.approx(np.nanmean(partial.per_run_ber))
        # 2 surviving runs, 4 constituents, 200 symbols
        assert partial.branch_hist.sum() == 2 * 4 * 200
        assert partial.b_opt_mode.shape == (200,)
        assert ((partial.b_opt_mode >= 0) & (partial.b_opt_mode < 4)).all()
        # no survivor: every average NaN, in its usual shape, and no branches
        assert total.cumulative_ber.shape == total.mse.shape == (200,)
        assert np.isnan(total.cumulative_ber).all() and np.isnan(total.mse).all()
        assert total.lambdas.shape == (200, 3) and np.isnan(total.lambdas).all()
        assert np.isnan(total.per_run_ber).all() and math.isnan(total.final_ber)
        # np.nan's bits, where a 0 / 0 mean would set the sign bit
        for values in (total.cumulative_ber, total.mse, total.lambdas):
            assert values.tobytes() == np.full(values.shape, np.nan).tobytes()
        assert total.branch_hist.tolist() == [0, 0, 0, 0]
        assert total.b_opt_mode is None
        for point, rec in zip(points, swept):
            assert_same_record(rec, run_experiment(point))

    def test_one_pool_per_call(self, monkeypatch, pools):
        monkeypatch.setenv("RRFILT_THREADS", "2")
        snr_sweep(tiny_config("scheme_b", n_runs=4), [6.0, 12.0, 18.0])
        assert pools == [2]
        run_experiment(tiny_config("jidf", n_runs=3))  # two units
        assert pools == [2, 2]
        # a single work unit (at most two runs), or a single worker, starts
        # no pool
        run_experiment(tiny_config("jidf", n_runs=1))
        run_experiment(tiny_config("jidf", n_runs=2))
        snr_sweep(tiny_config("jidf", n_runs=1), [6.0, 12.0])
        monkeypatch.setenv("RRFILT_THREADS", "1")
        snr_sweep(tiny_config("jidf", n_runs=4), [6.0, 12.0])
        assert pools == [2, 2]

    def test_every_point_validated_before_any_work(self, monkeypatch):
        def unit_must_not_run(*args):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "_single_run", unit_must_not_run)
        with pytest.raises(ConfigError, match="SNR point"):
            snr_sweep(tiny_config("jidf"), [12.0, math.nan])
        bad = tiny_config("jidf", n_runs=0)
        with pytest.raises(ConfigError, match="n_runs"):
            snr_sweep(bad, [6.0, 12.0])

    def test_no_worker_outlives_the_call(self, monkeypatch, pools):
        monkeypatch.setenv("RRFILT_THREADS", "2")
        snr_sweep(tiny_config("jidf", n_runs=3), [6.0, 12.0])
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(harness, "_single_run", _failing_unit)
        with pytest.raises(RuntimeError, match="unit failed"):
            snr_sweep(tiny_config("jidf", n_runs=3), [6.0, 12.0])
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="unit failed"):
            run_experiment(tiny_config("jidf", n_runs=3))
        assert multiprocessing.active_children() == []
        assert pools == [2, 2, 2]

    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch, pools):
        if _blas_threads() is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS with a thread getter")
        monkeypatch.delenv("RRFILT_THREADS", raising=False)
        monkeypatch.setattr(harness, "_single_run", _blas_threads_unit)
        # each point's reduction receives the workers' thread counts
        monkeypatch.setattr(
            harness, "_reduce", lambda point, runs: types.SimpleNamespace(runs=runs)
        )
        cfg = tiny_config("jidf", n_runs=4)
        (seen,) = harness._monte_carlo(cfg, (cfg.cdma.noise_variance,))
        assert pools == [2]
        assert seen.runs == [1] * 4


_CSV_HEADER = "symbol,mse,ber,lambda_a,lambda_b,lambda_c,b_opt_mode"


def row_by_row_csv(record, path):
    """The per-row run CSV writer that `write_csv` replaced, kept verbatim
    as the oracle for its bytes."""

    def _fmt(value) -> str:
        if value is None:
            return ""
        return f"{value:.10g}"

    nodes = harness._SCHEMES[record.scheme].nodes
    lambda_a, lambda_b, lambda_c = (
        record.lambdas[:, nodes.index(node)] if node in nodes else None
        for node in ("a", "b", "c")
    )
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["symbol", "mse", "ber", "lambda_a", "lambda_b", "lambda_c", "b_opt_mode"]
        )
        for i in range(record.n_symbols):
            writer.writerow(
                [
                    i + 1,
                    _fmt(record.mse[i]),
                    _fmt(record.cumulative_ber[i]),
                    _fmt(None if lambda_a is None else lambda_a[i]),
                    _fmt(None if lambda_b is None else lambda_b[i]),
                    _fmt(None if lambda_c is None else lambda_c[i]),
                    "" if record.b_opt_mode is None else int(record.b_opt_mode[i]),
                ]
            )


_CSV_CASES = [
    *(pytest.param(scheme, False, id=scheme) for scheme in harness.SCHEMES),
    # NaN and +-inf cells in the rows the round trip reads back
    pytest.param("scheme_a", True, id="scheme_a-non-finite"),
]


class TestCsv:
    @pytest.mark.parametrize("scheme, non_finite", _CSV_CASES)
    def test_round_trip_to_ten_significant_digits(self, tmp_path, scheme, non_finite):
        rec = run_experiment(tiny_config(scheme))
        if non_finite:
            mse, ber = rec.mse.copy(), rec.cumulative_ber.copy()
            mse[[0, 40, 79]] = [np.nan, np.inf, -np.inf]
            ber[[0, 40, 79]] = [np.inf, -np.inf, np.nan]
            rec = dataclasses.replace(rec, mse=mse, cumulative_ber=ber)
        nodes = harness._SCHEMES[scheme].nodes
        assert rec.lambdas.shape == (rec.n_symbols, len(nodes))
        path = tmp_path / "out.csv"
        write_csv(rec, path)
        reference = tmp_path / "reference.csv"
        row_by_row_csv(rec, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert path.read_text().splitlines()[0] == _CSV_HEADER
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == rec.n_symbols
        for i in (0, 40, 79):
            row = rows[i]
            assert int(row["symbol"]) == i + 1
            assert float(row["mse"]) == pytest.approx(rec.mse[i], rel=1e-9, nan_ok=True)
            assert float(row["ber"]) == pytest.approx(
                rec.cumulative_ber[i], rel=1e-9, abs=1e-12, nan_ok=True
            )
            # node x fills column lambda_x; the other mixing columns stay empty
            for node in "abc":
                cell = row[f"lambda_{node}"]
                if node in nodes:
                    want = rec.lambdas[i, nodes.index(node)]
                    assert float(cell) == pytest.approx(want, rel=1e-9)
                else:
                    assert cell == ""
            if rec.b_opt_mode is None:
                assert row["b_opt_mode"] == ""
            else:
                assert int(row["b_opt_mode"]) == rec.b_opt_mode[i]

    def test_empty_record_writes_header_only(self, tmp_path):
        empty = ExperimentRecord(
            scheme="jidf", n_symbols=0, n_runs=0, diverged_runs=0,
            cumulative_ber=np.array([]), mse=np.array([]), lambdas=np.empty((0, 0)),
            b_opt_mode=None, branch_hist=None,
            per_run_ber=np.array([]), final_ber=float("nan"), wall_time=0.0,
            complexity=None,
        )
        path = tmp_path / "empty.csv"
        write_csv(empty, path)
        lines = path.read_text().splitlines()
        assert lines == [_CSV_HEADER]

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

    def test_sweep_length_mismatch_rejected(self, tmp_path):
        records = snr_sweep(tiny_config("mmse", n_symbols=5, n_runs=1), [6.0])
        path = tmp_path / "sweep.csv"
        with pytest.raises(ValueError, match="3 SNR points but 1 records"):
            write_sweep_csv([1.0, 2.0, 3.0], records, path)
        assert not path.exists()


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

    def test_python_m_rrfilt_runs_without_warnings(self):
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "rrfilt", "complexity",
             "--config", str(CONFIGS / "scheme_a.yaml")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "scheme_a,758,900"
        assert proc.stderr == ""

    def test_import_loads_no_process_pool(self):
        # the pool's modules load only when a pool starts
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        code = (
            "import sys, rrfilt\n"
            f"rrfilt.load_config({str(CONFIGS / 'scheme_b.yaml')!r}).validate()\n"
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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
    "branch_mu_inf": lambda c: c["branches"][0].update(mu=math.inf),
    "branch_eta_inf": lambda c: c["branches"][1].update(eta=math.inf),
    "mu_c_inf": lambda c: c.update(combiners={"mu_c": math.inf}),
}
# amplitude edits, applied to configs/mmse.yaml and configs/scheme_b.yaml;
# the MMSE covariance weights are amplitudes**2
_BAD_CDMA = {
    "desired_amplitude_nan": lambda c: c["cdma"]["amplitudes"].__setitem__(0, math.nan),
    "interferer_amplitude_nan": lambda c: c["cdma"]["amplitudes"].__setitem__(3, math.nan),
    "desired_amplitude_inf": lambda c: c["cdma"]["amplitudes"].__setitem__(0, math.inf),
    "interferer_amplitude_inf": lambda c: c["cdma"]["amplitudes"].__setitem__(3, math.inf),
}
# values that do not convert to the key's type: (edit, key named in the error)
_UNCONVERTIBLE = {
    "branch_mu": (lambda c: c["branches"][0].update(mu="abc"), "branches[0].mu"),
    "n_symbols": (lambda c: c.update(n_symbols="abc"), "n_symbols"),
    "combiner_mu_c": (lambda c: c.update(combiners={"mu_c": "xyz"}), "combiners.mu_c"),
    "cdma_users_list": (lambda c: c["cdma"].update(users=[8]), "cdma.users"),
    "n_runs_fraction": (lambda c: c.update(n_runs=2.7), "n_runs"),
    "n_runs_inf": (lambda c: c.update(n_runs=math.inf), "n_runs"),
    "n_symbols_bool": (lambda c: c.update(n_symbols=True), "n_symbols"),
    "cdma_users_fraction": (lambda c: c["cdma"].update(users=1.9), "cdma.users"),
    "branch_rank_fraction": (lambda c: c["branches"][0].update(rank=3.5), "branches[0].rank"),
    "branch_mu_bool": (lambda c: c["branches"][0].update(mu=True), "branches[0].mu"),
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

    @pytest.mark.parametrize("config", ["mmse.yaml", "scheme_b.yaml"])
    def test_path_profile_is_not_a_key(self, tmp_path, capsys, config):
        # the channel's 0 / -3 / -9 dB profile is fixed (cdma.PATH_PROFILE_DB)
        cfg = self._edited(
            tmp_path, lambda c: c["cdma"].update(path_profile_db=[0.0, -3.0, -9.0]), config
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown cdma keys: ['path_profile_db']")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "edit,key", list(_UNCONVERTIBLE.values()), ids=list(_UNCONVERTIBLE)
    )
    def test_unconvertible_value_names_its_key(self, tmp_path, capsys, edit, key):
        cfg = self._edited(tmp_path, edit)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("value", [{"a": 1}, ["x.csv"], 2024, True],
                             ids=["mapping", "list", "int", "bool"])
    @pytest.mark.parametrize("key", ["scheme", "train_mode", "out"])
    def test_string_keys_take_only_strings(self, tmp_path, capsys, monkeypatch, key, value):
        # a non-string `out` used to become a file named after its str()
        cfg = self._edited(tmp_path, lambda c: c.update({key: value}))
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be a string, got ")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    @pytest.mark.parametrize("threads", ["abc", "1.5", "-1"])
    def test_bad_thread_count_reported(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("RRFILT_THREADS", threads)
        cfg = self._edited(tmp_path, lambda c: None)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: RRFILT_THREADS ")
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_noise_variance_past_float_range(self, tmp_path, capsys, command):
        # 10**400 overflows a float: the config is refused before any run
        edit = lambda c: c["cdma"].update(snr_db=-4000.0)  # noqa: E731
        cfg = self._edited(tmp_path, edit if command == "run" else lambda c: None)
        out = tmp_path / "o.csv"
        args = [command, "--config", str(cfg), "--out", str(out)]
        assert main(args + (["--snr", "10,-4000"] if command == "sweep" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cdma section: " if command == "run" else "error: SNR point")
        assert "beyond the float range" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("how", ["key", "flag"])
    def test_negative_seed_reported(self, tmp_path, capsys, command, how):
        cfg = self._edited(tmp_path, lambda c: c.update(seed=-3) if how == "key" else None)
        out = tmp_path / "o.csv"
        args = [command, "--config", str(cfg), "--out", str(out)]
        args += ["--seed", "-3"] if how == "flag" else []
        assert main(args + (["--snr", "10"] if command == "sweep" else [])) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_more_users_than_signatures(self, tmp_path, capsys, command):
        # 2 chips give only 4 distinct binary signatures
        edit = lambda c: c.update(cdma={"users": 5, "chips": 2, "paths": 1})  # noqa: E731
        cfg = self._edited(tmp_path, edit, "mmse.yaml")
        out = tmp_path / "o.csv"
        args = [command, "--config", str(cfg), "--out", str(out)]
        assert main(args + (["--snr", "10"] if command == "sweep" else [])) == 1
        assert capsys.readouterr().err.startswith(
            "error: cdma section: 5 users need distinct signatures"
        )
        assert not out.exists()

    def test_window_past_any_index_fails_fast(self, tmp_path):
        # the MMSE oracle's run used to spin on 2**n_chips in generate_signatures
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(
            {"scheme": "mmse", "n_symbols": 5, "n_runs": 1, "cdma": {"chips": 1e300}}
        ))
        out = tmp_path / "o.csv"
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
                   RRFILT_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "rrfilt", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: scheme 'mmse': window length")
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["mmse", "fullrank"])
    def test_window_past_memory_fails_cleanly(self, tmp_path, scheme):
        # 2**40 chips fit an array index but not a 3 GB address space: the
        # full-rank filter fails to allocate in validate, the MMSE oracle's
        # run in generate_signatures; the limit applies to the child only
        data = {"scheme": scheme, "n_symbols": 5, "n_runs": 1, "cdma": {"chips": 2**40}}
        if scheme == "fullrank":
            data["branches"] = [{"mu": 0.05}]
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(data))
        out = tmp_path / "o.csv"
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
                   RRFILT_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = 3 * 10**9 if hard == resource.RLIM_INFINITY else min(3 * 10**9, hard)
        proc = subprocess.run(
            [sys.executable, "-m", "rrfilt", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (soft, hard)),
        )
        assert proc.returncode == 1, proc.stderr
        # the filter is built in validate, which names the scheme
        prefix = "error: scheme 'fullrank': " if scheme == "fullrank" else "error: "
        assert proc.stderr.startswith(prefix), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestCliEdges:
    """Edge values of the run count and the training window, end to end."""

    def _write(self, tmp_path, name, **changes):
        data = yaml.safe_load((CONFIGS / "scheme_b.yaml").read_text())
        data.update({"n_symbols": 80, "n_runs": 3, **changes})
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data))
        return path

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_single_run(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("RRFILT_THREADS", threads)
        cfg = self._write(tmp_path, "one", n_runs=1)
        run_out, sweep_out = tmp_path / "run.csv", tmp_path / "sweep.csv"
        assert main(["run", "--config", str(cfg), "--out", str(run_out)]) == 0
        assert "runs=1 (diverged=0)" in capsys.readouterr().out
        assert main(["sweep", "--config", str(cfg), "--snr", "6,15",
                     "--out", str(sweep_out)]) == 0
        with open(run_out, newline="") as handle:
            rows = list(csv.DictReader(handle))
        with open(sweep_out, newline="") as handle:
            points = list(csv.DictReader(handle))
        assert len(rows) == 80 and len(points) == 2
        # the config's own SNR is 15 dB: its sweep row is the run's last row
        assert (points[1]["ber"], points[1]["mse"]) == (rows[-1]["ber"], rows[-1]["mse"])
        assert points[1]["diverged_runs"] == "0"
        assert points[0]["mse"] != points[1]["mse"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_training_window_longer_than_packet_is_supervised(self, tmp_path, capsys,
                                                              command):
        semi = self._write(tmp_path, "semi", train_mode="semi", train_symbols=500)
        supervised = self._write(tmp_path, "supervised")
        outs = []
        for cfg in (semi, supervised):
            out = tmp_path / f"{cfg.stem}.csv"
            args = [command, "--config", str(cfg), "--out", str(out)]
            assert main(args + (["--snr", "6,15"] if command == "sweep" else [])) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == (81 if command == "run" else 3)
        assert_same_record(run_experiment(load_config(semi)),
                           run_experiment(load_config(supervised)))
