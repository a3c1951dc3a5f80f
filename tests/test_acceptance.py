"""Acceptance suite: one test per criterion, printed pass/fail lines.

Each test pins the tolerances it asserts; the desk-scale experiments run the
published filter parameter set over a seeded Monte-Carlo batch (the scenario
knobs the source experiments leave open -- SNR, Doppler rate, per-user
amplitudes -- are fixed here and documented inline).
"""

import numpy as np
from numpy.testing import assert_array_equal
from scipy.special import j0

from rrfilt.cdma import CdmaConfig, ClarkeChannel, generate_received, qpsk_symbols, generate_signatures
from rrfilt.combiners import Clms, SchemeA, SchemeB, sigmoid
from rrfilt.filters import FullRankLms, JidfFilter
from rrfilt.harness import (
    BranchParams,
    CombinerSteps,
    ExperimentConfig,
    run_experiment,
    snr_sweep,
)
from rrfilt.signalcore import build_hankel
from test_cdma import chip_stream_oracle
from test_combiners import step_with_equivalent


def _report(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name}{suffix}")


def _crand(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _random_jidf(rng, max_taps=16):
    m = int(rng.integers(2, max_taps + 1))
    i = int(rng.integers(1, min(m, 5) + 1))
    d = int(rng.integers(1, m + 1))
    stride = m // d
    b = int(rng.integers(1, m - (d - 1) * stride + 1))
    f = JidfFilter(m, i, d, b, eta=0.005, mu=0.02)
    f.v = _crand(rng, i)
    f.w_bar = _crand(rng, d)
    return f


# ---------------------------------------------------------------------------
# criterion 1: algebraic identities at machine precision
# ---------------------------------------------------------------------------


def test_c1_algebraic_identities():
    rng = np.random.default_rng(101)

    # (a) interpolator-side vs filter-side output factorization
    for _ in range(120):
        f = _random_jidf(rng)
        r = _crand(rng, f.num_taps)
        hankel = build_hankel(r, f.num_taps, f.interp_len)
        for b, pat in enumerate(f.patterns):
            primal = np.vdot(f.w_bar, hankel[pat] @ np.conj(f.v))
            dual = np.vdot(f.v, hankel[pat].T @ np.conj(f.w_bar))
            assert abs(dual - primal) <= 1e-12

    # (b) sliding correlation vs explicit banded Toeplitz operator
    for _ in range(120):
        m = int(rng.integers(1, 17))
        i = int(rng.integers(1, m + 1))
        v, r = _crand(rng, i), _crand(rng, m)
        mat = np.zeros((m, m), dtype=complex)
        for row in range(m):
            for col in range(max(row - i + 1, 0), row + 1):
                mat[row, col] = v[row - col]
        # the product JidfFilter._forward forms before decimating
        correlation = build_hankel(r, m, i) @ np.conj(v)
        assert np.max(np.abs(correlation - mat.conj().T @ r)) <= 1e-12

    # (c) scheme output equals equivalent-filter inner product while adapting
    for make in ("a", "b"):
        rng2 = np.random.default_rng(102)
        m = 16
        if make == "a":
            filters = [
                JidfFilter(m, 3, 3, 4, eta=0.005, mu=0.02),
                JidfFilter(m, 4, 6, 4, eta=0.005, mu=0.02),
                JidfFilter(m, 3, 3, 4, eta=0.002, mu=0.005),
                JidfFilter(m, 4, 6, 4, eta=0.002, mu=0.005),
            ]
            scheme = SchemeA(filters, [0.25, 0.25, 0.25])
        else:
            filters = [
                JidfFilter(m, 3, 3, 4, eta=0.005, mu=0.02),
                JidfFilter(m, 4, 6, 4, eta=0.002, mu=0.005),
            ]
            scheme = SchemeB(filters, [0.25])
        plant = _crand(rng2, m)
        for _ in range(1000):
            r = _crand(rng2, m)
            d = np.vdot(plant, r) + 0.1 * complex(*rng2.standard_normal(2))
            diag, w_eq = step_with_equivalent(scheme, r, d)
            y = diag.y
            assert abs(y - np.vdot(w_eq, r)) <= 1e-10 * (1 + abs(y))

    _report("criterion 1: algebraic identities",
            "dual form / Toeplitz-Hankel <= 1e-12, scheme identity <= 1e-10 rel")


# ---------------------------------------------------------------------------
# criterion 2: gradient checks against central finite differences
# ---------------------------------------------------------------------------


def test_c2_gradient_checks():
    rng = np.random.default_rng(201)
    h = 1e-6

    def cost(v, w_bar, hankel, idx, d):
        return abs(d - np.vdot(w_bar, hankel[idx] @ np.conj(v))) ** 2

    for _ in range(25):
        f = _random_jidf(rng, max_taps=10)
        r = _crand(rng, f.num_taps)
        d = complex(*rng.standard_normal(2))
        hankel = build_hankel(r, f.num_taps, f.interp_len)
        fwd = f._forward(f._input(r), d)  # the gradients the commit applies
        e, r_bar, u = fwd.e, fwd.r_bar, fwd.u
        idx = f.patterns[fwd.b_opt]

        for which, base, analytic in (
            ("v", f.v, np.conj(e) * u),
            ("w", f.w_bar, np.conj(e) * r_bar),
        ):
            numeric = np.zeros(base.size, dtype=complex)
            for k in range(base.size):
                for delta in (h, 1j * h):
                    plus, minus = base.copy(), base.copy()
                    plus[k] += delta
                    minus[k] -= delta
                    if which == "v":
                        g = (cost(plus, f.w_bar, hankel, idx, d)
                             - cost(minus, f.w_bar, hankel, idx, d)) / (2 * h)
                    else:
                        g = (cost(f.v, plus, hankel, idx, d)
                             - cost(f.v, minus, hankel, idx, d)) / (2 * h)
                    numeric += (g if delta == h else 1j * g) * _unit(base.size, k)
            direction = -0.5 * numeric
            rel = np.linalg.norm(direction - analytic) / max(np.linalg.norm(analytic), 1e-12)
            assert rel <= 1e-4

    # combiner update direction, every tree node uses the same form
    for _ in range(25):
        u0 = float(rng.uniform(-2, 2))
        y1, y2, d = (complex(*rng.standard_normal(2)) for _ in range(3))
        lam = sigmoid(u0)
        e = d - (lam * y1 + (1 - lam) * y2)
        analytic = (np.conj(y1 - y2) * e).real * lam * (1 - lam)

        def half_cost(uu):
            lam_u = sigmoid(uu)
            return 0.5 * abs(d - (lam_u * y1 + (1 - lam_u) * y2)) ** 2

        numeric = -(half_cost(u0 + h) - half_cost(u0 - h)) / (2 * h)
        assert abs(numeric - analytic) <= 1e-4 * max(abs(analytic), 1e-9)

    _report("criterion 2: gradient checks", "central differences, rel err <= 1e-4")


def _unit(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


# ---------------------------------------------------------------------------
# criterion 3: brute-force oracles
# ---------------------------------------------------------------------------


def test_c3a_branch_selection_matches_exhaustive_argmin():
    rng = np.random.default_rng(301)
    f = JidfFilter(12, 3, 4, 3, eta=0.005, mu=0.02)
    plant = _crand(rng, 12)
    for _ in range(1000):
        r = _crand(rng, 12)
        d = np.vdot(plant, r) + 0.2 * complex(*rng.standard_normal(2))
        # oracle from the pre-step state, via explicit loops
        errs = []
        for pat in f.patterns:
            y_b = 0.0 + 0.0j
            for pos, widx in zip(pat, range(f.rank)):
                acc = 0.0 + 0.0j
                for k in range(f.interp_len):
                    sample = r[pos + k] if pos + k < f.num_taps else 0.0
                    acc += sample * np.conj(f.v[k])
                y_b += np.conj(f.w_bar[widx]) * acc
            errs.append(abs(d - y_b) ** 2)
        expected = int(np.argmin(errs))
        res = f.step(r, d)
        assert res.branches[0] == expected
    _report("criterion 3a: branch selection equals exhaustive argmin",
            "1000 adaptation steps")


def test_c3b_received_signal_matches_chip_stream_oracle():
    cfg = CdmaConfig(
        n_users=4, n_chips=8, n_paths=3, snr_db=10.0,
        amplitudes=(1.0, 0.8, 1.2, 0.6),
    )
    rng_lib = np.random.default_rng(302)
    rng_oracle = np.random.default_rng(302)
    setup = np.random.default_rng(303)
    sigs = generate_signatures(cfg.n_users, cfg.n_chips, setup)
    symbols = qpsk_symbols(setup, cfg.n_users, 60)
    gains = ClarkeChannel(cfg.n_paths, 2e-3, setup).run(60)
    lib = generate_received(cfg, sigs, gains, symbols, rng_lib, (cfg.noise_variance,))[0]
    oracle = chip_stream_oracle(cfg, sigs, gains, symbols, rng_oracle)
    assert_array_equal(lib, oracle)
    _report("criterion 3b: received windows equal chip-stream oracle",
            "bit for bit, noise included")


def test_c3c_degenerate_reduced_rank_matches_full_rank():
    m, mu = 8, 0.05
    jidf = JidfFilter(m, 1, m, 1, eta=0.0, mu=mu)
    lms = FullRankLms(m, mu=mu)
    rng = np.random.default_rng(304)
    for _ in range(1000):
        r = _crand(rng, m)
        d = complex(*rng.standard_normal(2))
        res_j = jidf.step(r, d)
        res_l = lms.step(r, d)
        assert abs(res_j.y - res_l.y) <= 1e-12
        assert abs(res_j.e - res_l.e) <= 1e-12
        assert np.max(np.abs(jidf.w_bar - lms.w)) <= 1e-12
    _report("criterion 3c: degenerate reduced-rank filter tracks plain LMS",
            "1000 samples, <= 1e-12")


# ---------------------------------------------------------------------------
# criterion 4: complexity formulas, exact integers
# ---------------------------------------------------------------------------


def test_c4_complexity_formulas():
    i, d = 3, 4
    # 8 branches of rank 4 do not fit an 8-sample window; 2 do
    for m, b in ((8, 2), (40, 8), (64, 8)):
        lms = FullRankLms(m, 0.1)
        assert lms.ops == (2 * m, 2 * m + 1)
        assert Clms([lms, FullRankLms(m, 0.01)], [0.25]).ops == (4 * m + 5, 4 * m + 6)
        assert JidfFilter(m, i, d, b, 0.01, 0.1).ops == (
            m * (i - 1) + (b + 1) * d + 2 * i,
            m * i + (b + 2) * d,
        )
    assert JidfFilter(40, 3, 4, 8, 0.01, 0.1).ops == (122, 160)
    _report("criterion 4: complexity formulas",
            "M in {8, 40, 64}; desk parameters give (122, 160)")


# ---------------------------------------------------------------------------
# criterion 5: combiner favors the better constituent
# ---------------------------------------------------------------------------


def test_c5_combiner_converges_to_better_constituent():
    # stationary plant with unit-power inputs; constituent 1 runs a small
    # step (low misadjustment), constituent 2 a large one (same structure,
    # strictly higher steady-state error)
    s2 = np.sqrt(2.0)
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(500 + seed)
        m = 8
        plant = _crand(rng, m) / s2
        f1 = JidfFilter(m, 2, 4, 2, eta=0.005, mu=0.02)
        f2 = JidfFilter(m, 2, 4, 2, eta=0.005, mu=0.25)
        scheme = SchemeB([f1, f2], [2.0])
        for _ in range(2000):
            r = _crand(rng, m) / s2
            d = np.vdot(plant, r) + 0.3 * complex(*rng.standard_normal(2)) / s2
            diag = scheme.step(r, d)
            if diag.lambdas[0] > 0.9:
                hits += 1
                break
    assert hits >= 45, f"mixing exceeded 0.9 in only {hits}/50 runs"
    _report("criterion 5: combiner locks onto the better constituent",
            f"{hits}/50 runs within 2000 iterations")


# ---------------------------------------------------------------------------
# criteria 6 and 7: desk-scale downlink experiments
# ---------------------------------------------------------------------------

# The published experiment fixes N=32, L_p=9 and the per-filter parameters
# below; user count, amplitudes, SNR and Doppler are not reported.  This desk
# configuration uses 8 users with the desired user 9 dB above the interferers
# and fading fast enough (5e-3 cycles/symbol) that packets average over the
# fade distribution and tracking dominates steady state.
_DESK_AMPS = (1.0,) + (0.35,) * 7


def _desk_config(scheme, snr=15.0, runs=20, seed=20240):
    cdma = CdmaConfig(
        n_users=8, n_chips=32, n_paths=9, snr_db=snr, doppler=5e-3,
        amplitudes=_DESK_AMPS,
    )
    branches = {
        "fullrank": [BranchParams(mu=0.05)],
        "clms": [BranchParams(mu=0.01), BranchParams(mu=0.25)],
        "jidf": [BranchParams(mu=0.01, rank=4, interp_len=3, eta=0.005)],
        "scheme_a": [
            BranchParams(mu=0.1, rank=3, interp_len=3, eta=0.01),
            BranchParams(mu=0.1, rank=6, interp_len=6, eta=0.01),
            BranchParams(mu=0.01, rank=3, interp_len=3, eta=0.0075),
            BranchParams(mu=0.01, rank=6, interp_len=6, eta=0.0075),
        ],
        "scheme_b": [
            BranchParams(mu=0.1, rank=3, interp_len=3, eta=0.01),
            BranchParams(mu=0.01, rank=6, interp_len=6, eta=0.0075),
        ],
        "mmse": [],
    }[scheme]
    return ExperimentConfig(
        scheme=scheme, cdma=cdma, n_symbols=1500, n_runs=runs, seed=seed,
        n_branches=8, branches=branches,
        combiners=CombinerSteps(0.25, 0.25, 0.25),
    )


def test_c6_desk_scale_combination_gain():
    ber = {}
    for scheme in ("mmse", "scheme_a", "scheme_b", "jidf", "fullrank"):
        rec = run_experiment(_desk_config(scheme))
        assert rec.diverged_runs == 0
        ber[scheme] = rec.final_ber

    delta = 0.25
    assert ber["mmse"] <= ber["scheme_a"], ber
    assert ber["scheme_a"] <= (1 + delta) * ber["scheme_b"], ber
    assert (1 + delta) * ber["scheme_b"] <= ber["jidf"], ber
    assert ber["scheme_a"] < 0.8 * ber["jidf"], ber
    assert ber["scheme_b"] < 0.8 * ber["jidf"], ber
    assert ber["jidf"] <= ber["fullrank"], ber
    _report(
        "criterion 6: desk-scale BER ordering",
        "mmse {mmse:.4f} <= A {scheme_a:.4f} <= 1.25*B {scheme_b:.4f} "
        "<= jidf {jidf:.4f} <= fullrank {fullrank:.4f}".format(**ber),
    )


def test_c7_snr_sweep_qualitative():
    # one sweep per scheme: each point is bit for bit run_experiment's record
    snrs = (4.0, 8.0, 12.0, 16.0)
    recs_m = snr_sweep(_desk_config("mmse"), snrs)
    mmse = [rec.final_ber for rec in recs_m]
    mmse_sem = [np.nanstd(rec.per_run_ber) / np.sqrt(rec.n_runs) for rec in recs_m]
    scheme_b = [rec.final_ber for rec in snr_sweep(_desk_config("scheme_b"), snrs)]
    jidf = [rec.final_ber for rec in snr_sweep(_desk_config("jidf"), snrs)]
    for i in range(len(snrs) - 1):
        slack = 2.0 * np.hypot(mmse_sem[i], mmse_sem[i + 1])
        assert mmse[i + 1] <= mmse[i] + slack, (snrs[i + 1], mmse)
    for i, snr in enumerate(snrs):
        assert scheme_b[i] <= jidf[i], (snr, scheme_b, jidf)
    _report(
        "criterion 7: SNR sweep",
        f"mmse {[round(x, 4) for x in mmse]} non-increasing; "
        f"scheme B below jidf at every point",
    )


# ---------------------------------------------------------------------------
# criterion 8: fading generator statistics
# ---------------------------------------------------------------------------


def test_c8_clarke_statistics():
    n = 100_000
    rate = 0.01
    ch = ClarkeChannel(9, rate, np.random.default_rng(801))
    for p in range(3):
        series = ch.path_gain_series(p, n)
        power = np.mean(np.abs(series) ** 2)
        assert abs(power - ch.path_powers[p]) <= 0.10 * ch.path_powers[p]
    gains = ch.path_gain_series(0, n)
    gains = gains / np.sqrt(np.mean(np.abs(gains) ** 2))
    worst = 0.0
    for lag in range(1, 11):
        rho = np.mean(gains[lag:] * np.conj(gains[:-lag])).real
        worst = max(worst, abs(rho - j0(2 * np.pi * rate * lag)))
    assert worst <= 0.1
    _report("criterion 8: fading statistics",
            f"power profile within 10%, autocorrelation error {worst:.4f} <= 0.1")
