"""Downlink signal model: signatures, channel, received windows, MMSE."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from test_golden import GOLDEN, platform_fingerprint

from rrfilt.cdma import (
    CdmaConfig,
    ClarkeChannel,
    MmseReceiver,
    build_convolution_matrix,
    detect_qpsk,
    generate_received,
    generate_signatures,
    qpsk_symbols,
)

SQRT2 = np.sqrt(2.0)


def chip_stream_oracle(cfg, signatures, path_gains, symbols, rng, noise_var=None):
    """Brute-force re-implementation of the received-window contract.

    Builds the superposed chip stream sample by sample, convolves it with the
    observed symbol's channel taps by explicit loops (ascending user, then
    ascending path), and adds the same noise draws in the same order.
    """
    if noise_var is None:
        noise_var = cfg.noise_variance
    n_symbols = symbols.shape[1]
    n_chips, n_paths, m = cfg.n_chips, cfg.n_paths, cfg.window_len
    total = n_symbols * n_chips
    chips = np.zeros(total, dtype=complex)
    for t in range(total):
        i, c = divmod(t, n_chips)
        acc = 0.0 + 0.0j
        for k in range(cfg.n_users):
            acc += cfg.amplitudes[k] * symbols[k, i] * signatures[k, c]
        chips[t] = acc

    def stream(t):
        return chips[t] if 0 <= t < total else 0.0 + 0.0j

    out = np.zeros((n_symbols, m), dtype=complex)
    for i in range(n_symbols):
        for s in range(m):
            acc = 0.0 + 0.0j
            for path in range(n_paths):
                acc += path_gains[i, path] * stream(i * n_chips + s - path)
            out[i, s] = acc
    scale = np.sqrt(noise_var / 2.0)
    noise_re = rng.standard_normal((n_symbols, m))
    noise_im = rng.standard_normal((n_symbols, m))
    out += scale * (noise_re + 1j * noise_im)
    return out


class TestSignatures:
    def test_single_user_unit_norm(self):
        s = generate_signatures(1, 4, np.random.default_rng(0))
        assert s.shape == (1, 4)
        assert np.linalg.norm(s[0]) == pytest.approx(1.0)

    def test_entries_are_binary_chips(self):
        s = generate_signatures(5, 8, np.random.default_rng(1))
        assert_allclose(np.abs(s), 1 / np.sqrt(8))

    def test_deterministic_given_seed(self):
        a = generate_signatures(4, 16, np.random.default_rng(7))
        b = generate_signatures(4, 16, np.random.default_rng(7))
        assert_array_equal(a, b)

    def test_exhaustive_distinctness(self):
        # 2 chips admit exactly 4 distinct sequences
        s = generate_signatures(4, 2, np.random.default_rng(2))
        assert len({row.tobytes() for row in s}) == 4

    def test_rejects_impossible_request(self):
        with pytest.raises(ValueError):
            generate_signatures(5, 2, np.random.default_rng(3))


class TestConvolutionMatrix:
    def test_single_path_is_the_signature(self):
        s = generate_signatures(1, 6, np.random.default_rng(4))[0]
        mat = build_convolution_matrix(s, 1)
        assert_array_equal(mat[:, 0], s)

    def test_hand_shifted_example(self):
        mat = build_convolution_matrix([1.0, -1.0], 2)
        assert_array_equal(mat, np.array([[1, 0], [-1, 1], [0, -1]], dtype=float))

    def test_columns_are_one_chip_shifts_with_equal_norm(self):
        s = generate_signatures(1, 8, np.random.default_rng(5))[0]
        mat = build_convolution_matrix(s, 4)
        for path in range(4):
            assert np.linalg.norm(mat[:, path]) == pytest.approx(1.0)
            assert_array_equal(mat[path : path + 8, path], s)

    def test_symbol_shift_windows(self):
        s = np.arange(1.0, 5.0)  # N=4
        nxt = build_convolution_matrix(s, 3, symbol_shift=1)  # M=6
        prv = build_convolution_matrix(s, 3, symbol_shift=-1)
        # next symbol enters at the bottom, previous leaks at the top
        assert_array_equal(nxt[:, 0], [0, 0, 0, 0, 1, 2])
        assert_array_equal(prv[:, 2], [3, 4, 0, 0, 0, 0])
        assert np.all(nxt[:4, 0] == 0) and np.all(prv[2:, 2] == 0)


class TestClarkeChannel:
    def test_zero_doppler_freezes_gains(self):
        ch = ClarkeChannel(5, 0.0, np.random.default_rng(6))
        h0 = ch.run(1)[0]
        for _ in range(10):
            assert_array_equal(ch.run(1)[0], h0)

    def test_total_power_is_normalized(self):
        ch = ClarkeChannel(9, 0.01, np.random.default_rng(7))
        assert ch.path_powers.sum() == pytest.approx(1.0)
        assert_allclose(
            ch.path_powers / ch.path_powers[0], [1.0, 10 ** -0.3, 10 ** -0.9]
        )

    def test_path_powers_over_time(self):
        ch = ClarkeChannel(9, 0.02, np.random.default_rng(8))
        n = 20000
        for p in range(3):
            series = ch.path_gain_series(p, n)
            measured = np.mean(np.abs(series) ** 2)
            assert measured == pytest.approx(ch.path_powers[p], rel=0.1)

    def test_positions_start_at_zero_with_small_gaps(self):
        for seed in range(20):
            ch = ClarkeChannel(9, 0.01, np.random.default_rng(seed))
            assert ch.positions[0] == 0
            assert np.all(np.diff(ch.positions) >= 0)
            assert np.all(np.diff(ch.positions) <= 2)
            assert ch.positions[-1] <= 8

    def test_coinciding_paths_accumulate(self):
        # find a seed whose first gap is zero, then tap 0 carries two paths
        for seed in range(100):
            ch = ClarkeChannel(9, 0.01, np.random.default_rng(seed))
            if ch.positions[0] == ch.positions[1]:
                break
        else:
            pytest.fail("no coinciding placement found")
        gains = ClarkeChannel(9, 0.01, np.random.default_rng(seed)).run(50)
        expected = sum(
            ch.path_gain_series(p, 50)
            for p in range(len(ch.positions))
            if ch.positions[p] == ch.positions[0]
        )
        assert_allclose(gains[:, ch.positions[0]], expected, atol=1e-12)


class TestGenerateReceived:
    def _static_gains(self, n_symbols, n_paths, h):
        gains = np.zeros((n_symbols, n_paths), dtype=complex)
        gains[:, : len(h)] = np.asarray(h)
        return gains

    def test_single_user_single_path_is_scaled_signature(self):
        cfg = CdmaConfig(n_users=1, n_chips=8, n_paths=1, snr_db=np.inf)
        rng = np.random.default_rng(9)
        sigs = generate_signatures(1, 8, rng)
        symbols = qpsk_symbols(rng, 1, 5)
        gains = self._static_gains(5, 1, [1.0])
        r = generate_received(cfg, sigs, gains, symbols, rng)
        for i in range(5):
            assert_allclose(r[i], symbols[0, i] * sigs[0], atol=0)

    def test_matches_chip_stream_oracle_bit_for_bit(self):
        cfg = CdmaConfig(
            n_users=3, n_chips=8, n_paths=3, snr_db=12.0,
            amplitudes=(1.0, 0.7, 1.3), path_profile_db=(0.0, -3.0, -9.0),
        )
        rng_lib = np.random.default_rng(10)
        rng_oracle = np.random.default_rng(10)
        sig_rng = np.random.default_rng(11)
        sigs = generate_signatures(3, 8, sig_rng)
        symbols = qpsk_symbols(sig_rng, 3, 40)
        gains = ClarkeChannel(3, 1e-3, sig_rng).run(40)
        lib = generate_received(cfg, sigs, gains, symbols, rng_lib)
        oracle = chip_stream_oracle(cfg, sigs, gains, symbols, rng_oracle)
        assert_array_equal(lib, oracle)

    def test_linear_in_each_symbol(self):
        cfg = CdmaConfig(n_users=2, n_chips=8, n_paths=3, snr_db=np.inf)
        rng = np.random.default_rng(12)
        sigs = generate_signatures(2, 8, rng)
        gains = ClarkeChannel(3, 0.0, rng).run(6)
        base = qpsk_symbols(rng, 2, 6)
        r1 = generate_received(cfg, sigs, gains, base, np.random.default_rng(0))
        r2 = generate_received(cfg, sigs, gains, 2 * base, np.random.default_rng(0))
        assert_allclose(r2, 2 * r1, atol=1e-14)

    def test_noise_only_covariance(self):
        cfg = CdmaConfig(
            n_users=1, n_chips=6, n_paths=3, snr_db=0.0, amplitudes=(0.0,)
        )
        rng = np.random.default_rng(13)
        sigs = generate_signatures(1, 6, rng)
        n = 100_000
        symbols = qpsk_symbols(rng, 1, n)
        gains = self._static_gains(n, 3, [1.0, 0.5, 0.25])
        noise_var = 0.37
        r = generate_received(cfg, sigs, gains, symbols, rng, noise_var=noise_var)
        diag = np.mean(np.abs(r) ** 2, axis=0)
        assert np.all(np.abs(diag - noise_var) <= 0.05 * noise_var)
        # off-diagonal correlation should be near zero
        off = np.mean(r[:, 0] * np.conj(r[:, 1]))
        assert abs(off) <= 0.05 * noise_var

    def test_desired_signal_energy_bookkeeping(self):
        cfg = CdmaConfig(n_users=1, n_chips=16, n_paths=9, snr_db=np.inf)
        rng = np.random.default_rng(14)
        energies = []
        for _ in range(20):
            sigs = generate_signatures(1, 16, rng)
            ch = ClarkeChannel(9, 0.01, rng)
            gains = ch.run(2000)
            conv = build_convolution_matrix(sigs[0], 9)
            per_symbol = np.sum(np.abs(gains @ conv.T) ** 2, axis=1)
            energies.append(np.mean(per_symbol))
        assert np.mean(energies) == pytest.approx(1.0, rel=0.05)

    def test_shape_validation(self):
        cfg = CdmaConfig(n_users=2, n_chips=4, n_paths=2, snr_db=10.0)
        rng = np.random.default_rng(15)
        sigs = generate_signatures(2, 4, rng)
        symbols = qpsk_symbols(rng, 2, 3)
        with pytest.raises(ValueError):
            generate_received(cfg, sigs, np.zeros((2, 2)), symbols, rng)


def mmse_system(cfg, signatures, channel_gains, loading):
    """Covariance and steering vector of the MMSE normal equations.

    Built from :func:`build_convolution_matrix` alone: the previous, current
    and next symbol windows of every user, weighted by the squared amplitude,
    with ``loading`` added to the diagonal.  The real matrices are cast to
    complex on every call, as the receiver did before it kept complex stacks.
    """
    sigs = np.asarray(signatures, dtype=np.float64)
    h = np.asarray(channel_gains, dtype=np.complex128)
    shifts = (-1, 0, 1)
    mats = np.stack([
        build_convolution_matrix(sigs[k], cfg.n_paths, shift)
        for k in range(cfg.n_users)
        for shift in shifts
    ])
    # Python's a ** 2 goes through pow, which can round unlike an array's a * a
    weights = np.asarray([a ** 2 for a in cfg.amplitudes for _ in shifts])
    eff = mats @ h
    cov = (eff.T * weights) @ np.conj(eff)
    cov[np.diag_indices_from(cov)] += loading
    steering = cfg.amplitudes[0] * (build_convolution_matrix(sigs[0], cfg.n_paths, 0) @ h)
    return cov, steering


def mmse_filter(cfg, signatures, channel_gains, noise_var):
    """Reference MMSE filter: the oracle system with the receiver's 1e-10
    regularization, solved directly."""
    cov, steering = mmse_system(cfg, signatures, channel_gains, noise_var + 1e-10)
    return np.linalg.solve(cov, steering)


def _on_golden_platform():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["platform"] == platform_fingerprint()


class TestMmse:
    def _setup(self, seed, n_users=4, n_chips=16, n_paths=5, snr_db=10.0):
        cfg = CdmaConfig(
            n_users=n_users, n_chips=n_chips, n_paths=n_paths, snr_db=snr_db,
        )
        rng = np.random.default_rng(seed)
        sigs = generate_signatures(n_users, n_chips, rng)
        h = ClarkeChannel(n_paths, 0.0, rng).run(1)[0]
        return cfg, sigs, h, rng

    def test_normal_equation_residual(self):
        for seed in range(10):
            cfg, sigs, h, _ = self._setup(seed)
            noise_var = cfg.noise_variance
            w = MmseReceiver(cfg, sigs).filter_for(h, noise_var)
            cov, steering = mmse_system(cfg, sigs, h, noise_var + 1e-10)
            assert np.linalg.norm(cov @ w - steering) <= 1e-8 * np.linalg.norm(steering)

    def test_matched_filter_limit_at_high_noise(self):
        cfg = CdmaConfig(n_users=1, n_chips=16, n_paths=1, snr_db=-40.0)
        rng = np.random.default_rng(21)
        sigs = generate_signatures(1, 16, rng)
        w = MmseReceiver(cfg, sigs).filter_for(np.array([1.0 + 0j]), cfg.noise_variance)
        cosine = abs(np.vdot(w, sigs[0])) / (np.linalg.norm(w) * np.linalg.norm(sigs[0]))
        assert cosine >= 0.999

    def test_output_sinr_beats_matched_filter(self):
        for seed in range(10):
            cfg, sigs, h, _ = self._setup(seed, n_users=6)
            noise_var = cfg.noise_variance
            w = MmseReceiver(cfg, sigs).filter_for(h, noise_var)
            cov, steering = mmse_system(cfg, sigs, h, noise_var)
            w_mf = np.zeros(cfg.window_len, dtype=complex)
            w_mf[: cfg.n_chips] = sigs[0]

            def sinr(vec):
                sig = abs(np.vdot(vec, steering)) ** 2
                total = np.real(np.vdot(vec, cov @ vec))
                return sig / (total - sig)

            assert sinr(w) >= sinr(w_mf) - 1e-9

    def test_channel_snapshot_shape_checked(self):
        cfg, sigs, _, _ = self._setup(0)
        with pytest.raises(ValueError):
            MmseReceiver(cfg, sigs).filter_for(np.ones(3, dtype=complex), 0.1)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_filter_matches_oracle(self, data):
        # bit for bit where the golden digests were captured; elsewhere BLAS
        # may round the flat and the stacked products differently, and a
        # noise floor of at least 0.1 keeps the covariance conditioned well
        # enough for a 1e-12 relative tolerance
        n_chips = data.draw(st.integers(1, 8), label="n_chips")
        n_users = data.draw(st.integers(1, min(4, 2**n_chips)), label="n_users")
        n_paths = data.draw(st.integers(1, 5), label="n_paths")
        amplitudes = data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.05, 1.5)),
                min_size=n_users, max_size=n_users,
            ),
            label="amplitudes",
        )
        noise_var = data.draw(st.floats(0.1, 4.0), label="noise_var")
        cfg = CdmaConfig(n_users=n_users, n_chips=n_chips, n_paths=n_paths,
                         amplitudes=tuple(amplitudes))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        sigs = generate_signatures(n_users, n_chips, rng)
        # Clarke placements put coinciding paths on one tap; add an all-zero snapshot
        channel = ClarkeChannel(n_paths, 0.01, rng)
        snapshots = np.vstack([channel.run(4), np.zeros((1, n_paths))])
        receiver = MmseReceiver(cfg, sigs)
        exact = _on_golden_platform()
        for h in snapshots:
            got = receiver.filter_for(h, noise_var)
            want = mmse_filter(cfg, sigs, h, noise_var)
            if exact:
                assert_array_equal(got, want)
            else:
                assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.linalg.norm(want))

    def test_singular_covariance_falls_back_to_pinv(self):
        # the signature leaves the second sample empty and noise_var -1e-10
        # cancels the regularization, so cov is exactly diag(|h|^2, 0); zero gains
        # would make it singular too, but their pinv solution is all zeros
        cfg = CdmaConfig(n_users=1, n_chips=2, n_paths=1)
        sigs = np.array([[1.0, 0.0]])
        h = np.array([0.5 - 0.25j])
        with pytest.warns(RuntimeWarning, match="pseudo-inverse"):
            w = MmseReceiver(cfg, sigs).filter_for(h, -1e-10)
        cov, steering = mmse_system(cfg, sigs, h, 0.0)
        assert_array_equal(cov, np.diag([0.3125, 0.0]))  # |h|^2 = 0.3125
        assert_array_equal(w, np.linalg.pinv(cov) @ steering)
        assert w[0] != 0


class TestDetectQpsk:
    @pytest.mark.parametrize(
        "y,expected",
        [
            (0.3 - 0.2j, (1 - 1j) / SQRT2),
            (-5 + 0.01j, (-1 + 1j) / SQRT2),
            (0 + 0j, (1 + 1j) / SQRT2),
        ],
    )
    def test_slicer(self, y, expected):
        assert detect_qpsk(y) == expected

    def test_vectorized(self):
        out = detect_qpsk(np.array([1 + 1j, -1 - 1j]))
        assert_array_equal(out, np.array([1 + 1j, -1 - 1j]) / SQRT2)

    def test_idempotent_on_constellation(self):
        rng = np.random.default_rng(22)
        syms = qpsk_symbols(rng, 1, 100)[0]
        assert_array_equal(detect_qpsk(syms), syms)

    @pytest.mark.parametrize("kind", [complex, np.complex128])
    def test_scalar_path_matches_array_expression(self, kind):
        # the scalar table lookup must return exactly what the array
        # expression returns, signed zeros and non-finite components included
        def array_slicer(y):
            y = np.asarray(y)
            re = np.where(y.real >= 0.0, 1.0, -1.0)
            im = np.where(y.imag >= 0.0, 1.0, -1.0)
            return complex((re + 1j * im) / SQRT2)

        parts = (0.0, -0.0, np.nan, np.inf, -np.inf, 0.25, -3.0)
        for re in parts:
            for im in parts:
                y = kind(complex(re, im))
                got = detect_qpsk(y)
                assert type(got) is complex
                assert repr(got) == repr(array_slicer(y)), (re, im)
                assert repr(got) == repr(detect_qpsk(np.array([y]))[0].item())
