"""Downlink signal model: signatures, channel, received windows, MMSE."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from test_golden import GOLDEN, platform_fingerprint

from rrfilt.cdma import (
    PATH_PROFILE_DB,
    CdmaConfig,
    ClarkeChannel,
    MmseReceiver,
    build_convolution_matrix,
    detect_qpsk,
    generate_received,
    generate_signatures,
    qpsk_symbols,
)
from rrfilt.filters import FullRankLms

SQRT2 = np.sqrt(2.0)


def joined(slices):
    """The whole block of :func:`generate_received`'s slices,
    ``(points, n_symbols, window_len)``."""
    return np.concatenate([*slices], axis=1)


def one_shot_received(cfg, sigs, gains, b, rng, noise_vars):
    """The received windows built in one piece, as ``generate_received``
    built them before it returned slices: the chip stream of the whole
    block, one window per symbol and path, then a real and an imaginary
    noise plane of the whole block."""
    n_symbols, n_chips, pad = b.shape[1], cfg.n_chips, cfg.n_paths - 1
    shape = (n_symbols, cfg.window_len)
    received = np.zeros((len(noise_vars), *shape), dtype=np.complex128)
    stream = np.zeros(n_symbols * n_chips + 2 * pad, dtype=np.complex128)
    chips = stream[pad : pad + n_symbols * n_chips].reshape(n_symbols, n_chips)
    windows = np.lib.stride_tricks.sliding_window_view(stream, cfg.window_len)
    signal_re, signal_im = received[0].real, received[0].imag
    for k in range(cfg.n_users):
        chips += (cfg.amplitudes[k] * b[k])[:, None] * sigs[k][None, :]
    for path in np.flatnonzero((gains != 0).any(axis=0)):
        g = gains[:, path][:, None]
        w = windows[pad - path :: n_chips][:n_symbols]
        signal_re += g.real * w.real - g.imag * w.imag
        signal_im += g.real * w.imag + g.imag * w.real
    for part, signal in zip(("real", "imag"), (signal_re, signal_im)):
        noise = rng.standard_normal(shape)
        for k in range(1, len(noise_vars)):
            plane = getattr(received[k], part)
            np.multiply(np.sqrt(noise_vars[k] / 2.0), noise, out=plane)
            plane += signal
        noise *= np.sqrt(noise_vars[0] / 2.0)
        signal += noise
    return received


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
        for n_users in (5, np.int64(5)):
            with pytest.raises(ValueError, match="cannot draw 5 distinct"):
                generate_signatures(n_users, 2, np.random.default_rng(3))

    def test_huge_chip_count_fails_promptly(self):
        # the distinctness check builds no 2**n_chips; numpy refuses the draw
        with pytest.raises(ValueError, match="Maximum allowed dimension exceeded"):
            generate_signatures(2, 10**300, np.random.default_rng(3))

    def test_config_rejects_more_users_than_signatures(self):
        CdmaConfig(n_users=4, n_chips=2, n_paths=1)
        with pytest.raises(ValueError, match="5 users need distinct signatures"):
            CdmaConfig(n_users=5, n_chips=2, n_paths=1)
        with pytest.raises(ValueError, match="distinct signatures"):
            CdmaConfig(n_users=2**40 + 1, n_chips=40, n_paths=1)
        # more digits than repr prints: refused all the same
        with pytest.raises(ValueError, match="too long to print users need distinct signatures"):
            CdmaConfig(n_users=10**5000, n_chips=4, n_paths=1)

    @pytest.mark.parametrize("field,value,message", [
        ("n_users", 2.5, "n_users must be an integer"),
        ("n_chips", "8", "n_chips must be an integer"),
        ("snr_db", "15", "snr_db must be a number"),
        ("amplitudes", 1.0, "amplitudes must be a list"),
        # integers past the float range, which float() cannot hold
        pytest.param("doppler", 10**400, "doppler must be a number", id="doppler-huge_int"),
        pytest.param("snr_db", 10**400, "snr_db must be a number", id="snr_db-huge_int"),
        pytest.param("amplitudes", (10**400,) * 8, r"amplitudes\[0\] must be a number",
                     id="amplitudes-huge_int"),
        # integers with more digits than repr prints: named, not printed
        pytest.param("doppler", 10**5000, "^doppler must be a number, got an integer too long",
                     id="doppler-past_digit_limit"),
        pytest.param("amplitudes", 10**5000, "^amplitudes must be a list of numbers, got an",
                     id="amplitudes-past_digit_limit"),
    ])
    def test_config_names_a_wrong_typed_field(self, field, value, message):
        # a library caller's value, which no config file converted first
        with pytest.raises(ValueError, match=message):
            CdmaConfig(**{field: value})


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
        gains = ClarkeChannel(5, 0.0, np.random.default_rng(6)).run(11)
        assert_array_equal(gains, np.broadcast_to(gains[0], gains.shape))

    @pytest.mark.parametrize("doppler", [np.inf, np.nan, -1e-3])
    def test_doppler_must_be_finite_and_non_negative(self, doppler):
        # a library caller's channel: an infinite Doppler would give NaN gains
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="doppler must be finite and non-negative"):
            ClarkeChannel(9, doppler, rng)

    def test_run_is_stateless(self):
        # every call gives symbols 0 .. n - 1; the channel keeps no clock
        ch = ClarkeChannel(9, 0.01, np.random.default_rng(9))
        first = ch.run(30)
        assert_array_equal(ch.run(30), first)
        assert_array_equal(ch.run(10), first[:10])
        assert_array_equal(ch.path_gain_series(0, 30), ch.path_gain_series(0, 30))

    def test_total_power_is_normalized(self):
        ch = ClarkeChannel(9, 0.01, np.random.default_rng(7))
        assert ch.path_powers.sum() == pytest.approx(1.0)
        assert_allclose(
            ch.path_powers / ch.path_powers[0], [1.0, 10 ** -0.3, 10 ** -0.9]
        )

    def test_fixed_profile_and_draws(self):
        # the powers are the normalized 0 / -3 / -9 dB profile, bit for bit,
        # and the constructor draws 2 gaps, then per path one rotation and
        # 16 phases, whatever the tap count
        assert PATH_PROFILE_DB == (0.0, -3.0, -9.0)
        rng = np.random.default_rng(20240)
        ch = ClarkeChannel(9, 5e-3, rng)
        powers = 10.0 ** (np.array([0.0, -3.0, -9.0]) / 10.0)
        assert_array_equal(ch.path_powers, powers / powers.sum())
        replay = np.random.default_rng(20240)
        gaps = replay.integers(0, 3, size=2)
        assert_array_equal(ch.positions, np.minimum([0, gaps[0], gaps.sum()], 8))
        for p in range(3):
            replay.random()
            assert_array_equal(ch._phases[p], replay.uniform(0.0, 2.0 * np.pi, 16))
        assert rng.bit_generator.state == replay.bit_generator.state

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

    @pytest.mark.parametrize("noise_vars", [(0.3,), (0.0, 0.05, 2.0)])
    @pytest.mark.parametrize("n_symbols", [1, 127, 128, 129, 1500])
    @pytest.mark.parametrize("chips,paths", [(32, 9), (4, 9), (2, 9), (1, 16)])
    def test_slices_join_to_the_one_shot_block(self, chips, paths, n_symbols, noise_vars):
        # at (2, 9) and (1, 16) a window reaches chips of 4 and 15 symbols
        # on either side, not just the adjacent ones
        users = min(4, 2**chips)
        cfg = CdmaConfig(n_users=users, n_chips=chips, n_paths=paths, snr_db=10.0,
                         amplitudes=(1.0, 0.7, 1.3, 0.5)[:users])
        setup = np.random.default_rng(n_symbols + 7 * chips)
        sigs = generate_signatures(users, chips, setup)
        gains = ClarkeChannel(paths, 5e-3, setup).run(n_symbols)
        symbols = qpsk_symbols(setup, users, n_symbols)
        rng, oracle_rng = np.random.default_rng(19), np.random.default_rng(19)
        slices = list(generate_received(cfg, sigs, gains, symbols, rng, noise_vars))
        want = one_shot_received(cfg, sigs, gains, symbols, oracle_rng, noise_vars)
        assert [s.shape[1] for s in slices] == [
            min(128, n_symbols - lo) for lo in range(0, n_symbols, 128)
        ]
        got = joined(slices)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        # the generator ends where the one-shot draw left it
        assert rng.standard_normal() == oracle_rng.standard_normal()

    def test_single_user_single_path_is_scaled_signature(self):
        cfg = CdmaConfig(n_users=1, n_chips=8, n_paths=1, snr_db=np.inf)
        rng = np.random.default_rng(9)
        sigs = generate_signatures(1, 8, rng)
        symbols = qpsk_symbols(rng, 1, 5)
        gains = self._static_gains(5, 1, [1.0])
        r = joined(generate_received(cfg, sigs, gains, symbols, rng, (cfg.noise_variance,)))[0]
        for i in range(5):
            assert_allclose(r[i], symbols[0, i] * sigs[0], atol=0)

    def test_matches_chip_stream_oracle_bit_for_bit(self):
        cfg = CdmaConfig(
            n_users=3, n_chips=8, n_paths=3, snr_db=12.0,
            amplitudes=(1.0, 0.7, 1.3),
        )
        rng_lib = np.random.default_rng(10)
        rng_oracle = np.random.default_rng(10)
        sig_rng = np.random.default_rng(11)
        sigs = generate_signatures(3, 8, sig_rng)
        symbols = qpsk_symbols(sig_rng, 3, 40)
        gains = ClarkeChannel(3, 1e-3, sig_rng).run(40)
        lib = joined(
            generate_received(cfg, sigs, gains, symbols, rng_lib, (cfg.noise_variance,))
        )[0]
        oracle = chip_stream_oracle(cfg, sigs, gains, symbols, rng_oracle)
        assert_array_equal(lib, oracle)

    def test_matches_chip_stream_oracle_at_desk_dimensions(self):
        # 9 taps, of which the three paths occupy at most 3: the library
        # skips the all-zero gain columns, the oracle adds their zeros
        cfg = CdmaConfig(
            n_users=8, n_chips=32, n_paths=9, snr_db=15.0, doppler=5e-3,
            amplitudes=(1.0,) + (0.35,) * 7,
        )
        setup = np.random.default_rng(20240)
        sigs = generate_signatures(8, 32, setup)
        gains = ClarkeChannel(9, 5e-3, setup).run(12)
        symbols = qpsk_symbols(setup, 8, 12)
        assert (~(gains != 0).any(axis=0)).sum() >= 6
        lib = joined(generate_received(
            cfg, sigs, gains, symbols, np.random.default_rng(5), (cfg.noise_variance,)
        ))[0]
        oracle = chip_stream_oracle(cfg, sigs, gains, symbols, np.random.default_rng(5))
        assert_array_equal(lib, oracle)

    def test_several_variances_equal_separate_calls(self):
        cfg = CdmaConfig(
            n_users=3, n_chips=8, n_paths=5, snr_db=12.0,
            amplitudes=(1.0, 0.7, 1.3),
        )
        setup = np.random.default_rng(16)
        sigs = generate_signatures(3, 8, setup)
        gains = ClarkeChannel(5, 1e-3, setup).run(30)
        symbols = qpsk_symbols(setup, 3, 30)
        variances = (cfg.noise_variance, 0.0, 2.5, 1e-3)
        rng = np.random.default_rng(17)
        stacked = joined(generate_received(cfg, sigs, gains, symbols, rng, variances))
        after = rng.standard_normal()
        assert stacked.shape == (4, 30, cfg.window_len)
        for block, var in zip(stacked, variances):
            alone_rng = np.random.default_rng(17)
            alone = joined(generate_received(cfg, sigs, gains, symbols, alone_rng, (var,)))[0]
            assert_array_equal(block, alone)
            # one draw serves every variance: the generator ends in one state
            assert alone_rng.standard_normal() == after

    def test_needs_a_noise_variance(self):
        cfg = CdmaConfig(n_users=3, n_chips=8, n_paths=5, snr_db=12.0)
        setup = np.random.default_rng(16)
        sigs = generate_signatures(3, 8, setup)
        gains = ClarkeChannel(5, 1e-3, setup).run(30)
        symbols = qpsk_symbols(setup, 3, 30)
        with pytest.raises(ValueError, match="at least one noise variance"):
            generate_received(cfg, sigs, gains, symbols, np.random.default_rng(17), ())

    def test_traced_peak_at_desk_dimensions(self):
        # the slices and the block they join make two blocks; what a slice
        # needs while it is built is a small part of one
        cfg = CdmaConfig(
            n_users=8, n_chips=32, n_paths=9, snr_db=15.0, doppler=5e-3,
            amplitudes=(1.0,) + (0.35,) * 7,
        )
        setup = np.random.default_rng(20240)
        sigs = generate_signatures(8, 32, setup)
        gains = ClarkeChannel(9, 5e-3, setup).run(1500)
        symbols = qpsk_symbols(setup, 8, 1500)
        rng = np.random.default_rng(5)
        tracemalloc.start()
        try:
            received = joined(
                generate_received(cfg, sigs, gains, symbols, rng, (cfg.noise_variance,))
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert received.shape == (1, 1500, cfg.window_len)
        assert peak <= 3.5 * received[0].nbytes

    def test_linear_in_each_symbol(self):
        cfg = CdmaConfig(n_users=2, n_chips=8, n_paths=3, snr_db=np.inf)
        rng = np.random.default_rng(12)
        sigs = generate_signatures(2, 8, rng)
        gains = ClarkeChannel(3, 0.0, rng).run(6)
        base = qpsk_symbols(rng, 2, 6)
        noise = (cfg.noise_variance,)
        r1 = joined(generate_received(cfg, sigs, gains, base, np.random.default_rng(0), noise))[0]
        r2 = joined(
            generate_received(cfg, sigs, gains, 2 * base, np.random.default_rng(0), noise)
        )[0]
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
        r = joined(generate_received(cfg, sigs, gains, symbols, rng, (noise_var,)))[0]
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
        gains = np.zeros((3, 2))
        state = rng.bit_generator.state
        # each raises at the call, before any slice is asked for or any
        # noise is drawn
        for args in (
            (sigs, np.zeros((2, 2)), symbols),
            (sigs[:1], gains, symbols),
            (sigs, gains, symbols[:, :0]),
            (sigs, gains, symbols[0]),
            (sigs, np.zeros((3, 3)), symbols),
        ):
            with pytest.raises(ValueError):
                generate_received(cfg, *args, rng, (cfg.noise_variance,))
        assert rng.bit_generator.state == state


def mmse_system(cfg, signatures, channel_gains, loading):
    """Covariance and steering vector of the MMSE normal equations.

    Built from :func:`build_convolution_matrix` alone: every user's windows
    of the symbols ``-reach .. reach`` around the current one, ``reach =
    ceil((n_paths - 1) / n_chips)``, weighted by the squared amplitude, with
    ``loading`` added to the diagonal.  The real matrices are cast to
    complex on every call, as the receiver did before it kept complex stacks.
    """
    sigs = np.asarray(signatures, dtype=np.float64)
    h = np.asarray(channel_gains, dtype=np.complex128)
    reach = -(-(cfg.n_paths - 1) // cfg.n_chips)
    shifts = range(-reach, reach + 1)
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
            w = MmseReceiver(cfg, sigs, [h], noise_var).equivalent()
            cov, steering = mmse_system(cfg, sigs, h, noise_var + 1e-10)
            assert np.linalg.norm(cov @ w - steering) <= 1e-8 * np.linalg.norm(steering)

    def test_matched_filter_limit_at_high_noise(self):
        cfg = CdmaConfig(n_users=1, n_chips=16, n_paths=1, snr_db=-40.0)
        rng = np.random.default_rng(21)
        sigs = generate_signatures(1, 16, rng)
        w = MmseReceiver(cfg, sigs, [[1.0 + 0j]], cfg.noise_variance).equivalent()
        cosine = abs(np.vdot(w, sigs[0])) / (np.linalg.norm(w) * np.linalg.norm(sigs[0]))
        assert cosine >= 0.999

    def test_output_sinr_beats_matched_filter(self):
        for seed in range(10):
            cfg, sigs, h, _ = self._setup(seed, n_users=6)
            noise_var = cfg.noise_variance
            w = MmseReceiver(cfg, sigs, [h], noise_var).equivalent()
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
            MmseReceiver(cfg, sigs, np.ones((1, 3), dtype=complex), 0.1).equivalent()

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
        receiver = MmseReceiver(cfg, sigs, snapshots, noise_var)
        exact = _on_golden_platform()
        for h in snapshots:
            got = receiver.equivalent()
            receiver.step(np.zeros(cfg.window_len), 0.0)  # on to the next snapshot
            want = mmse_filter(cfg, sigs, h, noise_var)
            if exact:
                assert_array_equal(got, want)
            else:
                assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.linalg.norm(want))

    @pytest.mark.parametrize("n_chips,n_paths", [(32, 9), (2, 9), (4, 9), (1, 5), (3, 1)])
    def test_filter_is_the_exact_mmse_filter_of_the_received_windows(self, n_chips, n_paths):
        # the exact normal equations, from generate_received alone: with
        # one user's symbol a unit impulse and every other symbol zero, the
        # noiseless windows around it are that symbol's contribution to each
        # window it reaches; unit-power symbols make the covariance their
        # summed outer products, and the steering vector is user 0's
        # impulse in its own window
        n_users = min(3, 2**n_chips)
        cfg = CdmaConfig(n_users=n_users, n_chips=n_chips, n_paths=n_paths, snr_db=10.0,
                         doppler=0.0, amplitudes=(1.0, 0.7, 0.4)[:n_users])
        rng = np.random.default_rng(n_chips * 100 + n_paths)
        sigs = generate_signatures(n_users, n_chips, rng)
        n = 2 * n_paths + 1  # the impulse at symbol n_paths reaches every window it can
        gains = ClarkeChannel(n_paths, 0.0, rng).run(n)
        noise_var = cfg.noise_variance
        cov = (noise_var + 1e-10) * np.eye(cfg.window_len, dtype=complex)
        for k in range(n_users):
            impulse = np.zeros((n_users, n), dtype=complex)
            impulse[k, n_paths] = 1.0
            (windows,) = joined(generate_received(cfg, sigs, gains, impulse, rng, (0.0,)))
            cov += windows.T @ windows.conj()
            if k == 0:
                steering = windows[n_paths]
        want = np.linalg.solve(cov, steering)
        got = MmseReceiver(cfg, sigs, gains, noise_var).equivalent()
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_singular_covariance_falls_back_to_pinv(self):
        # the signature leaves the second sample empty and noise_var -1e-10
        # cancels the regularization, so cov is exactly diag(|h|^2, 0); zero gains
        # would make it singular too, but their pinv solution is all zeros
        cfg = CdmaConfig(n_users=1, n_chips=2, n_paths=1)
        sigs = np.array([[1.0, 0.0]])
        h = np.array([0.5 - 0.25j])
        with pytest.warns(RuntimeWarning, match="pseudo-inverse"):
            w = MmseReceiver(cfg, sigs, [h], -1e-10).equivalent()
        cov, steering = mmse_system(cfg, sigs, h, 0.0)
        assert_array_equal(cov, np.diag([0.3125, 0.0]))  # |h|^2 = 0.3125
        assert_array_equal(w, np.linalg.pinv(cov) @ steering)
        assert w[0] != 0


# the desk downlink of configs/mmse.yaml, frozen (zero Doppler)
_FROZEN_DESK = CdmaConfig(n_users=8, n_chips=32, n_paths=9, snr_db=15.0, doppler=0.0,
                          amplitudes=(1.0,) + (0.35,) * 7)


def _frozen_desk_run(seed, n):
    """One run of the frozen desk downlink, drawn in the harness's order:
    ``(desired symbols, received windows, receiver, J_min, tr R)``.

    ``receiver`` is the MMSE receiver bound to the run and ``J_min = 1 -
    Re(p^H w)`` the analytic minimum of its normal equations, ``w`` the MMSE
    filter of the run's one channel snapshot ``h`` and ``p`` the desired
    user's steering vector.  ``tr R = sum_k a_k^2 sum_shift |A_{k,shift} h|^2
    + M noise_var`` is the power of a received window."""
    cfg, noise_var = _FROZEN_DESK, _FROZEN_DESK.noise_variance
    rng = np.random.default_rng(seed)
    signatures = generate_signatures(cfg.n_users, cfg.n_chips, rng)
    channel = ClarkeChannel(cfg.n_paths, cfg.doppler, rng)
    symbols = qpsk_symbols(rng, cfg.n_users, n)
    gains = channel.run(n)
    (received,) = joined(generate_received(cfg, signatures, gains, symbols, rng, (noise_var,)))
    h = gains[0]
    assert_array_equal(gains, np.broadcast_to(h, gains.shape))
    receiver = MmseReceiver(cfg, signatures, gains, noise_var)
    p = cfg.amplitudes[0] * build_convolution_matrix(signatures[0], cfg.n_paths) @ h
    j_min = 1.0 - np.vdot(p, receiver.equivalent()).real
    tr_r = cfg.window_len * noise_var + sum(
        a**2 * np.linalg.norm(build_convolution_matrix(sig, cfg.n_paths, shift) @ h) ** 2
        for a, sig in zip(cfg.amplitudes, signatures)
        for shift in (-1, 0, 1)
    )
    return symbols[0], received, receiver, j_min, tr_r


class TestMmseAnchor:
    """Portable physics floor, on every platform: with the channel frozen
    (zero Doppler) the MMSE receiver's sample MSE over a run must match that
    run's analytic minimum ``J_min`` within the sample's own standard
    error."""

    def test_sample_mse_matches_j_min_at_zero_doppler(self):
        n = 1500
        zs = []
        for seed in range(20240, 20248):
            desired, received, receiver, j_min, _ = _frozen_desk_run(seed, n)
            sq_err = np.array([abs(receiver.step(r, d).e) ** 2
                               for r, d in zip(received, desired)])
            zs.append((sq_err.mean() - j_min) / (sq_err.std() / np.sqrt(n)))
        assert max(map(abs, zs)) <= 4.0, zs


class TestLmsAnchor:
    """Portable floor for the adaptive path, on every platform: at zero
    Doppler, full-rank LMS settles at the complex-LMS steady-state MSE
    ``J_min (1 + mu tr R / (2 - mu tr R))`` of the mean-square analysis in
    Sayed, *Fundamentals of Adaptive Filtering* (Wiley, 2003).  LMS errors
    are autocorrelated, so a per-run z-score would overstate the
    confidence; the test bounds the ratio of sample MSE to theory instead,
    averaged over runs and per run."""

    @pytest.mark.parametrize("mu", [0.01, 0.05])
    def test_steady_state_mse_matches_theory(self, mu):
        n, tail = 4000, 2000
        ratios = []
        for seed in range(20240, 20260):
            desired, received, _, j_min, tr_r = _frozen_desk_run(seed, n)
            lms = FullRankLms(_FROZEN_DESK.window_len, mu)
            sq_err = [abs(lms.step(r, d).e) ** 2 for r, d in zip(received, desired)]
            theory = j_min * (1.0 + mu * tr_r / (2.0 - mu * tr_r))
            ratios.append(np.mean(sq_err[-tail:]) / theory)
        assert abs(np.mean(ratios) - 1.0) <= 0.03, ratios
        assert 0.85 <= min(ratios) and max(ratios) <= 1.15, ratios


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

    def test_idempotent_on_constellation(self):
        rng = np.random.default_rng(22)
        syms = qpsk_symbols(rng, 1, 100)[0]
        assert_array_equal([detect_qpsk(y) for y in syms], syms)

    @pytest.mark.parametrize("kind", [complex, np.complex128])
    def test_scalar_path_matches_array_expression(self, kind):
        # the table lookup must return exactly what an array expression
        # returns, signed zeros and non-finite components included
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
