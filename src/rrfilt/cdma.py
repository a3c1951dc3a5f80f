"""Synchronous DS-CDMA downlink signal model.

One symbol period spreads each user's QPSK symbol over ``n_chips`` chips with
a unit-norm binary signature; all users share a common multipath downlink
channel with ``n_paths`` chip-spaced taps, of which three carry a
0 / -3 / -9 dB power profile with random spacing.  The receiver observes
``window_len = n_chips + n_paths - 1`` chip-rate samples per symbol, so each
window also sees the tails of the previous and the head of the next symbol
(intersymbol interference).

The received windows are produced by exact chip-rate convolution of the
concatenated transmit chip stream with the channel taps of the observed
symbol, plus circular complex Gaussian noise.  Summation order (ascending
user, then ascending path, then noise) is part of the contract so an
independent re-implementation reproduces the samples bit for bit.

Path gains evolve by a sum-of-sinusoids generator with the classic
isotropic-scattering statistics (Rayleigh envelope, Bessel autocorrelation):
per path, ``N_OSCILLATORS`` equally spaced arrival angles over a half circle
with a random rotation, a random phase per oscillator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import _NO_MIXING, StepResult
from .signalcore import _window

SQRT2 = float(np.sqrt(2.0))
N_OSCILLATORS = 16  # sinusoids per fading path


@dataclass
class CdmaConfig:
    """Dimensions and operating point of the downlink scenario.

    ``amplitudes`` defaults to unit amplitude for every user; user 0 is the
    desired user.  ``snr_db`` is the desired user's bit energy over the noise
    spectral density: with unit-norm signatures and unit total channel power
    the bit energy is ``amplitudes[0]**2``, so the per-sample complex noise
    variance is ``amplitudes[0]**2 * 10**(-snr_db / 10)``.  ``doppler`` is
    the normalized Doppler rate (cycles per symbol).
    """

    n_users: int = 8
    n_chips: int = 32
    n_paths: int = 9
    snr_db: float = 15.0
    doppler: float = 1e-4
    amplitudes: tuple[float, ...] | None = None
    path_profile_db: tuple[float, ...] = (0.0, -3.0, -9.0)

    def __post_init__(self):
        if self.n_users < 1 or self.n_chips < 1 or self.n_paths < 1:
            raise ValueError("n_users, n_chips and n_paths must be >= 1")
        # n_users > 2**n_chips, without building a huge power of two
        if (self.n_users - 1).bit_length() > self.n_chips:
            raise ValueError(
                f"{self.n_users} users need distinct signatures, but {self.n_chips} "
                f"chips give only 2**{self.n_chips} binary sequences"
            )
        if self.amplitudes is None:
            self.amplitudes = (1.0,) * self.n_users
        else:
            self.amplitudes = tuple(float(a) for a in self.amplitudes)
        if len(self.amplitudes) != self.n_users:
            raise ValueError("need one amplitude per user")
        if not all(math.isfinite(a) and a >= 0 for a in self.amplitudes):
            raise ValueError("amplitudes must be finite and non-negative")
        if not (math.isfinite(self.doppler) and self.doppler >= 0):
            raise ValueError("doppler must be finite and non-negative")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError("snr_db must be a number or +inf (noiseless)")
        try:
            finite_noise = math.isfinite(self.noise_variance)
        except OverflowError:
            finite_noise = False
        if not finite_noise:
            raise ValueError(
                f"snr_db {self.snr_db} with desired amplitude {self.amplitudes[0]} "
                "gives a noise variance beyond the float range"
            )
        self.path_profile_db = tuple(float(p) for p in self.path_profile_db)
        with np.errstate(over="ignore"):  # the channel normalizes by this sum
            total = (10.0 ** (np.asarray(self.path_profile_db) / 10.0)).sum()
        if not (all(map(math.isfinite, self.path_profile_db)) and 0 < total < math.inf):
            raise ValueError(
                "path_profile_db must list finite dB values with a finite, "
                "positive total power"
            )

    @property
    def window_len(self) -> int:
        """Observed samples per symbol: n_chips + n_paths - 1."""
        return self.n_chips + self.n_paths - 1

    @property
    def noise_variance(self) -> float:
        """Per-sample complex noise variance implied by ``snr_db``."""
        return float(self.amplitudes[0] ** 2 * 10.0 ** (-self.snr_db / 10.0))


def generate_signatures(n_users: int, n_chips: int, rng: np.random.Generator) -> np.ndarray:
    """Draw pairwise-distinct random binary signatures.

    Returns an ``(n_users, n_chips)`` array with entries ``+-1/sqrt(n_chips)``,
    each row unit norm.  Deterministic for a given generator state.
    """
    if n_users < 1 or n_chips < 1:
        raise ValueError("n_users and n_chips must be >= 1")
    if n_users > 2**n_chips:
        raise ValueError(
            f"cannot draw {n_users} distinct length-{n_chips} binary sequences"
        )
    scale = 1.0 / np.sqrt(n_chips)
    seen: set[bytes] = set()
    rows = []
    while len(rows) < n_users:
        bits = rng.integers(0, 2, size=n_chips)
        key = bits.tobytes()
        if key in seen:
            continue
        seen.add(key)
        rows.append((2.0 * bits - 1.0) * scale)
    return np.asarray(rows)


def build_convolution_matrix(signature, n_paths: int, symbol_shift: int = 0) -> np.ndarray:
    """Stack one-chip-shifted copies of a signature into columns.

    Column ``l`` of the ``(window_len, n_paths)`` result holds the signature
    delayed by ``l`` chips; ``symbol_shift`` additionally delays by whole
    symbols (+1 for the next symbol, -1 for the previous), producing the
    windows through which adjacent symbols leak.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    s = np.asarray(signature, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("signature must be a vector")
    n_chips = s.size
    window_len = n_chips + n_paths - 1
    mat = np.zeros((window_len, n_paths))
    for path in range(n_paths):
        lo = path + symbol_shift * n_chips
        hi = lo + n_chips
        a, b = max(lo, 0), min(hi, window_len)
        if a < b:
            mat[a:b, path] = s[a - lo : b - lo]
    return mat


class ClarkeChannel:
    """Time-varying multipath channel with isotropic-scattering fading.

    Three (or ``len(profile_db)``) active paths are placed at chip delays
    ``0, g1, g1 + g2`` with the gaps drawn uniformly from ``{0, 1, 2}``
    (clipped into the tap range; coinciding paths add).  Each path's complex
    gain is a sum of ``N_OSCILLATORS`` random-phase sinusoids whose Doppler
    shifts come from equally spaced arrival angles over a half circle with a
    random rotation, giving the expected power profile exactly and the
    classic Bessel-shaped autocorrelation at rate ``doppler`` cycles/symbol.
    Zero Doppler freezes the gains.
    """

    def __init__(
        self,
        n_paths: int,
        doppler: float,
        rng: np.random.Generator,
        profile_db: tuple[float, ...] = (0.0, -3.0, -9.0),
    ):
        if n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if doppler < 0:
            raise ValueError("doppler must be non-negative")
        self.n_paths = int(n_paths)
        self.doppler = float(doppler)
        powers = 10.0 ** (np.asarray(profile_db, dtype=np.float64) / 10.0)
        self.path_powers = powers / powers.sum()
        n_active = self.path_powers.size

        gaps = rng.integers(0, 3, size=max(n_active - 1, 0))
        positions = np.concatenate(([0], np.cumsum(gaps))).astype(np.intp)
        self.positions = np.minimum(positions, self.n_paths - 1)

        # one random angle-bank rotation and phase set per path, per run
        self._omegas = np.empty((n_active, N_OSCILLATORS))
        self._phases = np.empty((n_active, N_OSCILLATORS))
        for p in range(n_active):
            angles = (np.arange(N_OSCILLATORS) + rng.random()) * (np.pi / N_OSCILLATORS)
            self._omegas[p] = 2.0 * np.pi * self.doppler * np.cos(angles)
            self._phases[p] = rng.uniform(0.0, 2.0 * np.pi, N_OSCILLATORS)
        self._t = 0

    def path_gain_series(self, path: int, n_symbols: int) -> np.ndarray:
        """Gains of one active path for the next ``n_symbols`` symbols
        (does not advance the channel clock)."""
        t = np.arange(self._t, self._t + n_symbols, dtype=np.float64)
        osc = np.exp(1j * (np.outer(t, self._omegas[path]) + self._phases[path]))
        scale = np.sqrt(self.path_powers[path] / N_OSCILLATORS)
        return scale * osc.sum(axis=1)

    def run(self, n_symbols: int) -> np.ndarray:
        """Advance ``n_symbols`` symbols; returns ``(n_symbols, n_paths)``
        tap gains (coinciding paths accumulate on their tap)."""
        gains = np.zeros((n_symbols, self.n_paths), dtype=np.complex128)
        for p, pos in enumerate(self.positions):
            gains[:, pos] += self.path_gain_series(p, n_symbols)
        self._t += n_symbols
        return gains


def qpsk_symbols(rng: np.random.Generator, n_users: int, n_symbols: int) -> np.ndarray:
    """Uniform unit-power QPSK symbols, shape ``(n_users, n_symbols)``."""
    re = 2.0 * rng.integers(0, 2, size=(n_users, n_symbols)) - 1.0
    im = 2.0 * rng.integers(0, 2, size=(n_users, n_symbols)) - 1.0
    return (re + 1j * im) / SQRT2


# constellation points indexed by (Re >= 0) + 2 * (Im >= 0)
_QPSK_POINTS = tuple(
    complex(re, im) / SQRT2 for im in (-1.0, 1.0) for re in (-1.0, 1.0)
)


def detect_qpsk(y):
    """Quadrant slicer onto the QPSK constellation; zeros break toward +1.

    A Python or numpy complex scalar takes a table lookup; anything else goes
    through the array path.  Both return the same values, NaN components
    slicing toward -1.
    """
    if isinstance(y, complex):
        return _QPSK_POINTS[(y.real >= 0.0) + 2 * (y.imag >= 0.0)]
    y = np.asarray(y)
    re = np.where(y.real >= 0.0, 1.0, -1.0)
    im = np.where(y.imag >= 0.0, 1.0, -1.0)
    out = (re + 1j * im) / SQRT2
    return complex(out) if out.ndim == 0 else out


def generate_received(
    cfg: CdmaConfig,
    signatures: np.ndarray,
    path_gains: np.ndarray,
    symbols: np.ndarray,
    rng: np.random.Generator,
    noise_var: float | tuple[float, ...] | None = None,
) -> np.ndarray:
    """Received observation windows for a block of symbols.

    Builds the superposed transmit chip stream (ascending user order), runs
    it through the per-symbol channel taps by windowed chip-rate convolution
    (ascending path order, skipping taps whose gains are all zero: the
    accumulators start at +0.0, so adding their ±0.0 terms would change no
    bit), and adds noise.  ``path_gains`` has shape ``(n_symbols, n_paths)``
    and ``symbols`` ``(n_users, n_symbols)``.

    Noise variates are always drawn -- two ``standard_normal`` blocks of
    shape ``(n_symbols, window_len)``, real then imaginary -- even at zero
    variance, so a seeded generator yields the same stream at any SNR.

    Returns ``(n_symbols, window_len)`` complex samples, each
    ``signal + sqrt(noise_var / 2) * noise`` per plane.  A tuple of noise
    variances returns one such block per variance, stacked on a new first
    axis, all from the one signal and the one noise draw: each block is
    bit for bit what a separate call at that variance would return from
    the same generator state.
    """
    sigs = np.asarray(signatures, dtype=np.float64)
    gains = np.asarray(path_gains, dtype=np.complex128)
    b = np.asarray(symbols, dtype=np.complex128)
    if sigs.shape != (cfg.n_users, cfg.n_chips):
        raise ValueError("signatures shape does not match the configuration")
    n_symbols = b.shape[1] if b.ndim == 2 else 0
    if b.shape != (cfg.n_users, n_symbols) or n_symbols < 1:
        raise ValueError("symbols must be (n_users, n_symbols) with n_symbols >= 1")
    if gains.shape != (n_symbols, cfg.n_paths):
        raise ValueError("path_gains must be (n_symbols, n_paths)")
    stacked = isinstance(noise_var, tuple)
    variances = noise_var if stacked else (
        cfg.noise_variance if noise_var is None else noise_var,
    )

    signal_re, signal_im = _noiseless_planes(cfg, sigs, gains, b)
    noise_re = rng.standard_normal(signal_re.shape)
    noise_im = rng.standard_normal(signal_re.shape)
    received = np.empty((len(variances), *signal_re.shape), dtype=np.complex128)
    for block, var in zip(received, variances):
        scale = np.sqrt(var / 2.0)
        block.real = signal_re + scale * noise_re
        block.imag = signal_im + scale * noise_im
    return received if stacked else received[0]


def _noiseless_planes(cfg: CdmaConfig, sigs, gains, b) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary planes of the noiseless windows (see
    :func:`generate_received`, which checks the arguments).  A function of
    its own so that the chip stream is freed before the noise and the
    received blocks are allocated."""
    n_symbols, n_chips, n_paths = b.shape[1], cfg.n_chips, cfg.n_paths
    window_len = cfg.window_len

    chips = np.zeros((n_symbols, n_chips), dtype=np.complex128)
    for k in range(cfg.n_users):
        chips += (cfg.amplitudes[k] * b[k])[:, None] * sigs[k][None, :]

    pad = n_paths - 1
    stream = np.concatenate(
        [np.zeros(pad, np.complex128), chips.ravel(), np.zeros(pad, np.complex128)]
    )
    windows = np.lib.stride_tricks.sliding_window_view(stream, window_len)
    starts = n_chips * np.arange(n_symbols)
    signal_re = np.zeros((n_symbols, window_len))
    signal_im = np.zeros((n_symbols, window_len))
    for path in np.flatnonzero((gains != 0).any(axis=0)):
        g = gains[:, path][:, None]
        w = windows[starts + pad - path]
        # split-plane product: the vectorized complex-multiply loop may fuse
        # operations and round differently from scalar arithmetic, which
        # would break the bit-level reproducibility promised above
        signal_re += g.real * w.real - g.imag * w.imag
        signal_im += g.real * w.imag + g.imag * w.real
    return signal_re, signal_im


class MmseReceiver:
    """Clairvoyant linear MMSE receiver for user 0.

    Knows every signature, every amplitude and the noise variance; given a
    channel snapshot it solves the normal equations whose covariance sums
    the current, previous and next symbol windows of every user (the exact
    interference structure of :func:`generate_received`) plus the noise
    floor.  Recompute per symbol while the channel fades.

    The convolution matrices are kept complex and stacked into one
    ``(3 * n_users * window_len, n_paths)`` array, so a snapshot costs one
    matrix-vector product, one covariance product and one solve, with no
    per-call casts.  Holding them complex gives the same products, bit for
    bit, as casting the real matrices on every call.
    """

    _SHIFTS = (-1, 0, 1)

    def __init__(self, cfg: CdmaConfig, signatures: np.ndarray):
        sigs = np.asarray(signatures, dtype=np.float64)
        if sigs.shape != (cfg.n_users, cfg.n_chips):
            raise ValueError("signatures shape does not match the configuration")
        self.cfg = cfg
        mats, weights = [], []
        for k in range(cfg.n_users):
            for shift in self._SHIFTS:
                mats.append(build_convolution_matrix(sigs[k], cfg.n_paths, shift))
                weights.append(cfg.amplitudes[k] ** 2)
        self._stack = np.concatenate(mats).astype(np.complex128)
        self._eff_shape = (len(mats), cfg.window_len)
        self._weights = np.asarray(weights)
        self._desired = build_convolution_matrix(sigs[0], cfg.n_paths, 0).astype(
            np.complex128
        )

    def filter_for(self, channel_gains, noise_var: float) -> np.ndarray:
        """MMSE filter for one channel snapshot (length ``n_paths`` gains)."""
        h = np.asarray(channel_gains, dtype=np.complex128)
        if h.shape != (self.cfg.n_paths,):
            raise ValueError("channel snapshot must have one gain per path")
        eff = (self._stack @ h).reshape(self._eff_shape)  # (3 * n_users, window_len)
        cov = (eff.T * self._weights) @ np.conj(eff)
        # the diagonal, through a view: matmul returns a fresh C-ordered array
        cov.ravel()[:: self._eff_shape[1] + 1] += noise_var + 1e-10
        steering = self.cfg.amplitudes[0] * (self._desired @ h)
        try:
            return np.linalg.solve(cov, steering)
        except np.linalg.LinAlgError:
            warnings.warn(
                "MMSE covariance singular despite regularization; "
                "falling back to a pseudo-inverse solution",
                RuntimeWarning,
                stacklevel=2,
            )
            return np.linalg.pinv(cov) @ steering


class MmseOracle:
    """The clairvoyant MMSE receiver as a scheme: bound to one run's channel
    gains (``(n_symbols, n_paths)``, one snapshot per symbol) and one noise
    variance, it speaks the adaptive schemes' protocol
    (:mod:`rrfilt.filters`) without adapting.

    ``equivalent()`` is the MMSE filter of the current symbol's snapshot, so
    ``equivalent()^H r == predict(r)``.  ``step(r, d)`` filters ``r`` with
    it (one :meth:`MmseReceiver.filter_for` solve), applies ``d`` to the
    output if it is a decision function, and moves on to the next symbol.
    """

    def __init__(self, receiver: MmseReceiver, gains, noise_var: float):
        self.receiver = receiver
        self.gains = np.asarray(gains, dtype=np.complex128)
        self.noise_var = float(noise_var)
        self.num_taps = receiver.cfg.window_len
        self.symbol = 0  # row of ``gains`` that the next step filters with

    def equivalent(self) -> np.ndarray:
        """The current symbol's MMSE filter."""
        return self.receiver.filter_for(self.gains[self.symbol], self.noise_var)

    def predict(self, r) -> complex:
        """Output of the current symbol's filter for ``r``; does not advance."""
        return np.vdot(self.equivalent(), _window(r, self.num_taps)).item()

    def step(self, r, d) -> StepResult:
        y = self.predict(r)
        if callable(d):
            d = d(y)
        self.symbol += 1
        return StepResult(y, complex(d) - y, (y,), (), _NO_MIXING)
