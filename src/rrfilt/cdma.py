"""Synchronous DS-CDMA downlink signal model.

One symbol period spreads each user's QPSK symbol over ``n_chips`` chips with
a unit-norm binary signature; all users share a common multipath downlink
channel with ``n_paths`` chip-spaced taps, of which three carry the fixed
0 / -3 / -9 dB power profile ``PATH_PROFILE_DB`` with random spacing.  The
receiver observes ``window_len = n_chips + n_paths - 1`` chip-rate samples
per symbol, so each window also sees chips of the symbols on either side,
``ceil((n_paths - 1) / n_chips)`` of them (intersymbol interference).

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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .filters import StepResult
from .signalcore import _window

SQRT2 = float(np.sqrt(2.0))
N_OSCILLATORS = 16  # sinusoids per fading path
PATH_PROFILE_DB = (0.0, -3.0, -9.0)  # power of each active path, in dB
_SLICE = 128  # symbols per slice of the received windows


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

    def __post_init__(self):
        # kinds first: a wrong-typed field is a ValueError that names it
        for name in ("n_users", "n_chips", "n_paths"):
            _check_kind(int, getattr(self, name), name)
        for name in ("snr_db", "doppler"):
            _check_kind(float, getattr(self, name), name)
        if self.amplitudes is not None:
            if not isinstance(self.amplitudes, (list, tuple)):
                raise ValueError(f"amplitudes must be a list of numbers, got {self.amplitudes!r}")
            for i, a in enumerate(self.amplitudes):
                _check_kind(float, a, f"amplitudes[{i}]")
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

    @property
    def window_len(self) -> int:
        """Observed samples per symbol: n_chips + n_paths - 1."""
        return self.n_chips + self.n_paths - 1

    @property
    def noise_variance(self) -> float:
        """Per-sample complex noise variance implied by ``snr_db``."""
        return float(self.amplitudes[0] ** 2 * 10.0 ** (-self.snr_db / 10.0))


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _check_kind(kind: type, value, key: str) -> None:
    """Raise a ``ValueError`` naming ``key`` unless ``value`` is a ``kind``;
    a number (``kind`` float) may be an integer, and booleans are neither.
    A kind outside ``_KIND_NAMES`` is named by its class name."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        what = _KIND_NAMES.get(kind, f"a {kind.__name__}")
        raise ValueError(f"{key} must be {what}, got {value!r}")


def _reach(cfg: CdmaConfig) -> int:
    """Symbols on either side whose chips reach a symbol's window:
    ``ceil((n_paths - 1) / n_chips)``."""
    return -(-(cfg.n_paths - 1) // cfg.n_chips)


def generate_signatures(n_users: int, n_chips: int, rng: np.random.Generator) -> np.ndarray:
    """Draw pairwise-distinct random binary signatures.

    Returns an ``(n_users, n_chips)`` array with entries ``+-1/sqrt(n_chips)``,
    each row unit norm.  Deterministic for a given generator state.
    """
    if n_users < 1 or n_chips < 1:
        raise ValueError("n_users and n_chips must be >= 1")
    # n_users > 2**n_chips, without building a huge power of two
    if (int(n_users) - 1).bit_length() > n_chips:
        raise ValueError(
            f"cannot draw {n_users} distinct length-{n_chips} binary sequences"
        )
    scale = 1.0 / math.sqrt(n_chips)  # math: n_chips may exceed the int64 range
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

    Three active paths, with the powers of ``PATH_PROFILE_DB`` normalized to
    unit total, are placed at chip delays ``0, g1, g1 + g2`` with the gaps
    drawn uniformly from ``{0, 1, 2}`` (clipped into the tap range;
    coinciding paths add).  Each path's complex gain is a sum of
    ``N_OSCILLATORS`` random-phase sinusoids whose Doppler shifts come from
    equally spaced arrival angles over a half circle with a random rotation,
    giving the expected power profile exactly and the classic Bessel-shaped
    autocorrelation at rate ``doppler`` cycles/symbol.  Zero Doppler freezes
    the gains.
    """

    def __init__(self, n_paths: int, doppler: float, rng: np.random.Generator):
        if n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not (math.isfinite(doppler) and doppler >= 0):
            raise ValueError("doppler must be finite and non-negative")
        self.n_paths = int(n_paths)
        self.doppler = float(doppler)
        powers = 10.0 ** (np.asarray(PATH_PROFILE_DB, dtype=np.float64) / 10.0)
        self.path_powers = powers / powers.sum()
        n_active = self.path_powers.size

        gaps = rng.integers(0, 3, size=n_active - 1)
        positions = np.concatenate(([0], np.cumsum(gaps))).astype(np.intp)
        self.positions = np.minimum(positions, self.n_paths - 1)

        # one random angle-bank rotation and phase set per path, per run
        self._omegas = np.empty((n_active, N_OSCILLATORS))
        self._phases = np.empty((n_active, N_OSCILLATORS))
        for p in range(n_active):
            angles = (np.arange(N_OSCILLATORS) + rng.random()) * (np.pi / N_OSCILLATORS)
            self._omegas[p] = 2.0 * np.pi * self.doppler * np.cos(angles)
            self._phases[p] = rng.uniform(0.0, 2.0 * np.pi, N_OSCILLATORS)

    def path_gain_series(self, path: int, n_symbols: int) -> np.ndarray:
        """Gains of one active path at symbols ``0 .. n_symbols - 1``."""
        t = np.arange(n_symbols, dtype=np.float64)
        osc = np.exp(1j * (np.outer(t, self._omegas[path]) + self._phases[path]))
        scale = np.sqrt(self.path_powers[path] / N_OSCILLATORS)
        return scale * osc.sum(axis=1)

    def run(self, n_symbols: int) -> np.ndarray:
        """Tap gains at symbols ``0 .. n_symbols - 1``, ``(n_symbols, n_paths)``
        (coinciding paths accumulate on their tap); every call gives the same
        series."""
        gains = np.zeros((n_symbols, self.n_paths), dtype=np.complex128)
        for p, pos in enumerate(self.positions):
            gains[:, pos] += self.path_gain_series(p, n_symbols)
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


def detect_qpsk(y: complex) -> complex:
    """Quadrant slicer of one complex value onto the QPSK constellation, by
    table lookup; zeros break toward +1, NaN components toward -1."""
    return _QPSK_POINTS[(y.real >= 0.0) + 2 * (y.imag >= 0.0)]


def generate_received(
    cfg: CdmaConfig,
    signatures: np.ndarray,
    path_gains: np.ndarray,
    symbols: np.ndarray,
    rng: np.random.Generator,
    noise_vars: tuple[float, ...],
) -> Iterator[np.ndarray]:
    """Received observation windows for a block of symbols, at each of the
    noise variances ``noise_vars`` (at least one), as an iterator over
    consecutive slices of ``_SLICE`` symbols (the last may be shorter).

    Builds the superposed transmit chip stream (ascending user order), runs
    it through the per-symbol channel taps by windowed chip-rate convolution
    (ascending path order, skipping taps whose gains are all zero: the
    accumulators start at +0.0, so adding their ±0.0 terms would change no
    bit), and adds noise.  ``path_gains`` has shape ``(n_symbols, n_paths)``
    and ``symbols`` ``(n_users, n_symbols)``.

    Noise variates are drawn once -- two ``standard_normal`` planes of shape
    ``(n_symbols, window_len)``, real then imaginary -- whatever the
    variances, even zero, so a seeded generator yields the same stream at
    any SNR.

    Each slice is a fresh ``(len(noise_vars), rows, window_len)`` complex
    array: block ``k`` is ``signal + sqrt(noise_vars[k] / 2) * noise`` per
    plane, every block from the one signal and the one noise draw, so each
    is bit for bit what a call with that variance alone gives from the same
    generator state.  Joined along axis 1, the slices are the whole block's
    windows, every value as if built in one piece: a slice's windows reach
    ``ceil((n_paths - 1) / n_chips)`` symbols of chips on either side, and
    the normal variates of consecutive slices are those of one draw.

    The arguments are checked here, before the iterator is returned.  The
    call also copies ``rng``'s state for the real plane and advances ``rng``
    past it with a discard pass; the iterator draws the real plane's slices
    from the copy and the imaginary plane's from ``rng`` itself.  Once the
    iterator is exhausted, ``rng`` is where a draw of both planes in one
    piece would leave it; draw nothing else from it before then.  A consumer
    that steps the windows slice by slice holds about one slice per noise
    variance, not the whole block.
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
    if len(noise_vars) == 0:
        raise ValueError("need at least one noise variance")

    bits = type(rng.bit_generator)()
    bits.state = rng.bit_generator.state
    real = np.random.Generator(bits)
    skip = np.empty((min(_SLICE, n_symbols), cfg.window_len))
    for lo in range(0, n_symbols, _SLICE):  # rng moves on to the imaginary plane
        rng.standard_normal(out=skip[: min(_SLICE, n_symbols - lo)])
    return _received_slices(cfg, sigs, gains, b, noise_vars, (real, rng))


def _received_slices(cfg: CdmaConfig, sigs, gains, b, noise_vars, rngs):
    """The slices of :func:`generate_received`, which checks the arguments;
    ``rngs`` draws the real and the imaginary noise plane."""
    n_symbols, width = b.shape[1], cfg.window_len
    paths = np.flatnonzero((gains != 0).any(axis=0))
    scales = [np.sqrt(v / 2.0) for v in noise_vars]
    for lo in range(0, n_symbols, _SLICE):
        hi = min(lo + _SLICE, n_symbols)
        received = np.empty((len(noise_vars), hi - lo, width), dtype=np.complex128)
        planes = _noiseless_planes(cfg, sigs, gains, b, paths, lo, hi)
        for part, signal, gen in zip(("real", "imag"), planes, rngs):
            noise = gen.standard_normal((hi - lo, width))
            for block, scale in zip(received, scales):
                plane = getattr(block, part)
                np.multiply(scale, noise, out=plane)
                plane += signal
        yield received


def _noiseless_planes(
    cfg: CdmaConfig, sigs, gains, b, paths, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary planes of the noiseless windows of symbols
    ``lo .. hi - 1``, over the taps ``paths`` (see :func:`generate_received`).

    The chip stream covers the slice and the ``ceil((n_paths - 1) /
    n_chips)`` symbols on either side whose chips reach its windows, laid
    out as the whole block's stream would be around them, so each window
    sees the same chips in the same places and every sample is computed as
    it would be in one piece."""
    n_symbols, n_chips, pad = b.shape[1], cfg.n_chips, cfg.n_paths - 1
    context = _reach(cfg)
    first, last = max(lo - context, 0), min(hi + context, n_symbols)
    stream = np.zeros((last - first) * n_chips + 2 * pad, dtype=np.complex128)
    chips = stream[pad : pad + (last - first) * n_chips].reshape(last - first, n_chips)
    for k in range(cfg.n_users):
        chips += (cfg.amplitudes[k] * b[k, first:last])[:, None] * sigs[k][None, :]
    windows = np.lib.stride_tricks.sliding_window_view(stream, cfg.window_len)
    start = (lo - first) * n_chips + pad  # window of symbol lo through tap 0
    signal_re = np.zeros((hi - lo, cfg.window_len))
    signal_im = np.zeros((hi - lo, cfg.window_len))
    for path in paths:
        g = gains[lo:hi, path][:, None]
        w = windows[start - path :: n_chips][: hi - lo]
        # split-plane product: the vectorized complex-multiply loop may
        # fuse operations and round differently from scalar arithmetic,
        # which would break the bit-level reproducibility promised above
        signal_re += g.real * w.real - g.imag * w.imag
        signal_im += g.real * w.imag + g.imag * w.real
    return signal_re, signal_im


class MmseReceiver:
    """Clairvoyant linear MMSE receiver for user 0, as a scheme.

    Knows every signature, every amplitude and the noise variance, and is
    bound to one run's channel gains (``(n_symbols, n_paths)``, one snapshot
    per symbol).  :meth:`filter_for` solves the normal equations of one
    snapshot, whose covariance sums every user's windows of the symbols
    ``-reach .. reach`` around the current one, ``reach = ceil((n_paths -
    1) / n_chips)`` (the exact interference structure of
    :func:`generate_received`), plus the noise floor.

    It speaks the adaptive schemes' protocol (:mod:`rrfilt.filters`) without
    adapting: ``equivalent()`` is the MMSE filter of the current symbol's
    snapshot, so ``equivalent()^H r == predict(r)``, and ``step(r, d)``
    filters ``r`` with it (one solve), applies ``d`` to the output if it is a
    decision function, and moves on to the next symbol.

    The convolution matrices are kept complex and stacked into one
    ``((2 * reach + 1) * n_users * window_len, n_paths)`` array, so a
    snapshot costs one matrix-vector product, one covariance product and one
    solve, with no per-call casts.  Holding them complex gives the same
    products, bit for bit, as casting the real matrices on every call.
    """

    def __init__(self, cfg: CdmaConfig, signatures: np.ndarray, gains, noise_var: float):
        sigs = np.asarray(signatures, dtype=np.float64)
        if sigs.shape != (cfg.n_users, cfg.n_chips):
            raise ValueError("signatures shape does not match the configuration")
        self.cfg = cfg
        self._reach = _reach(cfg)
        mats, weights = [], []
        for k in range(cfg.n_users):
            for shift in range(-self._reach, self._reach + 1):
                mats.append(build_convolution_matrix(sigs[k], cfg.n_paths, shift))
                weights.append(cfg.amplitudes[k] ** 2)
        self._stack = np.concatenate(mats).astype(np.complex128)
        self._eff_shape = (len(mats), cfg.window_len)
        self._weights = np.asarray(weights)
        self.gains = np.asarray(gains, dtype=np.complex128)
        self.noise_var = float(noise_var)
        self.num_taps = cfg.window_len
        self.symbol = 0  # row of ``gains`` that the next step filters with

    def filter_for(self, channel_gains) -> np.ndarray:
        """MMSE filter for one channel snapshot (length ``n_paths`` gains) at
        the receiver's noise variance."""
        h = np.asarray(channel_gains, dtype=np.complex128)
        if h.shape != (self.cfg.n_paths,):
            raise ValueError("channel snapshot must have one gain per path")
        eff = (self._stack @ h).reshape(self._eff_shape)  # one row per (user, shift)
        cov = (eff.T * self._weights) @ np.conj(eff)
        # the diagonal, through a view: matmul returns a fresh C-ordered array
        cov.ravel()[:: self._eff_shape[1] + 1] += self.noise_var + 1e-10
        # row ``reach`` is user 0's current symbol (shifts -reach .. reach per user)
        steering = self.cfg.amplitudes[0] * eff[self._reach]
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

    def equivalent(self) -> np.ndarray:
        """The current symbol's MMSE filter."""
        return self.filter_for(self.gains[self.symbol])

    def predict(self, r) -> complex:
        """Output of the current symbol's filter for ``r``; does not advance."""
        return np.vdot(self.equivalent(), _window(r, self.num_taps)).item()

    def step(self, r, d) -> StepResult:
        y = self.predict(r)
        if callable(d):
            d = d(y)
        self.symbol += 1
        return StepResult(y, complex(d) - y, (), ())
