"""Adaptive LMS filter state machines.

Two families live here: a plain full-tap complex LMS baseline, and a
reduced-rank filter that jointly adapts an interpolator, a decimation-branch
selection, and a short filter (the JIDF structure).  Shared conventions:

* outputs are Hermitian inner products ``y = w^H x`` and errors are
  ``e = d - y`` (the returned error is always computed on exactly that
  arithmetic path),
* coefficient recursions are stochastic-gradient steps using the conjugated
  error, applied simultaneously from the pre-update coefficients,
* instances are single-owner state machines: one ``step`` at a time per
  instance, distinct instances independent.

Each filter, like every mixing tree of them (:mod:`rrfilt.combiners`), can
``step`` (returning a :class:`StepResult`), ``predict`` without adapting,
and give its ``equivalent()`` window-length filter, which satisfies
``equivalent()^H r == predict(r)``, and its ``ops``, the closed-form real
additions and multiplications of one step.  ``step(r, d)`` takes the
desired response ``d`` or a decision function in its place: the function is
applied to the pre-update output ``predict(r)`` and the step adapts toward
its result (decision-directed operation).

A filter prepares its per-symbol input once: ``_input(r)`` is the checked
window for full-tap LMS and, for JIDF, the Hankel regressor with the
conjugated interpolator and filter.  ``predict`` and ``step`` are thin
wrappers over ``_predict(x)`` and ``_step(x, d)`` on that input, so a
decision-directed step builds one regressor, not two, and a mixing tree
prepares each constituent once for both its prediction and its step.
``_step`` runs ``_forward`` (outputs, branch choice, gradients) then
``_commit`` (coefficient updates), the forward-pass/commit boundary the
benchmark times.  Full-tap LMS has one output, so its ``_forward`` applies a
decision function to that output and computes ``w^H x`` once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signalcore import _window, build_hankel, generate_decimation_patterns


@dataclass
class StepResult:
    """One adaptation step of an adaptive scheme (pre-update quantities).

    ``branches`` holds the 0-based decimation branch that won each
    constituent's selection (empty for full-tap LMS constituents); a filter
    used alone is its own only constituent.  ``lambdas`` holds the mixing
    value of each of the scheme's mixing nodes, in node order (empty for a
    single filter).
    """

    y: complex
    e: complex
    branches: tuple[int, ...]
    lambdas: tuple[float, ...]


@dataclass
class _LmsForward:
    y: complex
    e: complex
    r: np.ndarray


@dataclass
class _JidfForward:
    y: complex
    e: complex
    b_opt: int
    r_bar: np.ndarray  # decimated interpolated regressor of the winning branch
    u: np.ndarray  # interpolator regressor, built from pre-update coefficients


class FullRankLms:
    """Complex LMS filter over the whole observation window.

    Parameters
    ----------
    num_taps : int
        Filter length (window length).
    mu : float
        Step size, > 0.
    """

    def __init__(self, num_taps: int, mu: float):
        if num_taps < 1:
            raise ValueError("num_taps must be >= 1")
        if not mu >= 0:
            raise ValueError("mu must be non-negative")
        self.num_taps = int(num_taps)
        self.mu = float(mu)
        self.w = np.zeros(self.num_taps, dtype=np.complex128)

    def predict(self, r) -> complex:
        """Output for ``r`` with the current coefficients, no adaptation."""
        return self._predict(self._input(r))

    def step(self, r, d) -> StepResult:
        """Filter one sample and adapt: ``w += mu * conj(e) * r``.  ``d`` is
        the desired response or a decision function of the output."""
        return self._step(self._input(r), d)

    def equivalent(self) -> np.ndarray:
        """The coefficients themselves: ``equivalent()^H r == predict(r)``."""
        return self.w

    @property
    def ops(self) -> tuple[int, int]:
        """Real additions and multiplications per step: ``(2M, 2M + 1)``."""
        return 2 * self.num_taps, 2 * self.num_taps + 1

    # -- internals: x is the prepared input of ``_input`` -------------------

    def _input(self, r) -> np.ndarray:
        """The checked window."""
        return _window(r, self.num_taps)

    def _predict(self, x) -> complex:
        return np.vdot(self.w, x).item()

    def _step(self, x, d) -> StepResult:
        fwd = self._forward(x, d)
        self._commit(fwd)
        return StepResult(fwd.y, fwd.e, (), ())

    def _forward(self, x, d) -> _LmsForward:
        y = self._predict(x)
        if callable(d):
            d = d(y)
        return _LmsForward(y, complex(d) - y, x)

    def _commit(self, fwd: _LmsForward) -> None:
        self.w = self.w + self.mu * fwd.e.conjugate() * fwd.r


class JidfFilter:
    """Reduced-rank LMS filter with joint interpolation, decimation and
    filtering (JIDF).

    The window is correlated with a short interpolator, one of ``n_branches``
    decimation patterns projects the result onto ``rank`` samples, and a
    ``rank``-tap filter produces the output.  Each step the branch with the
    smallest instantaneous squared error wins (ties go to the lowest branch
    index), then interpolator and filter take simultaneous LMS steps from
    their pre-update values.

    The interpolator starts as a unit impulse and the reduced-rank filter at
    zero: starting both at zero would stall the bilinear structure, since
    each coefficient block only sees a gradient through the other.

    Parameters
    ----------
    num_taps : int
        Observation window length.
    interp_len : int
        Interpolator length, <= num_taps.
    rank : int
        Reduced-rank filter length, <= num_taps.
    n_branches : int
        Number of candidate decimation patterns.
    eta, mu : float
        Interpolator and reduced-rank filter step sizes.
    """

    def __init__(
        self,
        num_taps: int,
        interp_len: int,
        rank: int,
        n_branches: int,
        eta: float,
        mu: float,
    ):
        if interp_len < 1 or interp_len > num_taps:
            raise ValueError("interp_len must satisfy 1 <= interp_len <= num_taps")
        if not (eta >= 0 and mu >= 0):
            raise ValueError("step sizes must be non-negative")
        self.num_taps = int(num_taps)
        self.interp_len = int(interp_len)
        self.rank = int(rank)
        self.n_branches = int(n_branches)
        self.eta = float(eta)
        self.mu = float(mu)
        # (n_branches, rank) decimation-pattern table, one branch per row
        self.patterns = generate_decimation_patterns(num_taps, rank, n_branches)
        self.v = np.zeros(self.interp_len, dtype=np.complex128)
        self.v[0] = 1.0
        self.w_bar = np.zeros(self.rank, dtype=np.complex128)
        self.last_b_opt = 0

    def predict(self, r) -> complex:
        """Output for ``r`` using the last selected branch, no adaptation."""
        return self._predict(self._input(r))

    def step(self, r, d) -> StepResult:
        """Select a branch, filter one sample, and adapt both blocks.  ``d``
        is the desired response or a decision function of the output."""
        return self._step(self._input(r), d)

    def equivalent(self) -> np.ndarray:
        """Window-length filter equivalent to this structure on the last
        selected branch: ``equivalent()^H r == predict(r)``.

        Scatters the reduced-rank coefficients to their pattern positions and
        convolves with the interpolator.
        """
        scattered = np.zeros(self.num_taps, dtype=np.complex128)
        scattered[self.patterns[self.last_b_opt]] = self.w_bar
        return np.convolve(scattered, self.v)[: self.num_taps]

    @property
    def ops(self) -> tuple[int, int]:
        """Real additions and multiplications per step, with window length
        ``M``, interpolator length ``I``, rank ``D`` and ``B`` branches:
        ``(M (I - 1) + (B + 1) D + 2 I, M I + (B + 2) D)``."""
        m, i, d, b = self.num_taps, self.interp_len, self.rank, self.n_branches
        return m * (i - 1) + (b + 1) * d + 2 * i, m * i + (b + 2) * d

    # -- internals: x is the prepared input of ``_input`` -------------------
    # np.dot rather than @, take(rows, 0) rather than hankel[rows], item()
    # rather than complex() and Python complex scalars in the commit: less
    # call overhead on these small operands, and the same bits

    def _input(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hankel, conj(v), conj(w_bar))`` of the window ``r``, taken
        from the pre-update coefficients (``build_hankel`` checks that ``r``
        holds exactly ``num_taps`` samples)."""
        hankel = build_hankel(r, self.num_taps, self.interp_len)
        return hankel, np.conj(self.v), np.conj(self.w_bar)

    def _predict(self, x) -> complex:
        # rows gathered before the product: _forward's order (product, then
        # gather) rounds differently, and this one fixes the semi records
        hankel, cv, cw = x
        return np.dot(np.dot(hankel.take(self.patterns[self.last_b_opt], 0), cv), cw).item()

    def _step(self, x, d) -> StepResult:
        if callable(d):
            d = d(self._predict(x))
        fwd = self._forward(x, d)
        self._commit(fwd)
        return StepResult(fwd.y, fwd.e, (fwd.b_opt,), ())

    def _forward(self, x, d) -> _JidfForward:
        """Pre-update outputs of every branch and the winner's gradients."""
        hankel, cv, cw = x
        r_bars = np.dot(hankel, cv)[self.patterns]  # (n_branches, rank)
        y_all = np.dot(r_bars, cw)
        e_all = complex(d) - y_all
        b = int((np.abs(e_all) ** 2).argmin())
        u = np.dot(hankel.take(self.patterns[b], 0).T, cw)  # interpolator regressor
        return _JidfForward(y_all.item(b), e_all.item(b), b, r_bars[b], u)

    def _commit(self, fwd: _JidfForward) -> None:
        ce = fwd.e.conjugate()
        self.v = self.v + self.eta * ce * fwd.u
        self.w_bar = self.w_bar + self.mu * ce * fwd.r_bar
        self.last_b_opt = fwd.b_opt
