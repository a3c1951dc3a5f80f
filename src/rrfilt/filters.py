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
``equivalent()^H r == predict(r)``.  ``step`` runs ``_forward`` (outputs,
branch choice, gradients) then ``_commit`` (coefficient updates), the
forward-pass/commit boundary the benchmark times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signalcore import build_hankel, generate_decimation_patterns


_NO_MIXING = (math.nan, math.nan, math.nan)


@dataclass
class StepResult:
    """One adaptation step of an adaptive scheme (pre-update quantities).

    ``outputs`` and ``branches`` hold each constituent filter's output and
    the 0-based decimation branch that won its selection (``branches`` is
    empty for full-tap LMS constituents); a filter used alone is its own
    only constituent.  ``lambdas`` are the mixing values of nodes a, b and c,
    NaN where the scheme has no such node.
    """

    y: complex
    e: complex
    outputs: tuple[complex, ...]
    branches: tuple[int, ...]
    lambdas: tuple[float, float, float]


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
        r = self._check(r)
        return complex(np.vdot(self.w, r))

    def step(self, r, d) -> StepResult:
        """Filter one sample and adapt: ``w += mu * conj(e) * r``."""
        fwd = self._forward(r, d)
        self._commit(fwd)
        return StepResult(fwd.y, fwd.e, (fwd.y,), (), _NO_MIXING)

    def equivalent(self) -> np.ndarray:
        """The coefficients themselves: ``equivalent()^H r == predict(r)``."""
        return self.w

    def _forward(self, r, d) -> _LmsForward:
        r = self._check(r)
        y = complex(np.vdot(self.w, r))
        return _LmsForward(y, complex(d) - y, r)

    def _commit(self, fwd: _LmsForward) -> None:
        self.w = self.w + self.mu * np.conj(fwd.e) * fwd.r

    def _check(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.complex128)
        if r.shape != (self.num_taps,):
            raise ValueError(f"expected a length-{self.num_taps} input vector")
        return r


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

    def regressor(self, r) -> np.ndarray:
        """Hankel regressor of the window ``r`` at this filter's sizes."""
        r = self._check(r)
        return build_hankel(r, self.num_taps, self.interp_len)

    def predict(self, r) -> complex:
        """Output for ``r`` using the last selected branch, no adaptation."""
        hankel = self.regressor(r)
        r_bar = np.dot(hankel[self.patterns[self.last_b_opt]], np.conj(self.v))
        return complex(np.dot(r_bar, np.conj(self.w_bar)))

    def step(self, r, d) -> StepResult:
        """Select a branch, filter one sample, and adapt both blocks."""
        fwd = self._forward(r, d)
        self._commit(fwd)
        return StepResult(fwd.y, fwd.e, (fwd.y,), (fwd.b_opt,), _NO_MIXING)

    def equivalent(self) -> np.ndarray:
        """Window-length filter equivalent to this structure on the last
        selected branch: ``equivalent()^H r == predict(r)``.

        Scatters the reduced-rank coefficients to their pattern positions and
        convolves with the interpolator.
        """
        scattered = np.zeros(self.num_taps, dtype=np.complex128)
        scattered[self.patterns[self.last_b_opt]] = self.w_bar
        return np.convolve(scattered, self.v)[: self.num_taps]

    # -- internals ---------------------------------------------------------

    def _forward(self, r, d) -> _JidfForward:
        """Pre-update outputs of every branch and the winner's gradients."""
        hankel = self.regressor(r)
        cw = np.conj(self.w_bar)
        y_all, e_all, r_bars = self._branch_outputs(hankel, d, cw)
        b = int((np.abs(e_all) ** 2).argmin())
        return _JidfForward(
            complex(y_all[b]), complex(e_all[b]), b, r_bars[b],
            self._interp_regressor(hankel, b, cw),
        )

    def _commit(self, fwd: _JidfForward) -> None:
        ce = np.conj(fwd.e)
        self.v = self.v + self.eta * ce * fwd.u
        self.w_bar = self.w_bar + self.mu * ce * fwd.r_bar
        self.last_b_opt = fwd.b_opt

    def _branch_outputs(self, hankel, d, cw):
        # cw is conj(w_bar), computed once by the caller; np.dot rather than
        # @ here and below: less call overhead on these small operands, and
        # the same bits
        r_bars = np.dot(hankel, np.conj(self.v))[self.patterns]  # (n_branches, rank)
        y_all = np.dot(r_bars, cw)
        return y_all, complex(d) - y_all, r_bars

    def _interp_regressor(self, hankel, branch: int, cw) -> np.ndarray:
        # cw is conj(w_bar); hankel and branch are already checked
        return np.dot(hankel[self.patterns[branch]].T, cw)

    def _check(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.complex128)
        if r.shape != (self.num_taps,):
            raise ValueError(f"expected a length-{self.num_taps} input vector")
        return r
