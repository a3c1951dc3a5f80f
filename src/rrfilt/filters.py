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

The ``_forward``/``_commit`` split lets mixing trees read every
constituent's pre-update output (and this step's branch choice) before any
coefficients move; ``step`` is the fused path for a filter used alone.
``_commit`` rebinds the coefficient arrays and never writes into them, so a
forward record's references to the pre-update coefficients stay valid after
the commit: ``_equivalent`` builds the step's equivalent filter from them on
demand.

Every adaptive scheme, a single filter or a mixing tree of them
(:mod:`rrfilt.combiners`), returns the same :class:`StepResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .signalcore import (
    DecimationPattern,
    build_hankel,
    generate_decimation_patterns,
)


_NO_MIXING = (math.nan, math.nan, math.nan)


@dataclass
class StepResult:
    """One adaptation step of an adaptive scheme (pre-update quantities).

    ``outputs`` and ``branches`` hold each constituent filter's output and
    the 0-based decimation branch that won its selection (``branches`` is
    empty for full-tap LMS constituents); a filter used alone is its own
    only constituent.  ``lambdas`` are the mixing values of nodes a, b and c,
    NaN where the scheme has no such node.  ``w_eq`` is the window-length
    filter equivalent to the scheme at this step (``w_eq^H r == y``); it is
    built on first access, from the pre-update coefficients the step keeps.
    """

    y: complex
    e: complex
    outputs: tuple[complex, ...]
    branches: tuple[int, ...]
    lambdas: tuple[float, float, float]
    _build_w_eq: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def w_eq(self) -> np.ndarray:
        return self._build_w_eq()


@dataclass
class _LmsForward:
    y: complex
    e: complex
    r: np.ndarray
    w: np.ndarray  # pre-update coefficients
    b_opt = None  # full-tap filters select no branch


@dataclass
class _JidfForward:
    y: complex
    e: complex
    b_opt: int
    r_bar: np.ndarray  # decimated interpolated regressor of the winning branch
    u: np.ndarray  # interpolator regressor, built from pre-update coefficients
    v: np.ndarray  # pre-update interpolator
    w_bar: np.ndarray  # pre-update reduced-rank filter


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
        return StepResult(fwd.y, fwd.e, (fwd.y,), (), _NO_MIXING, lambda: self._equivalent(fwd))

    def _forward(self, r, d) -> _LmsForward:
        r = self._check(r)
        y = complex(np.vdot(self.w, r))
        return _LmsForward(y=y, e=complex(d) - y, r=r, w=self.w)

    def _equivalent(self, fwd: _LmsForward | None = None) -> np.ndarray:
        """The coefficients themselves: current, or before ``fwd``'s step."""
        return self.w if fwd is None else fwd.w

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
    patterns : sequence of DecimationPattern, optional
        Overrides the default uniform-comb bank.
    """

    def __init__(
        self,
        num_taps: int,
        interp_len: int,
        rank: int,
        n_branches: int,
        eta: float,
        mu: float,
        patterns: list[DecimationPattern] | None = None,
    ):
        if interp_len < 1 or interp_len > num_taps:
            raise ValueError("interp_len must satisfy 1 <= interp_len <= num_taps")
        if not (eta >= 0 and mu >= 0):
            raise ValueError("step sizes must be non-negative")
        if patterns is None:
            patterns = generate_decimation_patterns(num_taps, rank, n_branches)
        if len(patterns) != n_branches:
            raise ValueError("pattern count does not match n_branches")
        for p in patterns:
            if len(p) != rank or p.indices[-1] >= num_taps:
                raise ValueError("pattern does not fit num_taps/rank")
        self.num_taps = int(num_taps)
        self.interp_len = int(interp_len)
        self.rank = int(rank)
        self.n_branches = int(n_branches)
        self.eta = float(eta)
        self.mu = float(mu)
        self.patterns = list(patterns)
        # (n_branches, rank) index table for one-shot fancy indexing
        self._idx = np.stack([p.indices for p in self.patterns])
        self.v = np.zeros(self.interp_len, dtype=np.complex128)
        self.v[0] = 1.0
        self.w_bar = np.zeros(self.rank, dtype=np.complex128)
        self.last_b_opt = 0

    def regressor(self, r) -> np.ndarray:
        """Hankel regressor of the window ``r`` at this filter's sizes."""
        r = self._check(r)
        return build_hankel(r, self.num_taps, self.interp_len)

    def select_branch(self, hankel, d) -> tuple[int, complex, np.ndarray]:
        """Pick the branch with the smallest instantaneous squared error.

        Returns ``(b_opt, e, r_bar)``: the winning 0-based branch index, its
        error, and its decimated regressor.  No state is modified.
        """
        hankel = np.asarray(hankel, dtype=np.complex128)
        if hankel.shape != (self.num_taps, self.interp_len):
            raise ValueError(
                f"expected a {self.num_taps}x{self.interp_len} Hankel regressor"
            )
        y_all, e_all, r_bars = self._branch_outputs(hankel, d, np.conj(self.w_bar))
        b = int((np.abs(e_all) ** 2).argmin())
        return b, complex(e_all[b]), r_bars[b]

    def output_dual(self, hankel, branch: int) -> complex:
        """Output via the interpolator-side factorization ``v^H u``.

        Algebraically identical to the filter-side form
        ``w_bar^H (pattern-selected interpolated window)``.
        """
        if not 0 <= branch < self.n_branches:
            raise ValueError(f"branch must be in [0, {self.n_branches})")
        hankel = np.asarray(hankel, dtype=np.complex128)
        u = self._interp_regressor(hankel, branch, np.conj(self.w_bar))
        return complex(np.vdot(self.v, u))

    def predict(self, r) -> complex:
        """Output for ``r`` using the last selected branch, no adaptation."""
        hankel = self.regressor(r)
        r_bar = hankel[self._idx[self.last_b_opt]] @ np.conj(self.v)
        return complex(r_bar @ np.conj(self.w_bar))

    def step(self, r, d) -> StepResult:
        """Select a branch, filter one sample, and adapt both blocks."""
        fwd = self._forward(r, d)
        self._commit(fwd)
        return StepResult(
            fwd.y, fwd.e, (fwd.y,), (fwd.b_opt,), _NO_MIXING, lambda: self._equivalent(fwd)
        )

    def equivalent_reduced_filter(self, branch: int) -> np.ndarray:
        """Window-length filter equivalent to this structure on ``branch``.

        Scatters the reduced-rank coefficients to their pattern positions and
        convolves with the interpolator; the result ``w_eq`` satisfies
        ``w_eq^H r == output`` for every window ``r``.
        """
        if not 0 <= branch < self.n_branches:
            raise ValueError(f"branch must be in [0, {self.n_branches})")
        return self._scatter_convolve(branch, self.v, self.w_bar)

    # -- internals ---------------------------------------------------------

    def _equivalent(self, fwd: _JidfForward | None = None) -> np.ndarray:
        """Equivalent filter at the last selected branch, or before ``fwd``'s
        step at the branch it selected."""
        if fwd is None:
            return self._scatter_convolve(self.last_b_opt, self.v, self.w_bar)
        return self._scatter_convolve(fwd.b_opt, fwd.v, fwd.w_bar)

    def _scatter_convolve(self, branch: int, v, w_bar) -> np.ndarray:
        scattered = np.zeros(self.num_taps, dtype=np.complex128)
        scattered[self._idx[branch]] = w_bar
        return np.convolve(scattered, v)[: self.num_taps]

    def _forward(self, r, d) -> _JidfForward:
        """Pre-update outputs of every branch and the winner's gradients."""
        hankel = self.regressor(r)
        v, w_bar = self.v, self.w_bar
        cw = np.conj(w_bar)
        y_all, e_all, r_bars = self._branch_outputs(hankel, d, cw)
        b = int((np.abs(e_all) ** 2).argmin())
        return _JidfForward(
            y=complex(y_all[b]),
            e=complex(e_all[b]),
            b_opt=b,
            r_bar=r_bars[b],
            u=self._interp_regressor(hankel, b, cw),
            v=v,
            w_bar=w_bar,
        )

    def _commit(self, fwd: _JidfForward) -> None:
        ce = np.conj(fwd.e)
        self.v = self.v + self.eta * ce * fwd.u
        self.w_bar = self.w_bar + self.mu * ce * fwd.r_bar
        self.last_b_opt = fwd.b_opt

    def _branch_outputs(self, hankel, d, cw):
        # cw is conj(w_bar), computed once by the caller
        r_bars = (hankel @ np.conj(self.v))[self._idx]  # (n_branches, rank)
        y_all = r_bars @ cw
        return y_all, complex(d) - y_all, r_bars

    def _interp_regressor(self, hankel, branch: int, cw) -> np.ndarray:
        # cw is conj(w_bar); hankel and branch are already checked
        return hankel[self._idx[branch]].T @ cw

    def _check(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=np.complex128)
        if r.shape != (self.num_taps,):
            raise ValueError(f"expected a length-{self.num_taps} input vector")
        return r
