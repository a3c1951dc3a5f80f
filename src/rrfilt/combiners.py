"""Sigmoid convex combiners and the tree-structured combination schemes.

A combiner mixes two filter outputs as ``y = lam * y1 + (1 - lam) * y2`` with
``lam = sigmoid(u)`` adapted through the real auxiliary variable ``u``, so the
mix stays strictly convex.  Scheme B combines two reduced-rank constituents
through one combiner; scheme A combines four through a two-level tree
(``a`` over constituents 1/2, ``b`` over 3/4, ``c`` over the pair outputs).
The CLMS baseline applies the same combiner to two full-tap LMS filters.

Every constituent adapts with its own error; combiners adapt with the error
of the output they produce.  All mixing values are read before any state
moves, so one step sees a consistent snapshot.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .filters import FullRankLms, JidfFilter


class Diverged(ValueError):
    """A non-finite value reached a mixing node: the scheme has diverged.

    Internal signal: the experiment harness counts the run as diverged and
    lets every other exception propagate.
    """


def sigmoid(u: float) -> float:
    """Logistic map of the auxiliary combiner variable onto (0, 1)."""
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    z = math.exp(u)
    return z / (1.0 + z)


class Combiner:
    """One mixing node: auxiliary variable, step size, and clipping bound.

    ``u`` is clipped to ``[-u_max, u_max]`` after every update; without the
    clip the sigmoid saturates and the ``lam * (1 - lam)`` gradient factor
    stalls the node permanently.
    """

    def __init__(self, mu: float, u_max: float = 4.0, u0: float = 0.0):
        if mu < 0:
            raise ValueError("mu must be non-negative")
        if u_max <= 0:
            raise ValueError("u_max must be positive")
        self.mu = float(mu)
        self.u_max = float(u_max)
        self.u = float(np.clip(u0, -u_max, u_max))

    @property
    def mixing(self) -> float:
        """Current mixing value ``lam = sigmoid(u)``."""
        return sigmoid(self.u)

    def update(self, y1: complex, y2: complex, e: complex) -> None:
        """Gradient step on ``u`` for combined error ``e`` at this node.

        ``u += mu * Re{conj(y1 - y2) * e} * lam * (1 - lam)``, then clip.
        The real part is the exact gradient of the squared combined error
        with respect to the real parameter ``u``.
        """
        if not (cmath.isfinite(y1) and cmath.isfinite(y2) and cmath.isfinite(e)):
            raise Diverged("combiner inputs must be finite")
        lam = self.mixing
        grad = ((y1 - y2).conjugate() * e).real * lam * (1.0 - lam)
        self.u = float(min(max(self.u + self.mu * grad, -self.u_max), self.u_max))


@dataclass
class CombinedStep:
    """Diagnostics of one combination-scheme step (pre-update quantities).

    ``w_eq`` is the window-length filter equivalent to the scheme at this
    step (``w_eq^H r == y``); it is built on first access, from the
    pre-update coefficients the step keeps.
    """

    e: complex
    outputs: tuple[complex, ...]
    branches: tuple[int, ...] | None
    lambda_a: float | None
    lambda_b: float | None
    lambda_c: float | None
    _build_w_eq: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def w_eq(self) -> np.ndarray:
        return self._build_w_eq()


def _jidf_mix(filters, coeffs, states) -> np.ndarray:
    """Mixing-weighted sum of the constituents' equivalent filters;
    ``states`` gives each constituent's ``(branch, v, w_bar)``."""
    w_eq = np.zeros(filters[0].num_taps, dtype=np.complex128)
    for f, c, (b, v, w_bar) in zip(filters, coeffs, states):
        w_eq += c * f._equivalent(b, v, w_bar)
    return w_eq


def _step_mix(filters, coeffs, fwds):
    """Deferred ``w_eq`` of a reduced-rank scheme step.  Valid after the
    commit because ``_commit`` rebinds the coefficient arrays."""
    def build():
        return _jidf_mix(filters, coeffs, ((f.b_opt, f.v, f.w_bar) for f in fwds))

    return build


def _tree_coeffs(la: float, lb: float, lc: float) -> tuple[float, ...]:
    return (lc * la, lc * (1 - la), (1 - lc) * lb, (1 - lc) * (1 - lb))


class SchemeB:
    """Convex combination of two reduced-rank constituents."""

    def __init__(self, filters: Sequence[JidfFilter], mu_c: float, u_max: float = 4.0):
        filters = list(filters)
        if len(filters) != 2:
            raise ValueError("scheme B combines exactly two filters")
        if filters[0].num_taps != filters[1].num_taps:
            raise ValueError("constituents must share the window length")
        self.filters = filters
        self.combiner = Combiner(mu_c, u_max=u_max)

    @property
    def num_taps(self) -> int:
        return self.filters[0].num_taps

    def predict(self, r) -> complex:
        lam = self.combiner.mixing
        y1, y2 = (f.predict(r) for f in self.filters)
        return lam * y1 + (1.0 - lam) * y2

    def step(self, r, d) -> tuple[complex, CombinedStep]:
        f1, f2 = self.filters
        fwds = fwd1, fwd2 = f1._forward(r, d), f2._forward(r, d)
        lam = self.combiner.mixing
        y = lam * fwd1.y + (1.0 - lam) * fwd2.y
        e = complex(d) - y
        f1._commit(fwd1)
        f2._commit(fwd2)
        self.combiner.update(fwd1.y, fwd2.y, e)
        diag = CombinedStep(
            e=e,
            outputs=(fwd1.y, fwd2.y),
            branches=(fwd1.b_opt, fwd2.b_opt),
            lambda_a=None,
            lambda_b=None,
            lambda_c=lam,
            _build_w_eq=_step_mix(self.filters, (lam, 1.0 - lam), fwds),
        )
        return y, diag


class SchemeA:
    """Two-level tree of convex combinations over four reduced-rank
    constituents: node ``a`` mixes filters 1/2, node ``b`` mixes 3/4 and node
    ``c`` mixes the two pair outputs."""

    def __init__(
        self,
        filters: Sequence[JidfFilter],
        mu_a: float,
        mu_b: float,
        mu_c: float,
        u_max: float = 4.0,
    ):
        filters = list(filters)
        if len(filters) != 4:
            raise ValueError("scheme A combines exactly four filters")
        if len({f.num_taps for f in filters}) != 1:
            raise ValueError("constituents must share the window length")
        self.filters = filters
        self.combiner_a = Combiner(mu_a, u_max=u_max)
        self.combiner_b = Combiner(mu_b, u_max=u_max)
        self.combiner_c = Combiner(mu_c, u_max=u_max)

    @property
    def num_taps(self) -> int:
        return self.filters[0].num_taps

    def predict(self, r) -> complex:
        la, lb, lc = (
            self.combiner_a.mixing,
            self.combiner_b.mixing,
            self.combiner_c.mixing,
        )
        y1, y2, y3, y4 = (f.predict(r) for f in self.filters)
        return lc * (la * y1 + (1 - la) * y2) + (1 - lc) * (lb * y3 + (1 - lb) * y4)

    def step(self, r, d) -> tuple[complex, CombinedStep]:
        fwds = [f._forward(r, d) for f in self.filters]
        la = self.combiner_a.mixing
        lb = self.combiner_b.mixing
        lc = self.combiner_c.mixing
        y_a = la * fwds[0].y + (1.0 - la) * fwds[1].y
        y_b = lb * fwds[2].y + (1.0 - lb) * fwds[3].y
        y = lc * y_a + (1.0 - lc) * y_b
        d = complex(d)
        e = d - y
        for f, fwd in zip(self.filters, fwds):
            f._commit(fwd)
        self.combiner_a.update(fwds[0].y, fwds[1].y, d - y_a)
        self.combiner_b.update(fwds[2].y, fwds[3].y, d - y_b)
        self.combiner_c.update(y_a, y_b, e)
        diag = CombinedStep(
            e=e,
            outputs=tuple(f.y for f in fwds),
            branches=tuple(f.b_opt for f in fwds),
            lambda_a=la,
            lambda_b=lb,
            lambda_c=lc,
            _build_w_eq=_step_mix(self.filters, _tree_coeffs(la, lb, lc), fwds),
        )
        return y, diag


class Clms:
    """Convex combination of two full-tap LMS filters (typically one fast,
    one accurate)."""

    def __init__(self, filters: Sequence[FullRankLms], mu_a: float, u_max: float = 4.0):
        filters = list(filters)
        if len(filters) != 2:
            raise ValueError("the combined LMS baseline uses exactly two filters")
        if filters[0].num_taps != filters[1].num_taps:
            raise ValueError("constituents must share the window length")
        self.filters = filters
        self.combiner = Combiner(mu_a, u_max=u_max)

    @property
    def num_taps(self) -> int:
        return self.filters[0].num_taps

    def predict(self, r) -> complex:
        lam = self.combiner.mixing
        y1, y2 = (f.predict(r) for f in self.filters)
        return lam * y1 + (1.0 - lam) * y2

    def step(self, r, d) -> tuple[complex, CombinedStep]:
        f1, f2 = self.filters
        fwd1 = f1._forward(r, d)
        fwd2 = f2._forward(r, d)
        lam = self.combiner.mixing
        y = lam * fwd1.y + (1.0 - lam) * fwd2.y
        e = complex(d) - y
        w1, w2 = f1.w, f2.w  # _commit rebinds w, so these stay pre-update
        f1._commit(fwd1)
        f2._commit(fwd2)
        self.combiner.update(fwd1.y, fwd2.y, e)
        diag = CombinedStep(
            e=e,
            outputs=(fwd1.y, fwd2.y),
            branches=None,
            lambda_a=lam,
            lambda_b=None,
            lambda_c=None,
            _build_w_eq=lambda: lam * w1 + (1.0 - lam) * w2,
        )
        return y, diag


def equivalent_filter_scheme_a(scheme: SchemeA) -> np.ndarray:
    """Window-length filter currently equivalent to scheme A.

    Mixing-weighted sum of the constituents' equivalent filters at their
    currently selected branches; satisfies ``w_eq^H r == predict(r)``.
    """
    coeffs = _tree_coeffs(
        scheme.combiner_a.mixing, scheme.combiner_b.mixing, scheme.combiner_c.mixing
    )
    states = ((f.last_b_opt, f.v, f.w_bar) for f in scheme.filters)
    return _jidf_mix(scheme.filters, coeffs, states)


def equivalent_filter_scheme_b(scheme: SchemeB) -> np.ndarray:
    """Window-length filter currently equivalent to scheme B."""
    lam = scheme.combiner.mixing
    states = ((f.last_b_opt, f.v, f.w_bar) for f in scheme.filters)
    return _jidf_mix(scheme.filters, (lam, 1.0 - lam), states)
