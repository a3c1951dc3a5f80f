"""Sigmoid convex combiners and the mixing trees built from them.

A combiner mixes two values as ``y = lam * y1 + (1 - lam) * y2`` with
``lam = sigmoid(u)`` adapted through the real auxiliary variable ``u``, so the
mix stays strictly convex.  Every combination scheme is one
:class:`MixTree`: constituent filters plus a table of mixing nodes over value
indices (constituents are ``0..L-1``, node ``k``'s output is ``L + k``).
Scheme A mixes four reduced-rank constituents through nodes ``a`` (1/2),
``b`` (3/4) and ``c`` (the two pair outputs); scheme B mixes two through one
node ``c``; the CLMS baseline mixes two full-tap LMS filters through one
node ``a``.

Every constituent adapts with its own error; each node adapts with the
error of the output it produces.  All mixing values are read before any
state moves, so one step sees a consistent snapshot.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .filters import FullRankLms, JidfFilter, StepResult


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
        if not mu >= 0:
            raise ValueError("combiner step size mu must be non-negative")
        if not u_max > 0:
            raise ValueError("u_max must be positive")
        self.mu = float(mu)
        self.u_max = float(u_max)
        self.u = float(np.clip(u0, -u_max, u_max))

    @property
    def mixing(self) -> float:
        """Current mixing value ``lam = sigmoid(u)``."""
        return sigmoid(self.u)

    def update(self, y1: complex, y2: complex, e: complex, lam: float) -> None:
        """Gradient step on ``u`` for combined error ``e`` at this node.

        ``lam`` is the node's current :attr:`mixing`, which the caller has
        already read to form its output.
        ``u += mu * Re{conj(y1 - y2) * e} * lam * (1 - lam)``, then clip.
        The real part is the exact gradient of the squared combined error
        with respect to the real parameter ``u``.
        """
        if not (cmath.isfinite(y1) and cmath.isfinite(y2) and cmath.isfinite(e)):
            raise Diverged("combiner inputs must be finite")
        grad = ((y1 - y2).conjugate() * e).real * lam * (1.0 - lam)
        self.u = float(min(max(self.u + self.mu * grad, -self.u_max), self.u_max))


def _mix_equivalent(nodes, lams, leaf_eqs) -> np.ndarray:
    """Sum of the leaf equivalent filters, each weighted by the product of
    ``lam`` / ``1 - lam`` on its path from the root (the last node)."""
    n = len(leaf_eqs)
    weights = [0.0] * (n + len(nodes))
    weights[-1] = 1.0
    for k in reversed(range(len(nodes))):
        _, _, i, j = nodes[k]
        weights[i] = weights[n + k] * lams[k]
        weights[j] = weights[n + k] * (1.0 - lams[k])
    return sum(weight * eq for weight, eq in zip(weights, leaf_eqs))


def equivalent_filter(scheme: MixTree) -> np.ndarray:
    """Window-length filter currently equivalent to a mixing tree.

    Mixing-weighted sum of the constituents' equivalent filters at their
    currently selected branches; satisfies ``w_eq^H r == predict(r)``.
    """
    lams = [c.mixing for c in scheme.combiners]
    return _mix_equivalent(scheme.nodes, lams, [f._equivalent() for f in scheme.filters])


class MixTree:
    """Constituent filters joined by binary sigmoid mixing nodes.

    Subclasses fix ``NODES``: one ``(record slot, left, right)`` entry per
    node, children before parents, the root last.  The record slot (0, 1, 2
    for nodes a, b, c) places the node's mixing value in
    :attr:`StepResult.lambdas`.
    """

    NODES: tuple[tuple[int, int, int], ...] = ()

    def __init__(self, filters: Sequence, mus: Sequence[float], u_max: float):
        filters = list(filters)
        if len(filters) != len(self.NODES) + 1:
            raise ValueError(
                f"{type(self).__name__} combines exactly {len(self.NODES) + 1} filters"
            )
        if len({f.num_taps for f in filters}) != 1:
            raise ValueError("constituents must share the window length")
        self.filters = filters
        self.combiners = [Combiner(mu, u_max=u_max) for mu in mus]
        # (combiner, record slot, left value index, right value index)
        self.nodes = [(c, *node) for c, node in zip(self.combiners, self.NODES)]

    @property
    def num_taps(self) -> int:
        return self.filters[0].num_taps

    def predict(self, r) -> complex:
        ys = [f.predict(r) for f in self.filters]
        for c, _, i, j in self.nodes:
            lam = c.mixing
            ys.append(lam * ys[i] + (1.0 - lam) * ys[j])
        return ys[-1]

    def step(self, r, d) -> StepResult:
        # plain loops, not comprehensions: this runs once per symbol
        fwds, ys, branches = [], [], []
        for f in self.filters:
            fwd = f._forward(r, d)
            fwds.append(fwd)
            ys.append(fwd.y)
            if fwd.b_opt is not None:
                branches.append(fwd.b_opt)
        outputs = tuple(ys)
        lams, slots = [], [math.nan] * 3
        for c, slot, i, j in self.nodes:
            lam = c.mixing
            lams.append(lam)
            slots[slot] = lam
            ys.append(lam * ys[i] + (1.0 - lam) * ys[j])
        d = complex(d)
        for f, fwd in zip(self.filters, fwds):
            f._commit(fwd)
        k = len(fwds)
        for (c, _, i, j), lam in zip(self.nodes, lams):
            c.update(ys[i], ys[j], d - ys[k], lam)
            k += 1

        def build_w_eq():
            # valid after the commit: _commit rebinds the coefficient arrays
            leaf_eqs = [f._equivalent(fwd) for f, fwd in zip(self.filters, fwds)]
            return _mix_equivalent(self.nodes, lams, leaf_eqs)

        y = ys[-1]
        return StepResult(y, d - y, outputs, tuple(branches), tuple(slots), build_w_eq)


# The three schemes fix their node tables.  Each keeps ``step`` and
# ``predict`` in its own class dict, so the benchmark tracer can wrap them
# per scheme.


class SchemeA(MixTree):
    """Two-level tree over four reduced-rank constituents: node ``a`` mixes
    filters 1/2, node ``b`` mixes 3/4 and node ``c`` mixes the pair outputs."""

    NODES = ((0, 0, 1), (1, 2, 3), (2, 4, 5))
    step = MixTree.step
    predict = MixTree.predict

    def __init__(self, filters: Sequence[JidfFilter], mu_a: float, mu_b: float,
                 mu_c: float, u_max: float = 4.0):
        super().__init__(filters, (mu_a, mu_b, mu_c), u_max)
        self.combiner_a, self.combiner_b, self.combiner_c = self.combiners


class SchemeB(MixTree):
    """Convex combination of two reduced-rank constituents (node ``c``)."""

    NODES = ((2, 0, 1),)
    step = MixTree.step
    predict = MixTree.predict

    def __init__(self, filters: Sequence[JidfFilter], mu_c: float, u_max: float = 4.0):
        super().__init__(filters, (mu_c,), u_max)
        (self.combiner,) = self.combiners


class Clms(MixTree):
    """Convex combination of two full-tap LMS filters (typically one fast,
    one accurate) through node ``a``."""

    NODES = ((0, 0, 1),)
    step = MixTree.step
    predict = MixTree.predict

    def __init__(self, filters: Sequence[FullRankLms], mu_a: float, u_max: float = 4.0):
        super().__init__(filters, (mu_a,), u_max)
        (self.combiner,) = self.combiners
