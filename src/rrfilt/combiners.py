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

A tree speaks the constituents' protocol (:class:`rrfilt.filters._Scheme`):
its ``_input`` prepares every constituent's input once; its ``_outputs`` is
the tree's pre-update prediction (the mix of the constituents' predictions,
formed before any constituent steps), to which a decision function given in
place of the desired response is applied; its ``_advance`` steps every
constituent on its prepared input, each adapting with its own error, and
mixes their pre-update outputs bottom-up; each node reads its mixing value,
forms its output and then adapts with the error of that output.  Nodes and
constituents share no state, so every quantity a step reports is a
pre-update one.  A tree's ``ops`` sums its constituents' and adds
``NODE_OPS`` per node (CLMS only).
"""

from __future__ import annotations

import cmath
import math
from operator import itemgetter
from typing import Sequence

import numpy as np

from .filters import StepResult, _Scheme


def sigmoid(u: float) -> float:
    """Logistic map of the auxiliary combiner variable onto (0, 1)."""
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    z = math.exp(u)
    return z / (1.0 + z)


class Combiner:
    """One mixing node: auxiliary variable, step size, and clipping bound.

    ``u`` starts at 0, an even mix, and is clipped to ``[-u_max, u_max]``
    after every update; without the clip the sigmoid saturates and the
    ``lam * (1 - lam)`` gradient factor stalls the node permanently.  For the
    same reason ``u_max`` must keep ``sigmoid(u_max) < 1``: just above 36.73
    the sigmoid rounds to exactly 1.0.
    """

    def __init__(self, mu: float, u_max: float = 4.0):
        if not (math.isfinite(mu) and mu >= 0):
            raise ValueError("combiner step size mu must be finite and non-negative")
        if not (u_max > 0 and sigmoid(u_max) < 1.0):
            raise ValueError(
                f"u_max must be positive with sigmoid(u_max) < 1 (up to about 36.73), "
                f"got {u_max}"
            )
        self.mu = float(mu)
        self.u_max = float(u_max)
        self.u = 0.0

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
        A non-finite ``y1``, ``y2`` or ``e`` leaves ``u`` unchanged: ``lam``
        stays strictly inside (0, 1), so the value reaches the tree's output.
        """
        if not (cmath.isfinite(y1) and cmath.isfinite(y2) and cmath.isfinite(e)):
            return
        grad = ((y1 - y2).conjugate() * e).real * lam * (1.0 - lam)
        self.u = float(min(max(self.u + self.mu * grad, -self.u_max), self.u_max))


class MixTree(_Scheme):
    """Constituent filters joined by binary sigmoid mixing nodes.

    Subclasses fix ``NODES``: one ``(left, right)`` pair of value indices
    per node, children before parents, the root last.  ``mus`` holds one
    step size per node, in the same order, and ``combiners[k]`` is the
    :class:`Combiner` of entry ``k``; a step reports its mixing value as
    ``lambdas[k]`` of the :class:`StepResult`.  Scheme A's nodes a, b, c
    are entries 0, 1, 2.

    A tree has the lanes of its constituents, which must all have the same
    (``lanes``, see :mod:`rrfilt.filters`).  A tree of L lanes is L
    independent trees: each lane has its own nodes, lane-major in
    ``combiners``, and its step result.  Constituents of one shape are
    joined into one bank, so a step advances every lane of every
    same-shape constituent in one call; the mixing nodes run per lane, on
    Python numbers.
    """

    NODES: tuple[tuple[int, int], ...] = ()
    # real additions and multiplications each node adds to a step's count
    NODE_OPS: tuple[int, int] = (0, 0)

    def __init__(self, filters: Sequence, mus: Sequence[float], u_max: float = 4.0):
        filters, mus = list(filters), list(mus)
        name, n_nodes = type(self).__name__, len(self.NODES)
        if len(filters) != n_nodes + 1:
            raise ValueError(f"{name} combines exactly {n_nodes + 1} filters")
        if len(mus) != n_nodes:
            raise ValueError(f"{name} takes exactly {n_nodes} node step sizes, got {len(mus)}")
        if len({f.num_taps for f in filters}) != 1:
            raise ValueError("constituents must share the window length")
        if len({f.lanes for f in filters}) != 1:
            raise ValueError("constituents must share their lanes")
        self.filters = filters
        self.lanes = filters[0].lanes
        n = filters[0].n_lanes
        self.combiners = [Combiner(mu, u_max=u_max) for _ in range(n) for mu in mus]
        # each lane's (combiner, left value index, right value index)
        self._nodes = [
            [(c, *node) for c, node in zip(self.combiners[k * n_nodes:], self.NODES)]
            for k in range(n)
        ]
        # one (bank, member count) per shape; with the banks' lanes laid end
        # to end, constituent k's lanes start at first[k], and lane t's
        # getter picks its constituents' values, in order
        shapes: dict = {}
        for k, f in enumerate(filters):
            shapes.setdefault((type(f), f._shape), []).append(k)
        self._banks, first, start = [], [0] * len(filters), 0
        for ks in shapes.values():
            for j, k in enumerate(ks):
                first[k] = start + j * n
            start += len(ks) * n
            self._banks.append((type(filters[ks[0]])._join([filters[k] for k in ks]), len(ks)))
        self._lane_values = [itemgetter(*(f + t for f in first)) for t in range(n)]

    @property
    def num_taps(self) -> int:
        return self.filters[0].num_taps

    @property
    def ops(self) -> tuple[int, int]:
        """Real additions and multiplications per step of one lane: the
        constituents' ``ops`` summed, plus ``NODE_OPS`` for each node."""
        counts = [f.ops for f in self.filters] + [self.NODE_OPS] * len(self.NODES)
        return sum(c[0] for c in counts), sum(c[1] for c in counts)

    def equivalent(self) -> np.ndarray:
        """Window-length filter equivalent to the tree at its constituents'
        last selected branches: ``equivalent()^H r == predict(r)``."""
        eqs = [f.equivalent() for f in self.filters]
        if not self.lanes:
            return self._mix(eqs, self._nodes[0])
        return np.array([self._mix([e[t] for e in eqs], nodes)
                         for t, nodes in enumerate(self._nodes)])

    @staticmethod
    def _mix(values: list, nodes):
        # mixing values are real, so mixing filters mixes their outputs
        for c, i, j in nodes:
            lam = c.mixing
            values.append(lam * values[i] + (1.0 - lam) * values[j])
        return values[-1]

    def _input(self, r) -> list:
        """Every bank's prepared input: the tree's windows, once per member."""
        windows = list(r) if self.lanes else [r]
        return [bank._input(windows * k) for bank, k in self._banks]

    def _outputs(self, xs) -> list:
        """Every lane's pre-update tree output, from the banks' prepared
        inputs ``xs``: the mix of the constituents' predictions."""
        values = []
        for (bank, _), x in zip(self._banks, xs):
            values += bank._predict(x).tolist()
        return [self._mix(list(lane(values)), nodes)
                for lane, nodes in zip(self._lane_values, self._nodes)]

    def _advance(self, xs, ds) -> list[StepResult]:
        # plain loops below, not comprehensions: this runs once per symbol
        ds = [complex(v) for v in ds]
        outs, picks = [], []
        for (bank, k), x in zip(self._banks, xs):
            y, _, b = bank._step(x, np.array(ds * k))
            outs += y.tolist()
            if b is not None:
                picks += b.tolist()
        results = []
        for lane, nodes, dt in zip(self._lane_values, self._nodes, ds):
            ys = list(lane(outs))
            lambdas = []
            for c, i, j in nodes:
                lam = c.mixing
                lambdas.append(lam)
                ys.append(lam * ys[i] + (1.0 - lam) * ys[j])
                c.update(ys[i], ys[j], dt - ys[-1], lam)
            y = ys[-1]
            results.append(
                StepResult(y, dt - y, lane(picks) if picks else (), tuple(lambdas))
            )
        return results


# The three schemes fix their node tables.  Each keeps ``step`` and
# ``predict`` in its own class dict, so the benchmark tracer can wrap them
# per scheme.


class SchemeA(MixTree):
    """Two-level tree over four reduced-rank constituents: node ``a`` mixes
    filters 1/2, node ``b`` mixes 3/4 and node ``c`` mixes the pair outputs."""

    NODES = ((0, 1), (2, 3), (4, 5))
    step = MixTree.step
    predict = MixTree.predict


class SchemeB(MixTree):
    """Convex combination of two reduced-rank constituents (node ``c``)."""

    NODES = ((0, 1),)
    step = MixTree.step
    predict = MixTree.predict


class Clms(MixTree):
    """Convex combination of two full-tap LMS filters (typically one fast,
    one accurate) through node ``a``."""

    NODES = ((0, 1),)
    # CLMS counts its one mixing node, as its source does (Arenas-Garcia,
    # Figueiras-Vidal and Sayed, IEEE TSP 54(3), 2006); schemes A and B count
    # their constituents only, and counting their nodes would change records.
    NODE_OPS = (5, 4)
    step = MixTree.step
    predict = MixTree.predict
