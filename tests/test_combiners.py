"""Sigmoid combiners and the combination schemes."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from rrfilt.cdma import (
    CdmaConfig,
    ClarkeChannel,
    MmseReceiver,
    detect_qpsk,
    generate_signatures,
)
from rrfilt.combiners import Clms, Combiner, SchemeA, SchemeB, sigmoid
from rrfilt.filters import FullRankLms, JidfFilter


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def step_with_equivalent(scheme, r, d):
    """``scheme.step(r, d)`` and the window-length filter equivalent to that
    step: ``equivalent()`` of a pre-step copy of the tree whose reduced-rank
    constituents are set to the branches the step selected."""
    before = copy.deepcopy(scheme)
    res = scheme.step(r, d)
    leaves = [f for f in before.filters if isinstance(f, JidfFilter)]
    for f, b in zip(leaves, res.branches, strict=True):
        f.last_b_opt = b
    return res, before.equivalent()


def solo_outputs(scheme, r, d):
    """Each constituent's output in the step ``scheme.step(r, d)`` is about
    to take: the outputs of deep copies of the constituents, stepped alone."""
    return [f.step(r, d).y for f in copy.deepcopy(scheme.filters)]


def _jidf(m, rank, interp, eta, mu, n_branches=2):
    return JidfFilter(m, interp, rank, n_branches, eta=eta, mu=mu)


def _largest_u_max() -> float:
    """The largest float ``u`` with ``sigmoid(u) < 1``, by bisection."""
    lo, hi = 1.0, 64.0
    while np.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sigmoid(mid) < 1.0 else (lo, mid)
    return lo


U_MAX_LIMIT = _largest_u_max()


def _randomize(f, rng):
    f.v = _random_complex(rng, f.interp_len)
    f.w_bar = _random_complex(rng, f.rank)
    return f


class TestSigmoid:
    def test_symmetry_point(self):
        assert sigmoid(0.0) == 0.5

    def test_closed_form_values(self):
        assert sigmoid(4.0) == pytest.approx(0.9820137900, abs=1e-9)
        assert sigmoid(-4.0) == pytest.approx(0.0179862100, abs=1e-9)

    def test_strictly_increasing_and_bounded(self):
        xs = np.linspace(-30, 30, 201)
        ys = [sigmoid(x) for x in xs]
        assert all(0 < y < 1 for y in ys)
        assert all(b > a for a, b in zip(ys, ys[1:]))


class TestCombiner:
    def test_equal_outputs_leave_u_unchanged(self):
        c = Combiner(mu=0.5)
        c.update(1 + 2j, 1 + 2j, 0.7 - 0.1j, c.mixing)
        assert c.u == 0.0

    def test_zero_error_leaves_u_unchanged(self):
        c = Combiner(mu=0.5)
        c.u = 1.0
        c.update(1.0, -1.0, 0.0, c.mixing)
        assert c.u == 1.0

    def test_hand_computed_update(self):
        c = Combiner(mu=0.25)
        c.update(1.0, 0.5, 0.2, c.mixing)
        assert c.u == pytest.approx(0.00625, abs=1e-15)

    def test_clipping_bound_is_respected(self):
        c = Combiner(mu=100.0, u_max=4.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            c.update(complex(*rng.standard_normal(2)),
                     complex(*rng.standard_normal(2)),
                     complex(*rng.standard_normal(2)), c.mixing)
            assert -4.0 <= c.u <= 4.0
            assert 0.0 < c.mixing < 1.0

    def test_u_max_must_keep_the_sigmoid_below_one(self):
        # past the limit sigmoid(u_max) is exactly 1.0, where lam * (1 - lam)
        # is 0 and a saturated node never moves again
        assert sigmoid(U_MAX_LIMIT) < 1.0
        Combiner(1e6, u_max=U_MAX_LIMIT)
        for u_max in (np.nextafter(U_MAX_LIMIT, np.inf), 100.0, np.inf, np.nan, 0.0):
            with pytest.raises(ValueError, match="u_max must be positive"):
                Combiner(1e6, u_max=u_max)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    @pytest.mark.parametrize("slot", ["y1", "y2", "e"])
    def test_non_finite_input_leaves_mixing_unchanged(self, slot, bad):
        # the non-finite value goes on to the tree's output, where the
        # harness counts the run as diverged
        c = Combiner(mu=0.5)
        c.u = 1.5
        mixing = c.mixing
        args = {"y1": 1.0 + 0.5j, "y2": -0.25j, "e": 0.3 - 0.1j, slot: bad}
        c.update(args["y1"], args["y2"], args["e"], mixing)
        assert c.u == 1.5
        assert c.mixing == mixing

    def test_gradient_matches_finite_difference(self):
        # update term vs the derivative of half the squared combined error,
        # away from saturation
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(30):
            u = float(rng.uniform(-2, 2))
            y1, y2, d = (complex(*rng.standard_normal(2)) for _ in range(3))

            def half_cost(uu):
                lam = sigmoid(uu)
                return 0.5 * abs(d - (lam * y1 + (1 - lam) * y2)) ** 2

            lam = sigmoid(u)
            e = d - (lam * y1 + (1 - lam) * y2)
            analytic = (np.conj(y1 - y2) * e).real * lam * (1 - lam)
            numeric = -(half_cost(u + h) - half_cost(u - h)) / (2 * h)
            assert abs(numeric - analytic) <= 1e-6 * max(abs(analytic), 1e-9)


class TestSchemeB:
    def _make(self, rng, m=8):
        f1 = _randomize(_jidf(m, 3, 2, 0.01, 0.05), rng)
        f2 = _randomize(_jidf(m, 4, 2, 0.01, 0.05), rng)
        return SchemeB([f1, f2], [0.25])

    def test_equal_outputs_pass_through(self):
        rng = np.random.default_rng(2)
        f1 = _jidf(6, 3, 2, 0.0, 0.0)
        f2 = _jidf(6, 3, 2, 0.0, 0.0)
        f1.v = f2.v = np.array([1.0, 0.5], dtype=complex)
        f1.w_bar = f2.w_bar = np.array([0.3, -0.2j, 1.0], dtype=complex)
        scheme = SchemeB([f1, f2], [0.25])
        r = _random_complex(rng, 6)
        outputs = solo_outputs(scheme, r, 1.0)
        diag = scheme.step(r, 1.0)
        y = diag.y
        assert y == pytest.approx(outputs[0], rel=1e-12)
        assert diag.lambdas == (0.5,)

    def test_output_matches_equivalent_filter_during_adaptation(self):
        rng = np.random.default_rng(3)
        scheme = self._make(rng)
        plant = _random_complex(rng, 8)
        for _ in range(200):
            r = _random_complex(rng, 8)
            d = np.vdot(plant, r) + 0.1 * complex(*rng.standard_normal(2))
            diag, w_eq = step_with_equivalent(scheme, r, d)
            y = diag.y
            assert abs(y - np.vdot(w_eq, r)) <= 1e-10 * (1 + abs(y))

    def test_standalone_equivalent_filter_predicts(self):
        rng = np.random.default_rng(4)
        scheme = self._make(rng)
        for _ in range(20):
            scheme.step(_random_complex(rng, 8), complex(rng.standard_normal()))
        w_eq = scheme.equivalent()
        for _ in range(100):
            r = _random_complex(rng, 8)
            y = scheme.predict(r)
            assert abs(y - np.vdot(w_eq, r)) <= 1e-10 * (1 + abs(y))

    def test_endpoint_mixing(self):
        rng = np.random.default_rng(5)
        scheme = self._make(rng)
        (node,) = scheme.combiners
        node.u = node.u_max
        r = _random_complex(rng, 8)
        outputs = solo_outputs(scheme, r, 0.5)
        diag = scheme.step(r, 0.5)
        y = diag.y
        slack = (1 - sigmoid(node.u_max)) * (abs(outputs[0]) + abs(outputs[1]))
        assert abs(y - outputs[0]) <= slack + 1e-12

    def test_constituents_match_standalone_when_combiner_frozen(self):
        rng = np.random.default_rng(6)
        f1 = _randomize(_jidf(8, 3, 2, 0.02, 0.08), rng)
        f2 = _randomize(_jidf(8, 4, 3, 0.01, 0.03), rng)
        solo1, solo2 = copy.deepcopy(f1), copy.deepcopy(f2)
        scheme = SchemeB([f1, f2], [0.0])
        for _ in range(100):
            r = _random_complex(rng, 8)
            d = complex(*rng.standard_normal(2))
            scheme.step(r, d)
            solo1.step(r, d)
            solo2.step(r, d)
        assert_array_equal(f1.v, solo1.v)
        assert_array_equal(f1.w_bar, solo1.w_bar)
        assert_array_equal(f2.v, solo2.v)
        assert_array_equal(f2.w_bar, solo2.w_bar)
        assert scheme.combiners[0].u == 0.0

    def test_requires_two_filters_of_one_size(self):
        with pytest.raises(ValueError):
            SchemeB([_jidf(8, 3, 2, 0.01, 0.05)], [0.25])
        with pytest.raises(ValueError):
            SchemeB([_jidf(8, 3, 2, 0.01, 0.05), _jidf(6, 3, 2, 0.01, 0.05)], [0.25])


class TestSchemeA:
    def _make(self, rng, m=8):
        filters = [
            _randomize(_jidf(m, 3, 2, 0.005, 0.02), rng),
            _randomize(_jidf(m, 4, 3, 0.005, 0.02), rng),
            _randomize(_jidf(m, 3, 2, 0.002, 0.01), rng),
            _randomize(_jidf(m, 4, 3, 0.002, 0.01), rng),
        ]
        return SchemeA(filters, [0.25, 0.25, 0.25])

    def test_identical_outputs_pass_through(self):
        rng = np.random.default_rng(7)
        filters = [_jidf(6, 3, 2, 0.0, 0.0) for _ in range(4)]
        for f in filters:
            f.v = np.array([1.0, -0.25], dtype=complex)
            f.w_bar = np.array([0.5, 0.1j, -1.0], dtype=complex)
        scheme = SchemeA(filters, [0.25, 0.25, 0.25])
        r = _random_complex(rng, 6)
        outputs = solo_outputs(scheme, r, 1.0)
        diag = scheme.step(r, 1.0)
        y = diag.y
        assert y == pytest.approx(outputs[0], rel=1e-12)
        assert diag.lambdas == (0.5, 0.5, 0.5)

    def test_endpoint_selects_first_constituent(self):
        rng = np.random.default_rng(8)
        scheme = self._make(rng)
        node_a, _, node_c = scheme.combiners
        node_a.u = node_a.u_max
        node_c.u = node_c.u_max
        r = _random_complex(rng, 8)
        outputs = solo_outputs(scheme, r, 0.2)
        diag = scheme.step(r, 0.2)
        y = diag.y
        slack = (1 - sigmoid(4.0)) * sum(abs(o) for o in outputs) * 2
        assert abs(y - outputs[0]) <= slack + 1e-12

    def test_output_matches_equivalent_filter_during_adaptation(self):
        rng = np.random.default_rng(9)
        scheme = self._make(rng)
        plant = _random_complex(rng, 8)
        for _ in range(200):
            r = _random_complex(rng, 8)
            d = np.vdot(plant, r) + 0.1 * complex(*rng.standard_normal(2))
            diag, w_eq = step_with_equivalent(scheme, r, d)
            y = diag.y
            assert abs(y - np.vdot(w_eq, r)) <= 1e-10 * (1 + abs(y))

    def test_standalone_equivalent_filter_predicts(self):
        rng = np.random.default_rng(10)
        scheme = self._make(rng)
        for _ in range(20):
            scheme.step(_random_complex(rng, 8), complex(rng.standard_normal()))
        w_eq = scheme.equivalent()
        for _ in range(100):
            r = _random_complex(rng, 8)
            y = scheme.predict(r)
            assert abs(y - np.vdot(w_eq, r)) <= 1e-10 * (1 + abs(y))

    def test_zero_filters_give_zero_equivalent(self):
        filters = [_jidf(6, 3, 2, 0.01, 0.05) for _ in range(4)]
        for f in filters:
            f.w_bar[:] = 0
        scheme = SchemeA(filters, [0.25, 0.25, 0.25])
        assert_array_equal(scheme.equivalent(), np.zeros(6))

    def test_requires_four_filters(self):
        with pytest.raises(ValueError):
            SchemeA([_jidf(8, 3, 2, 0.01, 0.05)] * 2, [0.1, 0.1, 0.1])


class TestClms:
    def test_identical_filters_pass_through(self):
        rng = np.random.default_rng(11)
        f1, f2 = FullRankLms(6, 0.05), FullRankLms(6, 0.05)
        w = _random_complex(rng, 6)
        f1.w = w.copy()
        f2.w = w.copy()
        scheme = Clms([f1, f2], [0.25])
        r = _random_complex(rng, 6)
        outputs = solo_outputs(scheme, r, 1.0)
        diag = scheme.step(r, 1.0)
        y = diag.y
        assert y == pytest.approx(outputs[0], rel=1e-12)
        assert scheme.combiners[0].u == 0.0  # zero gradient at y1 == y2

    def test_endpoint_mixing(self):
        rng = np.random.default_rng(12)
        f1, f2 = FullRankLms(6, 0.05), FullRankLms(6, 0.05)
        f1.w = _random_complex(rng, 6)
        f2.w = _random_complex(rng, 6)
        scheme = Clms([f1, f2], [0.25])
        (node,) = scheme.combiners
        node.u = node.u_max
        r = _random_complex(rng, 6)
        outputs = solo_outputs(scheme, r, 0.0)
        diag = scheme.step(r, 0.0)
        y = diag.y
        slack = (1 - sigmoid(4.0)) * (abs(outputs[0]) + abs(outputs[1]))
        assert abs(y - outputs[0]) <= slack + 1e-12

    def test_equivalent_filter_identity(self):
        rng = np.random.default_rng(13)
        f1, f2 = FullRankLms(6, 0.08), FullRankLms(6, 0.01)
        scheme = Clms([f1, f2], [0.25])
        for _ in range(100):
            r = _random_complex(rng, 6)
            d = complex(*rng.standard_normal(2))
            diag, w_eq = step_with_equivalent(scheme, r, d)
            y = diag.y
            assert abs(y - np.vdot(w_eq, r)) <= 1e-10 * (1 + abs(y))

    def test_standalone_equivalent_filter_predicts(self):
        rng = np.random.default_rng(16)
        scheme = Clms([FullRankLms(6, 0.08), FullRankLms(6, 0.01)], [0.25])
        for _ in range(20):
            scheme.step(_random_complex(rng, 6), complex(rng.standard_normal()))
        w_eq = scheme.equivalent()
        for _ in range(100):
            r = _random_complex(rng, 6)
            y = scheme.predict(r)
            assert abs(y - np.vdot(w_eq, r)) <= 1e-10 * (1 + abs(y))

    def test_combined_steady_state_not_worse_than_either_filter(self):
        # stationary plant: the combination should track the better filter
        rng = np.random.default_rng(14)
        m = 6
        plant = _random_complex(rng, m)
        scheme = Clms([FullRankLms(m, 0.01), FullRankLms(m, 0.2)], [1.0])
        n, tail = 4000, 1500
        e_comb, e_f1, e_f2 = [], [], []
        for i in range(n):
            r = _random_complex(rng, m)
            d = np.vdot(plant, r) + 0.1 * complex(*rng.standard_normal(2))
            y1 = scheme.filters[0].predict(r)
            y2 = scheme.filters[1].predict(r)
            diag = scheme.step(r, d)
            y = diag.y
            if i >= n - tail:
                e_comb.append(abs(d - y) ** 2)
                e_f1.append(abs(d - y1) ** 2)
                e_f2.append(abs(d - y2) ** 2)
        worst = max(np.mean(e_f1), np.mean(e_f2))
        assert np.mean(e_comb) <= worst * 1.1


class TestNodeStepSizes:
    @pytest.mark.parametrize("tree,n_filters", [(Clms, 2), (SchemeB, 2), (SchemeA, 4)])
    def test_one_step_size_per_node(self, tree, n_filters):
        filters = [FullRankLms(6, 0.05) for _ in range(n_filters)]
        n_nodes = n_filters - 1
        scheme = tree(filters, [0.1 * (k + 1) for k in range(n_nodes)])
        assert [c.mu for c in scheme.combiners] == [0.1 * (k + 1) for k in range(n_nodes)]
        for mus in ([0.25] * (n_nodes - 1), [0.25] * (n_nodes + 1)):
            with pytest.raises(ValueError, match="node step sizes"):
                tree(filters, mus)


class TestNodeOps:
    """A tree's count is its constituents' closed forms plus its nodes' cost:
    CLMS counts its one node (5 additions, 4 multiplications), schemes A and
    B count nothing for theirs."""

    @pytest.mark.parametrize("tree,n_filters,node_ops", [
        (Clms, 2, (5, 4)), (SchemeB, 2, (0, 0)), (SchemeA, 4, (0, 0)),
    ])
    def test_constituents_plus_node_cost(self, tree, n_filters, node_ops):
        m, b = 12, 3
        sizes = [(2 + k, 1 + k) for k in range(n_filters)]  # (I, D) per filter
        if tree is Clms:
            filters = [FullRankLms(m, 0.05) for _ in range(n_filters)]
            adds, mults = n_filters * 2 * m, n_filters * (2 * m + 1)
        else:
            filters = [_jidf(m, d, i, 0.01, 0.1, n_branches=b) for i, d in sizes]
            adds = sum(m * (i - 1) + (b + 1) * d + 2 * i for i, d in sizes)
            mults = sum(m * i + (b + 2) * d for i, d in sizes)
        n_nodes = n_filters - 1
        scheme = tree(filters, [0.25] * n_nodes)
        assert scheme.ops == (adds + n_nodes * node_ops[0], mults + n_nodes * node_ops[1])


class TestMixingBounds:
    def test_mixings_stay_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(15)
        filters = [
            _randomize(_jidf(8, 3, 2, 0.02, 0.1), rng),
            _randomize(_jidf(8, 4, 3, 0.01, 0.01), rng),
        ]
        scheme = SchemeB(filters, [5.0])  # aggressive combiner on purpose
        lo, hi = sigmoid(-4.0), sigmoid(4.0)
        for _ in range(500):
            r = _random_complex(rng, 8)
            d = complex(*rng.standard_normal(2))
            diag = scheme.step(r, d)
            assert lo <= diag.lambdas[0] <= hi


# (left value index, right value index) per mixing node, root last; written
# out here independently of the schemes' own tables
_TREES = {
    "clms": ((0, 1),),
    "scheme_b": ((0, 1),),
    "scheme_a": ((0, 1), (2, 3), (4, 5)),
}


def _draw_constituents(data, rng, kind, m):
    """Constituents of scheme ``kind`` at window length ``m``, in random
    states: full-tap LMS filters for ``fullrank`` and ``clms``, JIDF filters
    of drawn sizes otherwise."""
    filters = []
    for _ in range(len(_TREES.get(kind, ())) + 1):
        if kind in ("fullrank", "clms"):
            f = FullRankLms(m, mu=float(rng.uniform(0, 0.2)))
            f.w = _random_complex(rng, m)
            filters.append(f)
            continue
        rank = data.draw(st.integers(1, m), label="rank")
        n_branches = data.draw(
            st.integers(1, m - (rank - 1) * (m // rank)), label="branches"
        )
        f = JidfFilter(
            m, data.draw(st.integers(1, m), label="interp_len"), rank, n_branches,
            eta=float(rng.uniform(0, 0.05)), mu=float(rng.uniform(0, 0.2)),
        )
        _randomize(f, rng).last_b_opt = int(rng.integers(n_branches))
        filters.append(f)
    return filters


class TestConstituentSteps:
    """Inside a scheme step every constituent must take exactly the step it
    takes alone, and the mixing arithmetic must be the closed form.  Values
    are compared by ``repr``, so the guard holds bit for bit on any
    platform.  The step's output must also be reproduced by the equivalent
    filter of the pre-step tree, to 1e-10 relative."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_constituents_match_standalone_steps_bit_for_bit(self, data):
        m = data.draw(st.integers(1, 12), label="num_taps")
        kind = data.draw(st.sampled_from(sorted(_TREES)), label="scheme")
        tree = _TREES[kind]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        filters = _draw_constituents(data, rng, kind, m)
        solos = copy.deepcopy(filters)
        u_max = data.draw(st.floats(0.5, U_MAX_LIMIT), label="u_max")
        mus = [float(rng.uniform(0, 2)) for _ in tree]
        scheme = {"clms": Clms, "scheme_b": SchemeB, "scheme_a": SchemeA}[kind](
            filters, mus, u_max=u_max
        )
        nodes = scheme.combiners
        for c in nodes:
            c.u = float(rng.uniform(-u_max, u_max))
        for _ in range(3):
            r = _random_complex(rng, m)
            d = complex(*rng.standard_normal(2))
            u_before = [c.u for c in nodes]
            diag, w_eq = step_with_equivalent(scheme, r, d)
            assert abs(diag.y - np.vdot(w_eq, r)) <= 1e-10 * (1 + abs(diag.y))
            ys = []
            for j, solo in enumerate(solos):
                res = solo.step(r, d)
                ys.append(res.y)
                assert diag.branches[j:j + 1] == res.branches
            for f, solo in zip(filters, solos):
                if kind == "clms":
                    assert_array_equal(f.w, solo.w)
                else:
                    assert_array_equal(f.v, solo.v)
                    assert_array_equal(f.w_bar, solo.w_bar)
            lambdas = []
            for (i, j), c, u in zip(tree, nodes, u_before):
                lam = sigmoid(u)
                y_node = lam * ys[i] + (1 - lam) * ys[j]
                grad = ((ys[i] - ys[j]).conjugate() * (d - y_node)).real * lam * (1 - lam)
                assert repr(c.u) == repr(min(max(u + c.mu * grad, -u_max), u_max))
                ys.append(y_node)
                lambdas.append(lam)
            assert repr(diag.y) == repr(ys[-1])
            assert repr(diag.e) == repr(d - ys[-1])
            assert repr(diag.lambdas) == repr(tuple(lambdas))
            assert all(0.0 < c.mixing < 1.0 for c in nodes)


def _draw_oracle(data, rng) -> MmseReceiver:
    """An MMSE receiver over a small drawn downlink, bound to a few fading
    channel snapshots and a noise variance."""
    n_chips = data.draw(st.integers(1, 8), label="n_chips")
    n_users = data.draw(st.integers(1, min(3, 2**n_chips)), label="n_users")
    n_paths = data.draw(st.integers(1, 4), label="n_paths")
    cfg = CdmaConfig(n_users=n_users, n_chips=n_chips, n_paths=n_paths)
    signatures = generate_signatures(n_users, n_chips, rng)
    gains = ClarkeChannel(n_paths, 0.01, rng).run(4)
    return MmseReceiver(cfg, signatures, gains, float(rng.uniform(0.1, 2.0)))


def _state(scheme) -> tuple:
    """Every adapted quantity of a scheme, as exact bytes and reprs."""
    filters = getattr(scheme, "filters", [scheme])
    leaves = tuple(
        (f.w.tobytes(),) if isinstance(f, FullRankLms)
        else (f.v.tobytes(), f.w_bar.tobytes(), f.last_b_opt) if isinstance(f, JidfFilter)
        else (f.symbol,)  # the MMSE receiver's position in its run
        for f in filters
    )
    return leaves, tuple(repr(c.u) for c in getattr(scheme, "combiners", []))


class TestDecisionDirectedStep:
    """``step(r, decide)`` must be ``step(r, decide(predict(r)))`` bit for bit
    for every scheme, the MMSE receiver included: the decision is taken on the
    pre-update prediction (a tree's mix of its constituents' predictions),
    once, and every constituent adapts toward it.  The prediction must also
    be ``equivalent()^H r``, to 1e-10 relative."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_decision_function_equals_sliced_prediction(self, data):
        kind = data.draw(
            st.sampled_from(["fullrank", "jidf", "mmse", *sorted(_TREES)]), label="scheme"
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "mmse":
            scheme = _draw_oracle(data, rng)
        else:
            m = data.draw(st.integers(1, 12), label="num_taps")
            filters = _draw_constituents(data, rng, kind, m)
            mus = [float(rng.uniform(0, 2)) for _ in _TREES.get(kind, ())]
            scheme = {
                "fullrank": lambda: filters[0], "jidf": lambda: filters[0],
                "clms": lambda: Clms(filters, mus),
                "scheme_b": lambda: SchemeB(filters, mus),
                "scheme_a": lambda: SchemeA(filters, mus),
            }[kind]()
        for c in getattr(scheme, "combiners", []):
            c.u = float(rng.uniform(-c.u_max, c.u_max))
        for _ in range(3):
            r = _random_complex(rng, scheme.num_taps)
            by_function, by_symbol = copy.deepcopy(scheme), copy.deepcopy(scheme)
            seen = []

            def decide(y):
                seen.append(y)
                return detect_qpsk(y)

            got = by_function.step(r, decide)
            prediction = by_symbol.predict(r)
            y_eq = np.vdot(by_symbol.equivalent(), r)
            assert abs(y_eq - prediction) <= 1e-10 * (1 + abs(prediction))
            want = by_symbol.step(r, detect_qpsk(prediction))
            assert [repr(y) for y in seen] == [repr(prediction)]
            for name in ("y", "e", "branches", "lambdas"):
                assert repr(getattr(got, name)) == repr(getattr(want, name)), name
            assert _state(by_function) == _state(by_symbol)
            scheme = by_function
