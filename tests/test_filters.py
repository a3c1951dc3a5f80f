"""Full-tap LMS and reduced-rank filter state machines."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rrfilt.filters import FullRankLms, JidfFilter
from rrfilt.signalcore import build_hankel


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def interpolation_matrix(coeffs, size):
    """Banded lower-triangular Toeplitz convolution matrix of an interpolator
    (oracle): ``V[n, m] = coeffs[n - m]`` for ``0 <= n - m < len(coeffs)``,
    zero elsewhere."""
    v = np.asarray(coeffs, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("coeffs must be a non-empty vector")
    if v.size > size:
        raise ValueError("interpolator longer than the matrix size")
    mat = np.zeros((size, size), dtype=np.complex128)
    for k in range(v.size):
        rows = np.arange(size - k)
        mat[rows + k, rows] = v[k]
    return mat


def _dual_output(f, hankel, branch):
    """Output through the interpolator-side factorization ``v^H u``."""
    return np.vdot(f.v, f._interp_regressor(hankel, branch, np.conj(f.w_bar)))


def _random_filter(rng, max_taps=16):
    m = int(rng.integers(2, max_taps + 1))
    i = int(rng.integers(1, min(m, 4) + 1))
    d = int(rng.integers(1, m + 1))
    stride = m // d
    b = int(rng.integers(1, m - (d - 1) * stride + 1))
    f = JidfFilter(m, i, d, b, eta=0.01, mu=0.05)
    f.v = _random_complex(rng, i)
    f.w_bar = _random_complex(rng, d)
    return f


class TestFullRankLms:
    def test_zero_filter_start(self):
        f = FullRankLms(4, mu=0.1)
        rng = np.random.default_rng(0)
        r = _random_complex(rng, 4)
        res = f.step(r, 2 + 1j)
        assert res.y == 0
        assert res.e == 2 + 1j

    def test_one_step_hand_computation(self):
        f = FullRankLms(1, mu=0.1)
        res = f.step([1.0], 1.0)
        assert res.y == 0
        assert res.e == 1
        assert f.w[0] == pytest.approx(0.1)

    def test_zero_step_size_freezes_state(self):
        f = FullRankLms(3, mu=0.0)
        f.w = np.array([1.0, 2.0, 3.0], dtype=complex)
        before = f.w.copy()
        rng = np.random.default_rng(1)
        for _ in range(10):
            f.step(_random_complex(rng, 3), complex(rng.standard_normal()))
        assert_array_equal(f.w, before)

    def test_error_is_exactly_d_minus_y(self):
        rng = np.random.default_rng(2)
        f = FullRankLms(5, mu=0.05)
        for _ in range(50):
            d = complex(*rng.standard_normal(2))
            res = f.step(_random_complex(rng, 5), d)
            assert res.e == d - res.y

    def test_dimension_mismatch(self):
        f = FullRankLms(4, mu=0.1)
        with pytest.raises(ValueError):
            f.step([1.0, 2.0], 0.0)


class TestBranchSelection:
    def test_single_branch_always_selected(self):
        f = JidfFilter(6, 2, 3, 1, eta=0.01, mu=0.05)
        rng = np.random.default_rng(3)
        res = f.step(_random_complex(rng, 6), 1.0)
        assert res.branches[0] == 0

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            f = _random_filter(rng)
            r = _random_complex(rng, f.num_taps)
            d = complex(*rng.standard_normal(2))
            hankel = f.regressor(r)
            # brute force: evaluate every branch through the primal chain
            errs = []
            for pat in f.patterns:
                interpolated = hankel @ np.conj(f.v)
                r_bar = interpolated[pat]
                errs.append(abs(d - np.vdot(f.w_bar, r_bar)) ** 2)
            res = f.step(r, d)
            assert res.branches == (int(np.argmin(errs)),)
            assert abs(res.e) ** 2 == pytest.approx(min(errs), rel=1e-12)

    def test_exact_tie_goes_to_lowest_branch(self):
        # zero reduced-rank filter makes every branch error equal to d
        f = JidfFilter(8, 2, 2, 4, eta=0.01, mu=0.05)
        rng = np.random.default_rng(5)
        res = f.step(_random_complex(rng, 8), 1 + 1j)
        assert res.branches == (0,)
        assert res.e == 1 + 1j


class TestJidfStep:
    def test_zero_filter_start(self):
        f = JidfFilter(6, 2, 3, 2, eta=0.02, mu=0.1)
        rng = np.random.default_rng(6)
        r = _random_complex(rng, 6)
        d = 1 - 2j
        r_bar = f._forward(f._input(r), d).r_bar
        res = f.step(r, d)
        assert res.y == 0
        assert res.e == d
        assert_array_equal(f.v, np.array([1, 0], dtype=complex))  # u was zero
        assert_allclose(f.w_bar, 0.1 * np.conj(d) * r_bar)

    def test_zero_step_sizes_freeze_state(self):
        f = JidfFilter(6, 2, 3, 2, eta=0.0, mu=0.0)
        rng = np.random.default_rng(7)
        f.v = _random_complex(rng, 2)
        f.w_bar = _random_complex(rng, 3)
        v0, w0 = f.v.copy(), f.w_bar.copy()
        for _ in range(10):
            f.step(_random_complex(rng, 6), complex(rng.standard_normal()))
        assert_array_equal(f.v, v0)
        assert_array_equal(f.w_bar, w0)

    def test_error_is_exactly_d_minus_y(self):
        rng = np.random.default_rng(8)
        f = JidfFilter(8, 3, 4, 2, eta=0.01, mu=0.05)
        for _ in range(100):
            d = complex(*rng.standard_normal(2))
            res = f.step(_random_complex(rng, 8), d)
            assert res.e == d - res.y

    def test_degenerate_config_matches_full_rank(self):
        # interp_len 1 (frozen unit interpolator), rank == num_taps, one
        # identity pattern: step for step the same filter as plain LMS
        m, mu = 6, 0.08
        jidf = JidfFilter(m, 1, m, 1, eta=0.0, mu=mu)
        lms = FullRankLms(m, mu=mu)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            r = _random_complex(rng, m)
            d = complex(*rng.standard_normal(2))
            res_j = jidf.step(r, d)
            res_l = lms.step(r, d)
            assert abs(res_j.y - res_l.y) <= 1e-12
            assert abs(res_j.e - res_l.e) <= 1e-12
            assert np.max(np.abs(jidf.w_bar - lms.w)) <= 1e-12

    def test_simultaneous_update_uses_pre_update_filter(self):
        # the interpolator regressor must be built from the filter taps as
        # they were before this step's filter update
        rng = np.random.default_rng(10)
        f = _random_filter(rng)
        r = _random_complex(rng, f.num_taps)
        d = complex(*rng.standard_normal(2))
        hankel = f.regressor(r)
        v0, w0 = f.v.copy(), f.w_bar.copy()
        fwd = f._forward(f._input(r), d)
        b, e, r_bar = fwd.b_opt, fwd.e, fwd.r_bar
        u = hankel[f.patterns[b]].T @ np.conj(w0)
        f.step(r, d)
        assert_allclose(f.v, v0 + f.eta * np.conj(e) * u, atol=1e-14)
        assert_allclose(f.w_bar, w0 + f.mu * np.conj(e) * r_bar, atol=1e-14)


class TestPredict:
    def test_gathers_rows_before_the_product(self):
        # the arithmetic of the decision-directed input, bit for bit: the
        # winning branch's Hankel rows first, then the interpolator, then the
        # reduced-rank filter (the other order differs in the last bits)
        rng = np.random.default_rng(19)
        for _ in range(200):
            f = _random_filter(rng)
            f.last_b_opt = int(rng.integers(f.n_branches))
            r = _random_complex(rng, f.num_taps)
            rows = f.regressor(r)[f.patterns[f.last_b_opt]]
            want = np.dot(np.dot(rows, np.conj(f.v)), np.conj(f.w_bar))
            assert repr(f.predict(r)) == repr(complex(want))


class TestDualOutput:
    def test_zero_interpolator(self):
        f = JidfFilter(6, 2, 3, 2, eta=0.01, mu=0.05)
        f.v = np.zeros(2, dtype=complex)
        f.w_bar = np.ones(3, dtype=complex)
        rng = np.random.default_rng(11)
        hankel = f.regressor(_random_complex(rng, 6))
        assert _dual_output(f, hankel, 0) == 0

    def test_zero_reduced_filter(self):
        f = JidfFilter(6, 2, 3, 2, eta=0.01, mu=0.05)
        rng = np.random.default_rng(12)
        hankel = f.regressor(_random_complex(rng, 6))
        assert _dual_output(f, hankel, 1) == 0

    def test_dual_equals_primal(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            f = _random_filter(rng)
            r = _random_complex(rng, f.num_taps)
            hankel = f.regressor(r)
            for b, pat in enumerate(f.patterns):
                primal = np.vdot(f.w_bar, hankel[pat] @ np.conj(f.v))
                assert abs(_dual_output(f, hankel, b) - primal) <= 1e-12


class TestEquivalent:
    """``equivalent()`` is the window-length filter at the last selected
    branch."""

    def test_full_rank_filter_is_its_own_equivalent(self):
        f = FullRankLms(4, mu=0.1)
        f.w = _random_complex(np.random.default_rng(18), 4)
        assert_array_equal(f.equivalent(), f.w)

    def test_degenerate_config_returns_filter_itself(self):
        f = JidfFilter(5, 1, 5, 1, eta=0.0, mu=0.1)
        rng = np.random.default_rng(14)
        f.w_bar = _random_complex(rng, 5)
        assert_allclose(f.equivalent(), f.w_bar, atol=1e-15)

    def test_zero_filter_gives_zero_vector(self):
        f = JidfFilter(6, 2, 3, 2, eta=0.01, mu=0.05)
        assert_array_equal(f.equivalent(), np.zeros(6))

    def test_inner_product_reproduces_output(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            f = _random_filter(rng)
            for b in range(f.n_branches):
                f.last_b_opt = b
                w_eq = f.equivalent()
                for _ in range(5):
                    r = _random_complex(rng, f.num_taps)
                    hankel = build_hankel(r, f.num_taps, f.interp_len)
                    primal = np.vdot(f.w_bar, hankel[f.patterns[b]] @ np.conj(f.v))
                    assert abs(np.vdot(w_eq, r) - primal) <= 1e-12

    def test_matches_explicit_scatter_then_toeplitz(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            f = _random_filter(rng)
            b = int(rng.integers(f.n_branches))
            scattered = np.zeros(f.num_taps, dtype=complex)
            scattered[f.patterns[b]] = f.w_bar
            expected = interpolation_matrix(f.v, f.num_taps) @ scattered
            f.last_b_opt = b
            assert_allclose(f.equivalent(), expected, atol=1e-13)


class TestInterpolationMatrix:
    """The test-side Toeplitz oracle itself."""

    def test_shape_and_band(self):
        mat = interpolation_matrix([1, 2], 4)
        expected = np.array(
            [[1, 0, 0, 0], [2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1]], dtype=complex
        )
        assert_array_equal(mat, expected)

    def test_matches_explicit_band(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(1, 17))
            i = int(rng.integers(1, m + 1))
            v = _random_complex(rng, i)
            mat = np.zeros((m, m), dtype=complex)
            for row in range(m):
                for col in range(m):
                    if 0 <= row - col < i:
                        mat[row, col] = v[row - col]
            assert_allclose(interpolation_matrix(v, m), mat, atol=0)

    def test_rejects_long_interpolator(self):
        with pytest.raises(ValueError):
            interpolation_matrix([1, 2, 3], 2)


class TestGradientDirections:
    """LMS update directions against central finite differences of the
    instantaneous squared error (branch held fixed)."""

    @staticmethod
    def _cost(v, w_bar, hankel, idx, d):
        y = np.vdot(w_bar, hankel[idx] @ np.conj(v))
        return abs(d - y) ** 2

    def test_interpolator_and_filter_updates(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(25):
            f = _random_filter(rng, max_taps=10)
            r = _random_complex(rng, f.num_taps)
            d = complex(*rng.standard_normal(2))
            hankel = f.regressor(r)
            fwd = f._forward(f._input(r), d)  # the gradients the commit applies
            e, r_bar, u = fwd.e, fwd.r_bar, fwd.u
            idx = f.patterns[fwd.b_opt]

            def fd_grad(base, update_other, which):
                grads = np.zeros(base.size, dtype=complex)
                for k in range(base.size):
                    for part, delta in (("re", h), ("im", 1j * h)):
                        plus, minus = base.copy(), base.copy()
                        plus[k] += delta
                        minus[k] -= delta
                        if which == "v":
                            cp = self._cost(plus, f.w_bar, hankel, idx, d)
                            cm = self._cost(minus, f.w_bar, hankel, idx, d)
                        else:
                            cp = self._cost(f.v, plus, hankel, idx, d)
                            cm = self._cost(f.v, minus, hankel, idx, d)
                        g = (cp - cm) / (2 * h)
                        grads[k] += g if part == "re" else 1j * g
                return grads

            analytic_v = np.conj(e) * u
            numeric_v = -0.5 * fd_grad(f.v, f.w_bar, "v")
            assert np.linalg.norm(numeric_v - analytic_v) <= 1e-4 * max(
                np.linalg.norm(analytic_v), 1e-12
            )

            analytic_w = np.conj(e) * r_bar
            numeric_w = -0.5 * fd_grad(f.w_bar, f.v, "w")
            assert np.linalg.norm(numeric_w - analytic_w) <= 1e-4 * max(
                np.linalg.norm(analytic_w), 1e-12
            )


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            JidfFilter(4, 5, 2, 1, eta=0.01, mu=0.01)
        with pytest.raises(ValueError):
            JidfFilter(4, 2, 5, 1, eta=0.01, mu=0.01)

    def test_dimension_mismatch_on_step(self):
        f = JidfFilter(6, 2, 3, 2, eta=0.01, mu=0.05)
        with pytest.raises(ValueError):
            f.step(np.zeros(5), 0.0)

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 1), (1, 6), ()])
    def test_window_must_have_exactly_num_taps_samples(self, shape):
        # every entry point refuses a wrongly shaped window with one message;
        # for a JIDF filter the check is build_hankel's
        r = np.ones(shape, dtype=complex)
        for f in (JidfFilter(6, 2, 3, 2, eta=0.01, mu=0.05), FullRankLms(6, mu=0.1)):
            calls = [lambda: f.predict(r), lambda: f.step(r, 1.0)]
            if isinstance(f, JidfFilter):
                calls.append(lambda: f.regressor(r))
            for call in calls:
                with pytest.raises(ValueError, match="expected a length-6 input vector"):
                    call()
