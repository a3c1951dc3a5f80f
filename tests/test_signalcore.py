"""Window regressor and decimation-pattern primitives."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rrfilt.signalcore import build_hankel, generate_decimation_patterns


def _random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestBuildHankel:
    def test_single_column_is_the_window(self):
        assert_array_equal(build_hankel([1, 2, 3], 3, 1), np.array([[1], [2], [3]]))

    def test_zero_padding_past_window_end(self):
        expected = np.array([[1, 2], [2, 3], [3, 0]], dtype=complex)
        assert_array_equal(build_hankel([1, 2, 3], 3, 2), expected)

    def test_zero_window_gives_zero_matrix(self):
        assert_array_equal(build_hankel(np.zeros(5), 5, 3), np.zeros((5, 3)))

    def test_anti_diagonals_constant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(1, 12))
            i = int(rng.integers(1, m + 1))
            h = build_hankel(_random_complex(rng, m), m, i)
            for row in range(m):
                for col in range(i):
                    row2, col2 = row + 1, col - 1
                    if 0 <= col2 < i and row2 < m:
                        assert h[row, col] == h[row2, col2]

    @pytest.mark.parametrize(
        "args", [([1, 2], 0, 1), ([1, 2], 2, 0), ([1, 2], 3, 1), ([1, 2, 3, 4], 3, 2)]
    )
    def test_rejects_bad_dimensions(self, args):
        # the window must hold exactly num_taps samples: no trailing samples
        with pytest.raises(ValueError):
            build_hankel(*args)

    def test_correlation_matches_explicit_banded_toeplitz(self):
        # oracle: build the banded lower-triangular convolution matrix by
        # hand and apply its Hermitian transpose
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(1, 17))
            i = int(rng.integers(1, m + 1))
            v = _random_complex(rng, i)
            r = _random_complex(rng, m)
            mat = np.zeros((m, m), dtype=complex)
            for row in range(m):
                for col in range(m):
                    if 0 <= row - col < i:
                        mat[row, col] = v[row - col]
            assert_allclose(build_hankel(r, m, i) @ np.conj(v), mat.conj().T @ r, atol=1e-12)


class TestDecimationPatterns:
    def test_two_branch_comb(self):
        pats = generate_decimation_patterns(8, 4, 2)
        assert pats.tolist() == [[0, 2, 4, 6], [1, 3, 5, 7]]

    def test_full_rank_is_identity_selection(self):
        (pat,) = generate_decimation_patterns(4, 4, 1)
        assert pat.tolist() == [0, 1, 2, 3]

    def test_desk_scale_bank(self):
        pats = generate_decimation_patterns(40, 4, 8)
        assert pats.shape == (8, 4)
        assert pats.dtype == np.intp
        assert not pats.flags.writeable
        for b, pat in enumerate(pats):
            assert pat.tolist() == [b + 10 * d for d in range(4)]

    def test_patterns_fit_and_are_pairwise_distinct(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 24))
            d = int(rng.integers(1, m + 1))
            stride = m // d
            b_max = m - (d - 1) * stride
            b = int(rng.integers(1, b_max + 1))
            pats = generate_decimation_patterns(m, d, b)
            seen = set()
            for pat in pats:
                assert pat[-1] < m
                assert np.all(np.diff(pat) > 0)
                seen.add(tuple(pat.tolist()))
            assert len(seen) == b

    def test_rejects_overfull_bank(self):
        # rank 4 fits at most 8 - 4 + 1 = 5 branches in an 8-sample window
        with pytest.raises(ValueError, match="6 branches of rank 4 do not fit"):
            generate_decimation_patterns(8, 4, 6)

    def test_stride_shortens_only_where_the_bank_would_not_fit(self):
        # every (M, B, D) with M <= 80: where the full stride M // D fits
        # (the last branch's last index B - 1 + (D - 1) M // D is inside the
        # window) it is kept; every other D <= M - B + 1 fits with a shorter
        # stride; D > M - B + 1 is refused
        kept = shortened = 0
        for m in range(1, 81):
            for d in range(1, m + 1):
                for b in range(1, m - d + 2):
                    pats = generate_decimation_patterns(m, d, b)
                    assert pats.shape == (b, d) and pats[-1, -1] < m
                    stride = pats[0, 1] - pats[0, 0] if d > 1 else m
                    assert stride >= 1
                    if b - 1 + (d - 1) * (m // d) < m:
                        assert stride == m // d
                        kept += 1
                    else:
                        shortened += 1
                with pytest.raises(ValueError, match="do not fit"):
                    generate_decimation_patterns(m, d, m - d + 2)
        assert (kept, shortened) == (43132, 45428)

    def test_desk_window_takes_every_rank_that_fits(self):
        # M = 40, B = 8: the full stride refused ranks 8, 10, 12, 13 and 18-20
        for d in range(1, 34):
            assert generate_decimation_patterns(40, d, 8).shape == (8, d)
        assert generate_decimation_patterns(40, 8, 8)[0].tolist() == list(range(0, 32, 4))
        with pytest.raises(ValueError):
            generate_decimation_patterns(40, 34, 8)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            generate_decimation_patterns(4, 5, 1)
        with pytest.raises(ValueError):
            generate_decimation_patterns(4, 0, 1)
