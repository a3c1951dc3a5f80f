"""Shared building blocks for interpolated, decimated complex filtering.

Everything in this module is a pure function of its inputs and operates on
plain numpy arrays (complex128 semantics throughout).  Conventions shared by
the whole package:

* an observation window holds ``num_taps`` samples, indexed from 0,
* window regressor matrices are Hankel (constant anti-diagonals); sample
  indices past the end of the window read as zero,
* decimation patterns are strictly increasing index selections, i.e. every
  row of the matching selection matrix is a distinct unit row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class DecimationPattern:
    """Index selection applied to an interpolated window.

    Parameters
    ----------
    indices : array of int
        Retained sample positions, strictly increasing and non-negative.
        The upper bound is checked against the vector being decimated, not
        here, so one pattern can serve windows of any sufficient length.
    """

    indices: NDArray[np.intp]

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("a decimation pattern needs at least one index")
        if idx[0] < 0:
            raise ValueError("pattern indices must be non-negative")
        if idx.size > 1 and np.any(np.diff(idx) <= 0):
            raise ValueError("pattern indices must be strictly increasing")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)


def build_hankel(samples, num_taps: int, interp_len: int) -> NDArray[np.complex128]:
    """Arrange window samples into the (num_taps, interp_len) Hankel regressor.

    Row ``m``, column ``k`` holds ``samples[m + k]``; positions beyond the
    supplied samples read as zero.  ``samples`` must provide at least the
    ``num_taps`` window samples and may supply up to ``interp_len - 1``
    trailing samples to fill the lower-right corner.

    Parameters
    ----------
    samples : array_like of complex, length >= num_taps
    num_taps : int
        Number of rows (window length).
    interp_len : int
        Number of columns (interpolator length).

    Returns
    -------
    (num_taps, interp_len) complex ndarray with constant anti-diagonals.
    """
    if num_taps < 1:
        raise ValueError("num_taps must be >= 1")
    if interp_len < 1:
        raise ValueError("interp_len must be >= 1")
    s = np.asarray(samples, dtype=np.complex128)
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if s.size < num_taps:
        raise ValueError(f"need at least {num_taps} samples, got {s.size}")
    needed = num_taps + interp_len - 1
    buf = np.zeros(needed, dtype=np.complex128)
    take = min(s.size, needed)
    buf[:take] = s[:take]
    return buf[_hankel_index(num_taps, interp_len)]


@lru_cache(maxsize=64)
def _hankel_index(num_taps: int, interp_len: int) -> NDArray[np.intp]:
    """Read-only ``(num_taps, interp_len)`` table of ``m + k``: one fancy
    index gathers the whole Hankel regressor from the padded window."""
    idx = np.arange(num_taps)[:, None] + np.arange(interp_len)
    idx.setflags(write=False)
    return idx


def interpolation_matrix(coeffs, size: int) -> NDArray[np.complex128]:
    """Banded lower-triangular Toeplitz convolution matrix of an interpolator.

    Column ``m`` carries the interpolator coefficients starting at row ``m``:
    ``V[n, m] = coeffs[n - m]`` for ``0 <= n - m < len(coeffs)``, zero
    elsewhere.  Its Hermitian transpose applied to a window equals
    :func:`interpolate` on that window.
    """
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


def interpolate(coeffs, window) -> NDArray[np.complex128]:
    """Sliding correlation of a window with the conjugated interpolator.

    ``out[m] = sum_k window[m + k] * conj(coeffs[k])`` with zero padding past
    the window end; the output has the window's length.  Equivalent to
    multiplying the window by the Hermitian transpose of
    :func:`interpolation_matrix`.
    """
    v = np.asarray(coeffs, dtype=np.complex128)
    r = np.asarray(window, dtype=np.complex128)
    if v.ndim != 1 or r.ndim != 1:
        raise ValueError("coeffs and window must be vectors")
    if v.size > r.size:
        raise ValueError("interpolator longer than the window")
    return build_hankel(r, r.size, v.size) @ np.conj(v)


def generate_decimation_patterns(
    num_taps: int, rank: int, n_branches: int
) -> list[DecimationPattern]:
    """Build the candidate decimation patterns for a branch bank.

    Pattern ``b`` (0-based) keeps indices ``b + d * stride`` for
    ``d = 0 .. rank-1`` with ``stride = num_taps // rank``: a uniform comb
    per branch, offset by one sample per branch.  All requested branches
    must fit inside the window.
    """
    if rank < 1 or rank > num_taps:
        raise ValueError("rank must satisfy 1 <= rank <= num_taps")
    if n_branches < 1:
        raise ValueError("need at least one branch")
    stride = num_taps // rank
    highest = (n_branches - 1) + (rank - 1) * stride
    if highest >= num_taps:
        raise ValueError(
            f"{n_branches} branches of rank {rank} do not fit in a "
            f"{num_taps}-sample window (patterns would collide or leave it)"
        )
    offsets = stride * np.arange(rank, dtype=np.intp)
    return [DecimationPattern(b + offsets) for b in range(n_branches)]


def apply_decimation(pattern: DecimationPattern, x) -> NDArray[np.complex128]:
    """Select the pattern's entries from ``x`` (in pattern order)."""
    vec = np.asarray(x, dtype=np.complex128)
    if vec.ndim != 1:
        raise ValueError("x must be a vector")
    if pattern.indices[-1] >= vec.size:
        raise ValueError(
            f"pattern index {int(pattern.indices[-1])} out of bounds for "
            f"length-{vec.size} vector"
        )
    return vec[pattern.indices]
