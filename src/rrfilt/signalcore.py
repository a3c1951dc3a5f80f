"""Shared building blocks for interpolated, decimated complex filtering:
the window's Hankel regressor and the decimation-pattern table.

Everything in this module is a pure function of its inputs and operates on
plain numpy arrays (complex128 semantics throughout).  Conventions shared by
the whole package:

* an observation window holds exactly ``num_taps`` samples, indexed from 0,
* window regressor matrices are Hankel (constant anti-diagonals); sample
  indices past the end of the window read as zero, so the Hankel regressor
  times a conjugated interpolator is the window's sliding correlation with
  that interpolator,
* decimation patterns are strictly increasing index selections, i.e. every
  row of the matching selection matrix is a distinct unit row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.typing import NDArray


def build_hankel(samples, num_taps: int, interp_len: int) -> NDArray[np.complex128]:
    """Arrange a window into its (num_taps, interp_len) Hankel regressor.

    Row ``m``, column ``k`` holds ``samples[m + k]``; positions past the end
    of the window read as zero.

    Parameters
    ----------
    samples : array_like of complex, exactly ``num_taps`` samples
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
    buf = np.zeros(num_taps + interp_len - 1, dtype=np.complex128)
    buf[:num_taps] = _window(samples, num_taps)
    return buf[_hankel_index(num_taps, interp_len)]


def _window(r, num_taps: int) -> NDArray[np.complex128]:
    """``r`` as a complex vector, checked to hold exactly ``num_taps`` samples."""
    r = np.asarray(r, dtype=np.complex128)
    if r.shape != (num_taps,):
        raise ValueError(f"expected a length-{num_taps} input vector")
    return r


@lru_cache(maxsize=64)
def _hankel_index(num_taps: int, interp_len: int) -> NDArray[np.intp]:
    """Read-only ``(num_taps, interp_len)`` table of ``m + k``: one fancy
    index gathers the whole Hankel regressor from the padded window."""
    idx = np.arange(num_taps)[:, None] + np.arange(interp_len)
    idx.setflags(write=False)
    return idx


def generate_decimation_patterns(
    num_taps: int, rank: int, n_branches: int
) -> NDArray[np.intp]:
    """Read-only ``(n_branches, rank)`` table of a branch bank's decimation
    patterns, one pattern per row.

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
    table = np.arange(n_branches, dtype=np.intp)[:, None] + offsets
    table.setflags(write=False)
    return table
