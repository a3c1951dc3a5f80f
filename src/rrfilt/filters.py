"""Adaptive LMS filter state machines, held as banks of lanes.

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

Each filter is a bank of same-shape lanes that share no state: one lane per
independent filter, each with its own step sizes and coefficients, all
advanced one symbol per numpy call.  Given one step size of each kind, a
filter is a single filter (``lanes == ()``): its coefficients are vectors
and its results plain numbers.  Given one per lane, it is a bank of L lanes
(``lanes == (L,)``): every coefficient array gains a leading lane axis,
inputs hold one window and one desired response per lane, and each result
comes once per lane.  Both are the same code; a lane's arithmetic is the
same, bit for bit, whatever bank it runs in.  Same-shape filters can be
joined into one bank (as a mixing tree does, :mod:`rrfilt.combiners`); each
then reads and writes its own lanes of the bank's arrays.

Each filter, like every mixing tree of them, can ``step`` (returning a
:class:`StepResult`, one per lane for a bank), ``predict`` without
adapting, and give its ``equivalent()`` window-length filter, which
satisfies ``equivalent()^H r == predict(r)``, and its ``ops``, the
closed-form real additions and multiplications of one lane's step.
``step(r, d)`` takes the desired response ``d`` or a decision function in
its place: the function is applied to each lane's pre-update output
``predict(r)`` and the lane adapts toward its result (decision-directed
operation).

A filter prepares its per-symbol input once: ``_input(r)`` is the checked
windows for full-tap LMS and, for JIDF, the Hankel regressors (one
``build_hankel`` per lane) with the conjugated interpolators and filters.
``predict`` and ``step`` are thin wrappers over ``_predict(x)`` and
``_step(x, d)`` on that input, so a decision-directed step builds one
regressor per lane, not two, and a mixing tree prepares each bank once for
both its prediction and its step.  ``_step`` runs ``_forward`` (outputs,
branch choice, gradients) then ``_commit`` (coefficient updates), the
forward-pass/commit boundary the benchmark times.  The hand-off is plain
arrays over the lanes: ``_forward`` returns ``(y, e)`` for full-tap LMS and
``(y, e, b_opt, r_bar, u)`` for JIDF, and ``_commit`` takes the error and
the regressors it applies.

Every lane's operand keeps the layout a single filter's has (contiguous
branch outputs and Hankel rows, the transposed row gather for the
interpolator regressor), and each product runs per lane in ``np.matvec`` or
``np.vecdot``: that is what keeps a bank's lanes bit-identical to single
filters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signalcore import _window, build_hankel, generate_decimation_patterns


@dataclass
class StepResult:
    """One adaptation step of an adaptive scheme (pre-update quantities).

    ``branches`` holds the 0-based decimation branch that won each
    constituent's selection (empty for full-tap LMS constituents); a filter
    used alone is its own only constituent.  ``lambdas`` holds the mixing
    value of each of the scheme's mixing nodes, in node order (empty for a
    single filter).  A bank's step gives one per lane.
    """

    y: complex
    e: complex
    branches: tuple[int, ...]
    lambdas: tuple[float, ...]


class _State:
    """A filter's adapted state array: the filter's own lanes of the array
    ``_<name>`` of the bank that holds them (``_home``), read as a view and
    written in place, so a filter joined into a bank stays live."""

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, f, owner=None):
        if f is None:
            return self
        return getattr(f._home, self.key)[f._lanes]

    def __set__(self, f, value):
        getattr(f._home, self.key)[f._lanes] = value


def _step_sizes(*values) -> list[np.ndarray]:
    """Each step size as a float array of one shape: ``()`` for a single
    filter, ``(L,)`` for a bank of L lanes; only finite sizes >= 0 pass."""
    sizes = np.broadcast_arrays(*(np.array(v, dtype=np.float64) for v in values))
    if sizes[0].ndim > 1 or sizes[0].shape == (0,):
        raise ValueError("give one step size, or one per lane")
    if not all((np.isfinite(s) & (s >= 0)).all() for s in sizes):
        raise ValueError("step sizes must be finite and non-negative")
    return [s.copy() for s in sizes]


class _Bank:
    """What both filter families share: lanes, results and joining.

    Subclasses name their step sizes (``_STEPS``) and adapted state
    (``_STATE``, each a :class:`_State`), and give ``_shape``, the
    constructor arguments before the step sizes."""

    _STEPS: tuple[str, ...] = ()
    _STATE: tuple[str, ...] = ()

    def _own_lanes(self, lanes: tuple) -> None:
        self.lanes = lanes
        self._home, self._lanes = self, ...

    @property
    def n_lanes(self) -> int:
        return self.lanes[0] if self.lanes else 1

    def predict(self, r):
        """Each lane's output for its window of ``r``, no adaptation (a JIDF
        filter uses its last selected branch)."""
        return self._predict(self._input(r)).tolist()

    def step(self, r, d):
        """Filter one window per lane and adapt.  ``d`` is the desired
        response (one per lane for a bank) or a decision function of each
        lane's output."""
        return self._results(*self._step(self._input(r), d))

    def _results(self, y, e, b) -> StepResult | list[StepResult]:
        ys, es = np.ravel(y).tolist(), np.ravel(e).tolist()
        bs = [()] * len(ys) if b is None else [(v,) for v in np.ravel(b).tolist()]
        results = [StepResult(y, e, b, ()) for y, e, b in zip(ys, es, bs)]
        return results if self.lanes else results[0]

    def _each_lane(self, fn, values) -> np.ndarray:
        """``fn`` applied to each lane's value, as a complex array."""
        out = [fn(v) for v in np.ravel(values).tolist()]
        return np.array(out, dtype=np.complex128).reshape(self.lanes)

    @classmethod
    def _join(cls, members) -> _Bank:
        """One bank over the lanes of same-shape filters, member after
        member; each member then works on its own lanes of the bank."""
        if any(f._home is not f for f in members):
            # its old bank would go on stepping lanes the filter no longer shows
            raise ValueError("a filter already joined to a bank cannot join another")
        first = members[0]
        sizes = [np.concatenate([np.ravel(getattr(f, s)) for f in members]) for s in cls._STEPS]
        bank = cls(*first._shape, *sizes)
        per = first.n_lanes
        for k, f in enumerate(members):
            lanes = slice(k * per, (k + 1) * per) if first.lanes else k
            for name in cls._STATE:
                getattr(bank, "_" + name)[lanes] = getattr(f, name)
            f._home, f._lanes = bank, lanes
        return bank


class FullRankLms(_Bank):
    """Complex LMS filter over the whole observation window.

    Parameters
    ----------
    num_taps : int
        Filter length (window length).
    mu : float, or one per lane
        Step size, >= 0.
    """

    _STEPS = ("mu",)
    _STATE = ("w",)
    w = _State()

    def __init__(self, num_taps: int, mu):
        if num_taps < 1:
            raise ValueError("num_taps must be >= 1")
        (self.mu,) = _step_sizes(mu)
        self.num_taps = int(num_taps)
        self._w = np.zeros(self.mu.shape + (self.num_taps,), dtype=np.complex128)
        self._own_lanes(self.mu.shape)

    @property
    def _shape(self) -> tuple:
        return (self.num_taps,)

    # in the class dict, where the benchmark's tracer wraps it
    predict = _Bank.predict

    def equivalent(self) -> np.ndarray:
        """A copy of the coefficients: ``equivalent()^H r == predict(r)``."""
        return self.w.copy()

    @property
    def ops(self) -> tuple[int, int]:
        """Real additions and multiplications per step: ``(2M, 2M + 1)``."""
        return 2 * self.num_taps, 2 * self.num_taps + 1

    # -- internals: x is the prepared input of ``_input`` -------------------

    def _input(self, r) -> np.ndarray:
        """The checked windows, one per lane."""
        return _window(r, self.num_taps, self.lanes)

    def _predict(self, x) -> np.ndarray:
        return np.vecdot(self.w, x)

    def _step(self, x, d) -> tuple[np.ndarray, np.ndarray, None]:
        """``(y, e, None)`` of one step of every lane (no branches)."""
        y, e = self._forward(x, d)
        self._commit(e, x)
        return y, e, None

    def _forward(self, x, d) -> tuple[np.ndarray, np.ndarray]:
        y = self._predict(x)
        if callable(d):
            d = self._each_lane(d, y)
        return y, np.subtract(d, y)

    def _commit(self, e, x) -> None:
        w = self.w
        w += (self.mu * np.conj(e))[..., None] * x


class JidfFilter(_Bank):
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
    eta, mu : float, or one per lane
        Interpolator and reduced-rank filter step sizes.
    """

    _STEPS = ("eta", "mu")
    _STATE = ("v", "w_bar", "last_b_opt")
    v = _State()
    w_bar = _State()
    last_b_opt = _State()

    def __init__(self, num_taps: int, interp_len: int, rank: int, n_branches: int, eta, mu):
        if interp_len < 1 or interp_len > num_taps:
            raise ValueError("interp_len must satisfy 1 <= interp_len <= num_taps")
        self.eta, self.mu = _step_sizes(eta, mu)
        self.num_taps = int(num_taps)
        self.interp_len = int(interp_len)
        self.rank = int(rank)
        self.n_branches = int(n_branches)
        # (n_branches, rank) decimation-pattern table, one branch per row
        self.patterns = generate_decimation_patterns(num_taps, rank, n_branches)
        lanes = self.eta.shape
        self._v = np.zeros(lanes + (self.interp_len,), dtype=np.complex128)
        self._v[..., 0] = 1.0
        self._w_bar = np.zeros(lanes + (self.rank,), dtype=np.complex128)
        self._last_b_opt = np.zeros(lanes, dtype=np.intp)
        self._own_lanes(lanes)
        # gather tables over the lanes' windows laid end to end:
        # _branch_rows[l, b] is branch b's pattern shifted to lane l's
        # window, and row b + _first_branch[l] of _flat_rows is the same row
        lane = np.arange(self.n_lanes)
        self._branch_rows = (self.patterns + self.num_taps * lane[:, None, None]).reshape(
            lanes + self.patterns.shape
        )
        self._flat_rows = self._branch_rows.reshape(-1, self.rank)
        self._first_branch = (self.n_branches * lane).reshape(lanes)

    @property
    def _shape(self) -> tuple:
        return self.num_taps, self.interp_len, self.rank, self.n_branches

    predict = _Bank.predict  # in the class dict, as for FullRankLms

    def equivalent(self) -> np.ndarray:
        """Window-length filter equivalent to this structure on the last
        selected branch: ``equivalent()^H r == predict(r)``.

        Scatters the reduced-rank coefficients to their pattern positions and
        convolves with the interpolator.
        """
        m = self.num_taps
        scattered = np.zeros(self.lanes + (m,), dtype=np.complex128)
        scattered.reshape(-1)[self._winner_rows(self.last_b_opt)] = self.w_bar
        out = np.zeros_like(scattered)
        v = self.v
        for k in range(self.interp_len):
            out[..., k:] += v[..., k, None] * scattered[..., : m - k]
        return out

    @property
    def ops(self) -> tuple[int, int]:
        """Real additions and multiplications per step, with window length
        ``M``, interpolator length ``I``, rank ``D`` and ``B`` branches:
        ``(M (I - 1) + (B + 1) D + 2 I, M I + (B + 2) D)``."""
        m, i, d, b = self.num_taps, self.interp_len, self.rank, self.n_branches
        return m * (i - 1) + (b + 1) * d + 2 * i, m * i + (b + 2) * d

    # -- internals: x is the prepared input of ``_input`` -------------------

    def _winner_rows(self, b) -> np.ndarray:
        """Each lane's branch-``b`` pattern, offset to the lane's window."""
        return self._flat_rows.take(b + self._first_branch, 0)

    def _input(self, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(hankel, conj(v), conj(w_bar))`` of the windows ``r``, taken
        from the pre-update coefficients: one ``build_hankel`` per lane,
        which checks that its window holds exactly ``num_taps`` samples."""
        m, i = self.num_taps, self.interp_len
        windows = r if self.lanes else (r,)
        if len(windows) != self.n_lanes:
            raise ValueError(f"expected {self.n_lanes} windows, one per lane")
        hankel = np.array([build_hankel(w, m, i) for w in windows]).reshape(self.lanes + (m, i))
        return hankel, np.conj(self.v), np.conj(self.w_bar)

    def _predict(self, x) -> np.ndarray:
        # rows gathered before the product: _forward's order (product, then
        # gather) rounds differently, and this one fixes the semi records
        hankel, cv, cw = x
        rows = hankel.reshape(-1, self.interp_len).take(self._winner_rows(self.last_b_opt), 0)
        return np.vecdot(np.conj(np.matvec(rows, cv)), cw)

    def _step(self, x, d) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(y, e, b_opt)`` of one step of every lane."""
        if callable(d):
            d = self._each_lane(d, self._predict(x))
        y, e, b_opt, r_bar, u = self._forward(x, d)
        self._commit(e, b_opt, r_bar, u)
        return y, e, b_opt

    def _forward(self, x, d) -> tuple[np.ndarray, ...]:
        """Pre-update outputs of every branch; each lane's winning output,
        error, branch, decimated regressor and interpolator regressor."""
        hankel, cv, cw = x
        correlation = np.matvec(hankel, cv)
        r_bars = correlation.take(self._branch_rows)  # lanes + (n_branches, rank)
        y_all = np.matvec(r_bars, cw)
        e_all = np.asarray(d, dtype=np.complex128)[..., None] - y_all
        b = (np.abs(e_all) ** 2).argmin(-1)
        winner = b + self._first_branch
        rows = self._flat_rows.take(winner, 0)
        # interpolator regressor: the winner's Hankel rows, transposed
        u = np.matvec(hankel.reshape(-1, self.interp_len).take(rows, 0).mT, cw)
        return y_all.take(winner), e_all.take(winner), b, correlation.take(rows), u

    def _commit(self, e, b_opt, r_bar, u) -> None:
        ce = np.conj(e)
        v, w_bar = self.v, self.w_bar
        v += (self.eta * ce)[..., None] * u
        w_bar += (self.mu * ce)[..., None] * r_bar
        self.last_b_opt = b_opt
