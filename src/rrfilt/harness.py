"""Experiment orchestration: seeded Monte-Carlo BER runs, sweeps, and the CLI.

A run streams packets of QPSK symbols through the downlink model and one
receiver scheme, averaging per-symbol statistics over independent seeded
runs (run ``i`` uses generator seed ``base_seed + i``, so results are
reproducible bit for bit and independent of how many runs execute in
parallel).  ``run_experiment`` and ``snr_sweep`` share one Monte-Carlo
engine: a work unit of two consecutive runs (``RUNS_PER_UNIT``, for one
point and a sweep alike) draws each run's signal and noise once and runs it
at every SNR point (common random numbers), every (run, point) pair a lane
of one bank that steps all lanes one symbol per numpy call.  Each run's
received windows are generated slice by slice as the lanes step, so a lane
costs about one slice of windows in memory, not a whole block.  At most one
process pool serves the whole call, and each point's runs are reduced in
index order.  Supported schemes:

==============  ==============================================================
``fullrank``    single LMS filter over the whole window
``clms``        convex combination of two full-tap LMS filters
``jidf``        single reduced-rank interpolation/decimation/filtering filter
``scheme_a``    tree combination of four reduced-rank filters
``scheme_b``    combination of two reduced-rank filters
``mmse``        clairvoyant MMSE filter recomputed every symbol
==============  ==============================================================

Every scheme, the non-adaptive MMSE receiver included, is built by one
builder and runs through the same ``step(r, d)`` call.  Each scheme is its
row of ``_SCHEMES`` (filter class, mixing tree, name of each mixing node),
and the built scheme counts its own operations (``ops``).  Every per-node
value is keyed by the node's name: the config's ``combiners`` step size
``mu_<node>`` and the run CSV's ``lambda_<node>`` column; a record holds
the mixing values as one ``lambdas`` array in node order.

Training is supervised by default (the desired response is the true symbol
for the whole packet; errors are still counted on the slicer decisions).
``train_mode: semi`` switches to decision-directed operation after
``train_symbols`` supervised symbols: the harness then passes the slicer
``detect_qpsk`` as ``d``, and the scheme slices its own pre-update output
and adapts toward that decision within the one ``step`` call, building one
regressor per constituent per symbol.

The ``RRFILT_THREADS`` environment variable caps the number of worker
processes (``0`` or unset means one per CPU).  A record's ``wall_time`` is
the elapsed time of the call that produced it, shared by every point of a
sweep.
"""

from __future__ import annotations

import argparse
import array
import cmath
import csv
import ctypes
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import yaml

from .cdma import (
    _KIND_NAMES,
    CdmaConfig,
    ClarkeChannel,
    MmseReceiver,
    _check_kind,
    detect_qpsk,
    generate_received,
    generate_signatures,
    qpsk_symbols,
)
from .combiners import Clms, Combiner, SchemeA, SchemeB
from .filters import FullRankLms, JidfFilter, StepResult


class _Scheme(NamedTuple):
    leaf: type | None  # constituent filter class; None for the MMSE receiver
    tree: type | None = None  # mixing tree over the constituents, if any
    nodes: tuple[str, ...] = ()  # name of each of the tree's nodes, in node order


_SCHEMES = {
    "fullrank": _Scheme(FullRankLms),
    "clms": _Scheme(FullRankLms, Clms, ("a",)),
    "jidf": _Scheme(JidfFilter),
    "scheme_a": _Scheme(JidfFilter, SchemeA, ("a", "b", "c")),
    "scheme_b": _Scheme(JidfFilter, SchemeB, ("c",)),
    "mmse": _Scheme(None),
}
SCHEMES = tuple(_SCHEMES)
# Consecutive runs per work unit, for one point and a sweep alike; a unit
# steps its runs at every point as lanes of one bank.  Wider units step more
# lanes per numpy call; the README has the measured trade.
RUNS_PER_UNIT = 2
# step size of a mixing node whose mu_<node> the config leaves out
_NODE_MU = 0.25


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configurations."""


@dataclass
class BranchParams:
    """Parameters of one constituent filter.

    Reduced-rank constituents need all four fields; ``fullrank``/``clms``
    constituents are plain LMS filters and take only ``mu``.
    """

    mu: float
    rank: int | None = None
    interp_len: int | None = None
    eta: float | None = None


@dataclass
class ExperimentConfig:
    scheme: str
    cdma: CdmaConfig = field(default_factory=CdmaConfig)
    n_symbols: int = 1500
    n_runs: int = 100
    seed: int = 0
    train_mode: str = "supervised"
    train_symbols: int = 200
    n_branches: int = 8
    branches: list[BranchParams] = field(default_factory=list)
    # mu_<node> -> step size; a node without a key takes _NODE_MU
    combiners: dict[str, float] = field(default_factory=dict)
    u_max: float = 4.0
    out: str | None = None  # default CSV path; the CLI --out flag overrides

    def validate(self) -> None:
        # types first: each field as config_from_dict makes it (never converted)
        try:
            for key, kind in _TOP_SCALARS.items():
                _check_kind(kind, getattr(self, key), key)
            if self.out is not None:
                _check_kind(str, self.out, "out")
            for key, kind in (("cdma", CdmaConfig), ("branches", list), ("combiners", dict)):
                _check_kind(kind, getattr(self, key), key)
            for i, b in enumerate(self.branches):
                _check_kind(BranchParams, b, f"branches[{i}]")
                for key, kind in _BRANCH_KEYS.items():
                    if getattr(b, key) is not None or key == "mu":
                        _check_kind(kind, getattr(b, key), f"branches[{i}].{key}")
            for key, value in self.combiners.items():
                _check_kind(float, value, f"combiners.{key}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.n_symbols < 1 or self.n_runs < 1:
            raise ConfigError("n_symbols and n_runs must be >= 1")
        if max(self.n_symbols, self.n_runs) > sys.maxsize:
            raise ConfigError(f"n_symbols and n_runs must be <= {sys.maxsize}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.train_mode not in ("supervised", "semi"):
            raise ConfigError("train_mode must be 'supervised' or 'semi'")
        if self.train_mode == "semi" and self.train_symbols < 0:
            raise ConfigError("train_symbols must be >= 0")
        # every scheme's window must fit an array index: the MMSE receiver
        # is not built here
        window_len = self.cdma.window_len
        if window_len > sys.maxsize:
            raise ConfigError(
                f"scheme {self.scheme!r}: window length chips + paths - 1 must be "
                f"<= {sys.maxsize}"
            )
        # one n_branches rule for every scheme: a reduced-rank bank's patterns
        # start at distinct offsets inside the window, and every run keeps a
        # histogram of n_branches entries
        if not 1 <= self.n_branches <= window_len:
            raise ConfigError(
                f"n_branches must satisfy 1 <= n_branches <= window length "
                f"{window_len}, got {self.n_branches}"
            )
        try:
            Combiner(0.0, u_max=self.u_max)  # the one u_max rule, for every scheme
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        spec = _SCHEMES[self.scheme]
        takes = [f"mu_{node}" for node in spec.nodes]
        unknown = set(self.combiners).difference(takes)
        if unknown:
            raise ConfigError(
                f"unknown combiners keys {sorted(unknown, key=str)} for scheme "
                f"{self.scheme!r}, which takes {takes or 'none'}"
            )
        n_filters = 0 if spec.leaf is None else len(spec.nodes) + 1
        if len(self.branches) != n_filters:
            raise ConfigError(
                f"scheme {self.scheme!r} needs exactly {n_filters} branch "
                f"entries, got {len(self.branches)}"
            )
        reduced_rank = spec.leaf is JidfFilter
        takes = "rank, interp_len, eta and mu" if reduced_rank else "only mu"
        for i, b in enumerate(self.branches):
            # rank, interp_len and eta are given exactly for reduced-rank filters
            if [v is not None for v in (b.rank, b.interp_len, b.eta)] != [reduced_rank] * 3:
                raise ConfigError(f"branch {i}: scheme {self.scheme!r} constituents take {takes}")
        if n_filters:
            try:
                _build_scheme(self)
            # overflow: sizes past any index; memory: sizes past this machine
            except (ValueError, OverflowError, MemoryError) as exc:
                raise ConfigError(f"scheme {self.scheme!r}: {exc}") from exc


@dataclass
class ExperimentRecord:
    """Run-averaged per-symbol trajectories plus summary scalars.

    ``cumulative_ber[i]`` is the error ratio of the slicer decisions over
    symbols ``0..i``; ``mse[i]`` the run-averaged instantaneous squared error
    of the scheme output.  ``lambdas[i, k]`` is the run-averaged mixing
    value of the scheme's node ``k`` (``(n_symbols, 0)`` without nodes);
    branch statistics are ``None`` for schemes that do not have them.  Runs
    that diverge (see :func:`_run_lanes`) are excluded from every average
    and counted.
    ``wall_time`` is the elapsed seconds of the call that produced the
    record: for a sweep, the whole sweep.
    """

    scheme: str
    n_symbols: int
    n_runs: int
    diverged_runs: int
    cumulative_ber: np.ndarray
    mse: np.ndarray
    lambdas: np.ndarray
    b_opt_mode: np.ndarray | None
    branch_hist: np.ndarray | None
    per_run_ber: np.ndarray
    final_ber: float
    wall_time: float
    complexity: tuple[int, int] | None


# ---------------------------------------------------------------------------
# configuration file handling
# ---------------------------------------------------------------------------

# config key -> conversion; absent keys take the dataclass defaults
_TOP_SCALARS = {
    "scheme": str, "n_symbols": int, "n_runs": int, "seed": int, "train_mode": str,
    "train_symbols": int, "n_branches": int, "u_max": float,
}
_TOP_KEYS = {"cdma", "branches", "combiners", "out", *_TOP_SCALARS}
# cdma key -> (CdmaConfig field, conversion); a null value counts as absent
_CDMA_KEYS = {
    "users": ("n_users", int),
    "chips": ("n_chips", int),
    "paths": ("n_paths", int),
    "snr_db": ("snr_db", float),
    "doppler": ("doppler", float),
    "amplitudes": ("amplitudes", (float,)),
}
_BRANCH_KEYS = {"mu": float, "rank": int, "interp_len": int, "eta": float}


def _reject_unknown(mapping: dict, allowed, where: str) -> None:
    unknown = set(mapping).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown, key=str)}")


def _convert(kind, value, key: str):
    """``kind(value)`` for the config value at ``key``; a value that does not
    convert exactly raises a :class:`ConfigError` naming the key.  ``(kind,)``
    converts a list entry by entry.  Strings take only strings, numbers
    refuse booleans, and integers refuse non-integral floats, which ``int``
    would truncate."""
    if isinstance(kind, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(_convert(kind[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    bad = not isinstance(value, str) if kind is str else isinstance(value, bool)
    try:
        converted = kind(value)
        if kind is int and isinstance(value, float) and converted != value:
            bad = True
    except (TypeError, ValueError, OverflowError):
        bad = True
    if bad:
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return converted


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate an :class:`ExperimentConfig` from plain mappings
    (the parsed form of a config file).  Unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    _reject_unknown(data, _TOP_KEYS, "configuration")
    if "scheme" not in data:
        raise ConfigError("configuration must name a scheme")

    cdma_data = {} if data.get("cdma") is None else data["cdma"]
    if not isinstance(cdma_data, dict):
        raise ConfigError("cdma section must be a mapping")
    _reject_unknown(cdma_data, _CDMA_KEYS, "cdma")
    cdma_args = {
        _CDMA_KEYS[k][0]: _convert(_CDMA_KEYS[k][1], v, f"cdma.{k}")
        for k, v in cdma_data.items()
        if v is not None
    }
    try:
        cdma = CdmaConfig(**cdma_args)
    except ValueError as exc:
        raise ConfigError(f"cdma section: {exc}") from exc

    branch_data = [] if data.get("branches") is None else data["branches"]
    if not isinstance(branch_data, (list, tuple)):
        raise ConfigError(f"branches must be a list of mappings, got {branch_data!r}")
    branches = []
    for i, entry in enumerate(branch_data):
        if not isinstance(entry, dict):
            raise ConfigError(f"branch {i} must be a mapping")
        _reject_unknown(entry, _BRANCH_KEYS, f"branch {i}")
        # a missing mu is None, which validate() refuses
        branches.append(BranchParams(**{
            k: None if v is None else _convert(_BRANCH_KEYS[k], v, f"branches[{i}].{k}")
            for k, v in {"mu": None, **entry}.items()
        }))

    comb_data = {} if data.get("combiners") is None else data["combiners"]
    if not isinstance(comb_data, dict):
        raise ConfigError("combiners section must be a mapping")
    # validate() rejects the keys of nodes the scheme does not have
    combiners = {k: _convert(float, v, f"combiners.{k}") for k, v in comb_data.items()}

    cfg = ExperimentConfig(
        cdma=cdma,
        branches=branches,
        combiners=combiners,
        out=None if data.get("out") is None else _convert(str, data["out"], "out"),
        **{k: _convert(kind, data[k], k) for k, kind in _TOP_SCALARS.items() if k in data},
    )
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    """Parse a UTF-8 YAML experiment configuration; fails fast on unknown
    keys."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = yaml.safe_load(handle)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if data is None:
        raise ConfigError(f"{path}: empty configuration")
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# single Monte-Carlo run
# ---------------------------------------------------------------------------


def _build_scheme(cfg: ExperimentConfig, draws=None):
    """A fresh instance of the configured scheme: one filter, or a mixing
    tree whose nodes take their ``mu_<node>`` step sizes.  ``draws`` holds
    one run's ``(signatures, gains, noise_var)`` per lane: the scheme is
    then a bank of that many lanes (see :mod:`rrfilt.filters`), and the MMSE
    receiver, which needs the draws, is one receiver per lane."""
    spec = _SCHEMES[cfg.scheme]
    if spec.leaf is None:
        return _Receivers([MmseReceiver(cfg.cdma, *draw) for draw in draws])

    def per_lane(value):
        return value if draws is None else [value] * len(draws)

    m = cfg.cdma.window_len
    if spec.leaf is JidfFilter:
        filters = [
            JidfFilter(m, b.interp_len, b.rank, cfg.n_branches, per_lane(b.eta), per_lane(b.mu))
            for b in cfg.branches
        ]
    else:
        filters = [FullRankLms(m, per_lane(b.mu)) for b in cfg.branches]
    if spec.tree is None:
        return filters[0]
    mus = [cfg.combiners.get(f"mu_{node}", _NODE_MU) for node in spec.nodes]
    return spec.tree(filters, mus, u_max=cfg.u_max)


class _Receivers:
    """MMSE receivers, one per lane, behind a bank's ``step``: a receiver
    does not adapt, so its lanes share no arithmetic (one solve per lane and
    symbol)."""

    def __init__(self, receivers: list[MmseReceiver]):
        self.receivers = receivers

    def step(self, r, d) -> list[StepResult]:
        ds = [d] * len(self.receivers) if callable(d) else d
        return [rx.step(w, v) for rx, w, v in zip(self.receivers, r, ds)]


def complexity_report(cfg: ExperimentConfig) -> tuple[int, int] | None:
    """Per-symbol real additions and multiplications of ``cfg``'s scheme
    (validated first), as its filters count them (``ops``); ``None`` for the
    MMSE receiver, which does not adapt."""
    cfg.validate()
    return _complexity(cfg)


def _complexity(cfg: ExperimentConfig) -> tuple[int, int] | None:
    """:func:`complexity_report` of a config already validated."""
    if _SCHEMES[cfg.scheme].leaf is None:
        return None
    return _build_scheme(cfg).ops


@dataclass
class _RunResult:
    """One run at one SNR point, as its steps reported it.  A diverged run's
    rows stop where it diverged; the reduction reads only its flag and columns."""

    errors: np.ndarray  # (n_symbols,) uint8 slicer-decision errors
    sq_err: np.ndarray  # (n_symbols,) |d - y|^2
    lambdas: np.ndarray  # (n_symbols, n_nodes) mixing values, in node order
    branches: np.ndarray  # (n_symbols, constituents) int64 winning branches, or (n_symbols, 0)
    diverged: bool


def _single_run(
    cfg: ExperimentConfig, noise_vars: tuple[float, ...], runs: range
) -> list[list[_RunResult]]:
    """One work unit: each run of ``runs`` (consecutive run indices) at each
    noise variance; one list per run, one result per point.

    Each run's signatures, channel, symbols and noise are drawn from the
    generator seeded ``cfg.seed + i``, as the run alone would draw them; its
    points differ only in the noise scale.  Every (run, point) pair is one
    lane of one freshly built scheme (:func:`_run_lanes`).  Each run's
    received windows come slice by slice from its own
    :func:`~rrfilt.cdma.generate_received` iterator as the lanes step, so
    the unit holds about one slice of windows per lane, not a whole block.
    """
    cdma = cfg.cdma
    draws, received, desired = [], [], []
    for i in runs:
        rng = np.random.default_rng(cfg.seed + i)
        signatures = generate_signatures(cdma.n_users, cdma.n_chips, rng)
        channel = ClarkeChannel(cdma.n_paths, cdma.doppler, rng)
        symbols = qpsk_symbols(rng, cdma.n_users, cfg.n_symbols)
        gains = channel.run(cfg.n_symbols)
        received.append(generate_received(cdma, signatures, gains, symbols, rng, noise_vars))
        want = symbols[0].tolist()
        for noise_var in noise_vars:
            draws.append((signatures, gains, noise_var))
            desired.append(want)
    scheme = _build_scheme(cfg, draws)
    del draws  # the scheme holds what it needs
    results = _run_lanes(cfg, received, desired, scheme)
    k = len(noise_vars)
    return [results[j : j + k] for j in range(0, len(results), k)]


def _run_lanes(cfg, received, desired, scheme) -> list[_RunResult]:
    """The symbol loop of every lane, through the bank ``scheme``.
    ``received`` holds one iterator of slices per run, each slice a
    ``(points, rows, window_len)`` array; the lanes are the runs' points in
    order, and lane ``t`` filters its windows toward the desired user's
    symbols ``desired[t]``.  The next slice of every run is taken when the
    current one is used up, so the loop holds one slice per lane.

    A lane diverges at its first symbol whose output or squared error is not
    finite (overflow is expected for aggressive step sizes); its record
    stops there, while its bank lane runs on beside the others, which it
    cannot reach.  The loop ends when every lane has diverged.

    A lane records what its steps report, its branches as ``(n_symbols,
    constituents)``; the node and constituent counts come from the steps."""
    n = cfg.n_symbols
    supervised_until = n if cfg.train_mode == "supervised" else cfg.train_symbols
    # per-symbol bookkeeping in typed buffers (8 bytes a value at most)
    errors, sq_err, lambdas, branches = ([array.array(c) for _ in desired] for c in "Bddq")
    live = list(range(len(desired)))
    blocks, lo, hi = [], 0, 0  # every lane's current slice, of symbols lo .. hi - 1

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            if i == hi:
                blocks = [block for run in received for block in next(run)]
                lo, hi = i, i + len(blocks[0])
            windows = [block[i - lo] for block in blocks]
            # past training, the scheme decides on its own output
            d = [want[i] for want in desired] if i < supervised_until else detect_qpsk
            results = scheme.step(windows, d)
            for t in live.copy():
                res = results[t]
                y = res.y
                err_sq = float(np.abs(np.complex128(res.e)) ** 2)
                if not (cmath.isfinite(y) and math.isfinite(err_sq)):
                    live.remove(t)
                    continue
                errors[t].append(detect_qpsk(y) != desired[t][i])
                sq_err[t].append(err_sq)
                lambdas[t].extend(res.lambdas)
                branches[t].extend(res.branches)
            if not live:
                break
    del blocks, windows  # the windows are done with before the records are made

    n_nodes, n_filters = len(results[0].lambdas), len(results[0].branches)
    return [
        _RunResult(
            errors=np.array(errors[t], dtype=np.uint8),
            sq_err=np.array(sq_err[t], dtype=np.float64),
            lambdas=np.array(lambdas[t], dtype=np.float64).reshape(len(sq_err[t]), n_nodes),
            branches=np.array(branches[t], dtype=np.int64).reshape(len(sq_err[t]), n_filters),
            diverged=t not in live,
        )
        for t in range(len(desired))
    ]


# ---------------------------------------------------------------------------
# the Monte-Carlo engine and its reduction
# ---------------------------------------------------------------------------


def _worker_count(n_units: int) -> int:
    raw = os.environ.get("RRFILT_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ConfigError(f"RRFILT_THREADS must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ConfigError("RRFILT_THREADS must be >= 0")
    workers = os.cpu_count() or 1
    if cap > 0:
        workers = min(workers, cap)
    return max(1, min(workers, n_units))


def _one_blas_thread() -> None:
    """Pool initializer: set the OpenBLAS that numpy loaded to one thread.

    A forked worker keeps numpy's OpenBLAS, already started with one thread
    per CPU, so an environment variable set now would do nothing.  The
    library's own setter is found through numpy's linear-algebra module,
    whose symbol lookup reaches the BLAS it links.  Without one, nothing
    changes."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_", "_64"):
            setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _monte_carlo(cfg: ExperimentConfig, noise_vars: tuple[float, ...]) -> list[ExperimentRecord]:
    """Run and reduce the config ``cfg``, already validated, at each of the
    points' noise variances ``noise_vars`` (its own ``cdma.snr_db`` is not
    read); one record per point, in order.

    The runs go in work units of ``RUNS_PER_UNIT`` consecutive indices (the
    last unit may have fewer), whatever the number of points; a unit runs
    its runs at every point as one bank of lanes (:func:`_single_run`), and
    since its windows come slice by slice, its memory grows by about one
    slice per lane.  With more than one worker and more than one unit, the
    units go to one process pool for the whole call, whose workers run BLAS
    on one thread (:func:`_one_blas_thread`); otherwise they run in order in
    this process.  A lane's arithmetic does not depend on its bank, and each
    point's runs are reduced in index order, so the records do not depend on
    the worker count or the unit size, and each is bit for bit the record of
    that point alone.  Every record's ``wall_time`` and ``complexity`` are
    taken once for the whole call.
    """
    if not noise_vars:
        return []
    t0 = time.perf_counter()
    units = [
        range(i, min(i + RUNS_PER_UNIT, cfg.n_runs))
        for i in range(0, cfg.n_runs, RUNS_PER_UNIT)
    ]
    n_units = len(units)
    workers = _worker_count(n_units)
    if workers > 1 and n_units > 1:
        # imported here: multiprocessing loads only when a pool starts
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            done = list(pool.map(_single_run, [cfg] * n_units, [noise_vars] * n_units, units))
    else:
        done = [_single_run(cfg, noise_vars, unit) for unit in units]
    runs = [run for unit in done for run in unit]
    records = [_reduce(cfg, [run[k] for run in runs]) for k in range(len(noise_vars))]
    wall_time = time.perf_counter() - t0
    complexity = _complexity(cfg)
    for record in records:
        record.wall_time = wall_time
        record.complexity = complexity
    return records


def _reduce(cfg: ExperimentConfig, runs: list[_RunResult]) -> ExperimentRecord:
    """Aggregate one point's runs of ``cfg``, given in run-index order, by one
    path for any number k >= 0 of surviving runs: each mean is the survivors'
    sum divided by k, NaN when none survive.  The node count, and whether the
    scheme has branches, come from the runs' own array shapes (``wall_time``
    and ``complexity`` are left for the caller)."""
    n = cfg.n_symbols
    good = [r for r in runs if not r.diverged]
    k = len(good)

    def stack(name: str) -> np.ndarray:  # the survivors' arrays as one (k, n, ...) array
        ref = getattr(runs[0], name)  # its columns, if any, are every run's
        return np.array([getattr(r, name) for r in good], ref.dtype).reshape(k, n, *ref.shape[1:])

    def mean(total, count) -> np.ndarray:  # np.nan when no run survives (0 / 0 is a -NaN)
        return np.divide(total, count, out=np.full(np.shape(total), np.nan), where=k > 0)

    errors, branches = stack("errors"), stack("branches")
    cumulative = mean(np.cumsum(errors.sum(axis=0).astype(np.float64)), np.arange(1, n + 1) * k)
    hist = mode = None
    if branches.shape[2]:
        hist = np.bincount(branches.reshape(-1), minlength=cfg.n_branches)
        first = branches[:, :, 0]  # (k, n): each run's first constituent
        counts = np.zeros((cfg.n_branches, n), dtype=np.int64)
        np.add.at(counts, (first, np.broadcast_to(np.arange(n), first.shape)), 1)
        mode = counts.argmax(axis=0) if k else None

    return ExperimentRecord(
        scheme=cfg.scheme,
        n_symbols=n,
        n_runs=cfg.n_runs,
        diverged_runs=cfg.n_runs - k,
        cumulative_ber=cumulative,
        mse=mean(stack("sq_err").sum(axis=0), k),
        lambdas=mean(stack("lambdas").sum(axis=0), k),
        b_opt_mode=mode,
        branch_hist=hist,
        per_run_ber=np.array([np.nan if r.diverged else r.errors.sum() / n for r in runs]),
        final_ber=float(cumulative[-1]),
        wall_time=math.nan,
        complexity=None,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    """Run the configured Monte-Carlo experiment and aggregate it.

    Run ``i`` draws everything (signatures, path placement, fading, symbols,
    noise) from a generator seeded with ``cfg.seed + i``; the aggregation
    reduces runs in index order, so records are bit-for-bit reproducible for
    a given configuration regardless of worker count.  This is the one-point
    case of :func:`snr_sweep`'s engine.
    """
    cfg.validate()
    return _monte_carlo(cfg, (cfg.cdma.noise_variance,))[0]


def snr_sweep(cfg: ExperimentConfig, snr_list) -> list[ExperimentRecord]:
    """The experiment at each SNR point, with shared per-run seeds, so points
    are directly comparable (common random numbers): run ``i`` sees the same
    signatures, fading, symbols and noise draws at every point, only scaled
    to the point's noise variance.  Each record is bit for bit what
    :func:`run_experiment` gives at that point alone; the runs are drawn once
    and share one process pool across all points.  The config is validated
    once, and every point's noise variance is read, before any run starts;
    an empty ``snr_list`` runs nothing."""
    cfg.validate()
    noise_vars = []
    for snr in snr_list:
        try:
            noise_vars.append(dataclasses.replace(cfg.cdma, snr_db=float(snr)).noise_variance)
        except ValueError as exc:
            raise ConfigError(f"SNR point {snr!r}: {exc}") from exc
    return _monte_carlo(cfg, tuple(noise_vars))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.10g}"


def write_csv(record: ExperimentRecord, path) -> None:
    """Per-symbol trajectories, one row per symbol (1-based index), ten
    significant digits.  Node ``x``'s mixing values fill column
    ``lambda_x``; mixing columns of nodes the scheme lacks, and the branch
    column of schemes without branches, are empty."""
    nodes = _SCHEMES[record.scheme].nodes
    blank = [""] * record.n_symbols
    columns = [
        range(1, record.n_symbols + 1),
        [_fmt(v) for v in record.mse.tolist()],
        [_fmt(v) for v in record.cumulative_ber.tolist()],
        *(
            [_fmt(v) for v in record.lambdas[:, nodes.index(node)].tolist()]
            if node in nodes else blank
            for node in ("a", "b", "c")
        ),
        blank if record.b_opt_mode is None else record.b_opt_mode.tolist(),
    ]
    header = ["symbol", "mse", "ber", "lambda_a", "lambda_b", "lambda_c", "b_opt_mode"]
    _write_rows(path, "results", header, zip(*columns))


def write_sweep_csv(snr_list, records, path) -> None:
    """One row per SNR point, from its record: final BER and final-symbol MSE."""
    if len(snr_list) != len(records):
        raise ValueError(f"{len(snr_list)} SNR points but {len(records)} records")
    rows = (
        [_fmt(float(snr)), _fmt(rec.final_ber), _fmt(rec.mse[-1]), rec.diverged_runs]
        for snr, rec in zip(snr_list, records)
    )
    _write_rows(path, "sweep", ["snr_db", "ber", "mse", "diverged_runs"], rows)


def _write_rows(path, what: str, header: list[str], rows) -> None:
    """Write the CSV file ``path``; an ``OSError`` names ``what`` and ``path``."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def _cli_config(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _cmd_run(args) -> None:
    cfg = _cli_config(args)
    record = run_experiment(cfg)
    out = args.out or cfg.out or "results.csv"
    write_csv(record, out)
    print(
        f"scheme={record.scheme} runs={record.n_runs} "
        f"(diverged={record.diverged_runs}) symbols={record.n_symbols} "
        f"final_ber={record.final_ber:.4e} wall={record.wall_time:.1f}s"
    )
    print(f"wrote {out}")


def _cmd_sweep(args) -> None:
    cfg = _cli_config(args)
    try:
        snr_list = [float(s) for s in args.snr.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--snr: {exc}") from None
    if not snr_list:
        raise ConfigError("--snr needs at least one value")
    records = snr_sweep(cfg, snr_list)
    out = args.out or cfg.out or "sweep.csv"
    write_sweep_csv(snr_list, records, out)
    for snr, rec in zip(snr_list, records):
        print(f"snr={snr:g}dB final_ber={rec.final_ber:.4e}")
    print(f"wrote {out}")


def _cmd_complexity(args) -> None:
    cfg = _cli_config(args)
    counts = complexity_report(cfg)
    if counts is None:
        raise ConfigError("the MMSE receiver has no adaptation complexity formula")
    print("scheme,additions,multiplications")
    print(f"{cfg.scheme},{counts[0]},{counts[1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rrfilt",
        description="Reduced-rank adaptive filtering BER experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write a per-symbol CSV")
    p_run.add_argument("--config", required=True, help="YAML experiment configuration")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None,
                       help="output CSV path (default: config `out` or results.csv)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="repeat the experiment over SNR points")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--snr", required=True, help="comma-separated dB values")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cx = sub.add_parser("complexity", help="print the scheme's operation counts")
    p_cx.add_argument("--config", required=True)
    p_cx.set_defaults(func=_cmd_complexity)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0

