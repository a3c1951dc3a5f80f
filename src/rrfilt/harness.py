"""Experiment orchestration: seeded Monte-Carlo BER runs, sweeps, and the CLI.

A run streams packets of QPSK symbols through the downlink model and one
receiver scheme, averaging per-symbol statistics over independent seeded
runs (run ``i`` uses generator seed ``base_seed + i``, so results are
reproducible bit for bit and independent of how many runs execute in
parallel).  ``run_experiment`` and ``snr_sweep`` share one Monte-Carlo
engine: one work unit per run index runs that run at every SNR point from
one draw of its signal and noise (common random numbers), at most one
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
row of ``_SCHEMES`` (filter class, mixing tree, record slot of each node),
and the built scheme counts its own operations (``ops``).

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
import cmath
import csv
import ctypes
import dataclasses
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import yaml

from .cdma import (
    CdmaConfig,
    ClarkeChannel,
    MmseReceiver,
    detect_qpsk,
    generate_received,
    generate_signatures,
    qpsk_symbols,
)
from .combiners import Clms, Combiner, SchemeA, SchemeB
from .filters import FullRankLms, JidfFilter


class _Scheme(NamedTuple):
    leaf: type | None  # constituent filter class; None for the MMSE receiver
    tree: type | None = None  # mixing tree over the constituents, if any
    # record slot of each of the tree's nodes, in node order: 0, 1, 2 are the
    # lambda_a, lambda_b, lambda_c columns and the mu_a, mu_b, mu_c steps
    slots: tuple[int, ...] = ()


_SCHEMES = {
    "fullrank": _Scheme(FullRankLms),
    "clms": _Scheme(FullRankLms, Clms, (0,)),
    "jidf": _Scheme(JidfFilter),
    "scheme_a": _Scheme(JidfFilter, SchemeA, (0, 1, 2)),
    "scheme_b": _Scheme(JidfFilter, SchemeB, (2,)),
    "mmse": _Scheme(None),
}
SCHEMES = tuple(_SCHEMES)


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
class CombinerSteps:
    """Step sizes of the combination nodes (only the nodes a scheme actually
    has are read)."""

    mu_a: float = 0.25
    mu_b: float = 0.25
    mu_c: float = 0.25


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
    combiners: CombinerSteps = field(default_factory=CombinerSteps)
    u_max: float = 4.0
    out: str | None = None  # default CSV path; the CLI --out flag overrides

    def validate(self) -> None:
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
        n_nodes = len(spec.tree.NODES) if spec.tree else 0
        n_filters = 0 if spec.leaf is None else n_nodes + 1
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
    of the scheme output.  Mixing trajectories and branch statistics are
    ``None`` for schemes that do not have them.  Runs that diverge (see
    :func:`_run_point`) are excluded from every average and counted.
    ``wall_time`` is the elapsed seconds of the call that produced the
    record: for a sweep, the whole sweep.
    """

    scheme: str
    n_symbols: int
    n_runs: int
    diverged_runs: int
    cumulative_ber: np.ndarray
    mse: np.ndarray
    lambda_a: np.ndarray | None
    lambda_b: np.ndarray | None
    lambda_c: np.ndarray | None
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
    "path_profile_db": ("path_profile_db", (float,)),
}
_BRANCH_KEYS = {"mu": float, "rank": int, "interp_len": int, "eta": float}
_COMBINER_KEYS = {"mu_a", "mu_b", "mu_c"}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


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

    cdma_data = data.get("cdma", {})
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

    branch_data = data.get("branches")
    if branch_data is None:
        branch_data = []
    if not isinstance(branch_data, (list, tuple)):
        raise ConfigError(f"branches must be a list of mappings, got {branch_data!r}")
    branches = []
    for i, entry in enumerate(branch_data):
        if not isinstance(entry, dict):
            raise ConfigError(f"branch {i} must be a mapping")
        _reject_unknown(entry, _BRANCH_KEYS, f"branch {i}")
        if entry.get("mu") is None:
            raise ConfigError(f"branch {i} needs a mu")
        branches.append(BranchParams(**{
            k: None if v is None else _convert(_BRANCH_KEYS[k], v, f"branches[{i}].{k}")
            for k, v in entry.items()
        }))

    comb_data = data.get("combiners")
    if comb_data is None:
        comb_data = {}
    if not isinstance(comb_data, dict):
        raise ConfigError("combiners section must be a mapping")
    _reject_unknown(comb_data, _COMBINER_KEYS, "combiners")
    combiners = CombinerSteps(**{
        k: _convert(float, v, f"combiners.{k}") for k, v in comb_data.items()
    })

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


def _build_scheme(cfg: ExperimentConfig, signatures=None, gains=None, noise_var=None):
    """A fresh instance of the configured scheme: one filter, a mixing tree
    whose nodes take the step sizes of their slots (``mu_a``, ``mu_b``,
    ``mu_c``), or the MMSE receiver bound to one run's signatures and channel
    gains and one noise variance (only the receiver reads those three)."""
    spec = _SCHEMES[cfg.scheme]
    if spec.leaf is None:
        return MmseReceiver(cfg.cdma, signatures, gains, noise_var)
    m = cfg.cdma.window_len
    if spec.leaf is JidfFilter:
        filters = [
            JidfFilter(m, b.interp_len, b.rank, cfg.n_branches, b.eta, b.mu)
            for b in cfg.branches
        ]
    else:
        filters = [FullRankLms(m, b.mu) for b in cfg.branches]
    if spec.tree is None:
        return filters[0]
    steps = (cfg.combiners.mu_a, cfg.combiners.mu_b, cfg.combiners.mu_c)
    return spec.tree(filters, [steps[s] for s in spec.slots], u_max=cfg.u_max)


def complexity_report(cfg: ExperimentConfig) -> tuple[int, int] | None:
    """Per-symbol real additions and multiplications of ``cfg``'s scheme
    (validated first), as its filters count them (``ops``); ``None`` for the
    MMSE receiver, which does not adapt."""
    cfg.validate()
    if _SCHEMES[cfg.scheme].leaf is None:
        return None
    return _build_scheme(cfg).ops


@dataclass
class _RunResult:
    """One run at one SNR point.  A diverged run's arrays stop where it
    diverged; the reduction reads only its flag."""

    errors: np.ndarray  # (n_symbols,) uint8 slicer-decision errors
    sq_err: np.ndarray  # (n_symbols,) |d - y|^2
    lambdas: np.ndarray  # (n_symbols, n_nodes) mixing values, in node order
    b_opt: np.ndarray  # (n_symbols,) first constituent branch; empty without branches
    branch_hist: np.ndarray  # (n_branches,) selections over all constituents
    diverged: bool


def _single_run(
    cfg: ExperimentConfig, noise_vars: tuple[float, ...], run_idx: int
) -> list[_RunResult]:
    """Run ``run_idx`` at each noise variance in turn, one result each.

    The run's signatures, channel, symbols and noise are drawn once, from the
    generator seeded ``cfg.seed + run_idx``; the points differ only in the
    noise scale, and each starts from a freshly built scheme.
    """
    rng = np.random.default_rng(cfg.seed + run_idx)
    cdma = cfg.cdma
    signatures = generate_signatures(cdma.n_users, cdma.n_chips, rng)
    channel = ClarkeChannel(
        cdma.n_paths, cdma.doppler, rng, profile_db=cdma.path_profile_db
    )
    symbols = qpsk_symbols(rng, cdma.n_users, cfg.n_symbols)
    gains = channel.run(cfg.n_symbols)
    received = generate_received(cdma, signatures, gains, symbols, rng, noise_vars)
    return [
        _run_point(cfg, symbols[0], block, _build_scheme(cfg, signatures, gains, noise_var))
        for block, noise_var in zip(received, noise_vars)
    ]


def _run_point(cfg, desired_user, received, scheme) -> _RunResult:
    """One run's symbol loop at one noise variance, through ``scheme``.  The
    run diverges, and stops, at its first symbol whose output or squared
    error is not finite (overflow is expected for aggressive step sizes)."""
    n = cfg.n_symbols
    supervised_until = n if cfg.train_mode == "supervised" else cfg.train_symbols
    # per-symbol bookkeeping in lists, made arrays once per run
    errors, sq_err, lambdas, b_opt, picks = [], [], [], [], []
    diverged = False

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            # past training, the scheme decides on its own output
            res = scheme.step(
                received[i], desired_user[i] if i < supervised_until else detect_qpsk
            )
            y = res.y
            err_sq = float(np.abs(np.complex128(res.e)) ** 2)
            if not (cmath.isfinite(y) and math.isfinite(err_sq)):
                diverged = True
                break
            errors.append(detect_qpsk(y) != desired_user[i])
            sq_err.append(err_sq)
            lambdas.append(res.lambdas)
            if res.branches:
                b_opt.append(res.branches[0])
                picks.extend(res.branches)

    return _RunResult(
        errors=np.array(errors, dtype=np.uint8),
        sq_err=np.array(sq_err, dtype=np.float64),
        lambdas=np.array(lambdas),
        b_opt=np.array(b_opt, dtype=np.int64),
        branch_hist=np.bincount(
            np.array(picks, dtype=np.int64), minlength=cfg.n_branches
        ),
        diverged=diverged,
    )


# ---------------------------------------------------------------------------
# the Monte-Carlo engine and its reduction
# ---------------------------------------------------------------------------


def _worker_count(n_runs: int) -> int:
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
    return max(1, min(workers, n_runs))


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


def _monte_carlo(points: list[ExperimentConfig]) -> list[ExperimentRecord]:
    """Run and reduce every point of ``points``, configs that differ at most
    in ``cdma.snr_db``; one record per point, in order.

    Every point is validated before any work starts.  One work unit per run
    index runs that run at every point (:func:`_single_run`).  With more
    than one worker and more than one run, the units go to one process pool
    for the whole call, whose workers run BLAS on one thread
    (:func:`_one_blas_thread`); otherwise they run in order in this process.  Each
    point's runs are reduced in index order, so the records do not depend on
    the worker count, and each is bit for bit the record of that point alone.
    Every record's ``wall_time`` is the elapsed time of the whole call.
    """
    for point in points:
        point.validate()
    if not points:
        return []
    t0 = time.perf_counter()
    cfg = points[0]
    noise_vars = tuple(point.cdma.noise_variance for point in points)
    n_runs = cfg.n_runs
    workers = _worker_count(n_runs)
    if workers > 1 and n_runs > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            runs = list(
                pool.map(_single_run, [cfg] * n_runs, [noise_vars] * n_runs, range(n_runs))
            )
    else:
        runs = [_single_run(cfg, noise_vars, i) for i in range(n_runs)]
    records = [_reduce(point, [run[k] for run in runs]) for k, point in enumerate(points)]
    wall_time = time.perf_counter() - t0
    for record in records:
        record.wall_time = wall_time
    return records


def _reduce(cfg: ExperimentConfig, runs: list[_RunResult]) -> ExperimentRecord:
    """Aggregate one point's runs, given in run-index order (``wall_time``
    is left for the caller)."""
    good = [r for r in runs if not r.diverged]
    diverged = cfg.n_runs - len(good)
    n = cfg.n_symbols
    spec = _SCHEMES[cfg.scheme]
    reduced_rank = spec.leaf is JidfFilter

    if good:
        err_counts = np.sum([r.errors for r in good], axis=0).astype(np.float64)
        cumulative = np.cumsum(err_counts) / (np.arange(1, n + 1) * len(good))
        mse = np.mean([r.sq_err for r in good], axis=0)
        lam = np.mean([r.lambdas for r in good], axis=0)  # (n, n_nodes)
        hist = np.sum([r.branch_hist for r in good], axis=0)
        per_run = np.array(
            [r.errors.sum() / n if not r.diverged else np.nan for r in runs]
        )
        if reduced_rank:
            stacked = np.stack([r.b_opt for r in good])  # (runs, n)
            counts = np.zeros((cfg.n_branches, n), dtype=np.int64)
            cols = np.broadcast_to(np.arange(n), stacked.shape)
            np.add.at(counts, (stacked, cols), 1)
            mode = counts.argmax(axis=0)
        else:
            mode = None
    else:
        cumulative = np.full(n, np.nan)
        mse = np.full(n, np.nan)
        lam = np.full((n, len(spec.slots)), np.nan)
        hist = np.zeros(cfg.n_branches, dtype=np.int64)
        per_run = np.full(cfg.n_runs, np.nan)
        mode = None

    # node k's mixing goes to column slots[k], each copied out, so a record
    # does not pin the whole stack
    columns = [None] * 3
    for k, slot in enumerate(spec.slots):
        columns[slot] = lam[:, k].copy()
    lambda_a, lambda_b, lambda_c = columns
    return ExperimentRecord(
        scheme=cfg.scheme,
        n_symbols=n,
        n_runs=cfg.n_runs,
        diverged_runs=diverged,
        cumulative_ber=cumulative,
        mse=mse,
        lambda_a=lambda_a,
        lambda_b=lambda_b,
        lambda_c=lambda_c,
        b_opt_mode=mode,
        branch_hist=hist if reduced_rank else None,
        per_run_ber=per_run,
        final_ber=float(cumulative[-1]) if n else float("nan"),
        wall_time=math.nan,
        complexity=complexity_report(cfg),
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    """Run the configured Monte-Carlo experiment and aggregate it.

    Run ``i`` draws everything (signatures, path placement, fading, symbols,
    noise) from a generator seeded with ``cfg.seed + i``; the aggregation
    reduces runs in index order, so records are bit-for-bit reproducible for
    a given configuration regardless of worker count.  This is the one-point
    case of :func:`snr_sweep`'s engine.
    """
    return _monte_carlo([cfg])[0]


def snr_sweep(cfg: ExperimentConfig, snr_list) -> list[ExperimentRecord]:
    """The experiment at each SNR point, with shared per-run seeds, so points
    are directly comparable (common random numbers): run ``i`` sees the same
    signatures, fading, symbols and noise draws at every point, only scaled
    to the point's noise variance.  Each record is bit for bit what
    :func:`run_experiment` gives at that point alone; the runs are drawn once
    and share one process pool across all points."""
    points = []
    for snr in snr_list:
        try:
            cdma = dataclasses.replace(cfg.cdma, snr_db=float(snr))
        except ValueError as exc:
            raise ConfigError(f"SNR point {snr!r}: {exc}") from exc
        points.append(dataclasses.replace(cfg, cdma=cdma))
    return _monte_carlo(points)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.10g}"


def write_csv(record: ExperimentRecord, path) -> None:
    """Per-symbol trajectories, one row per symbol (1-based index), ten
    significant digits; mixing/branch columns are empty when the scheme has
    none."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["symbol", "mse", "ber", "lambda_a", "lambda_b", "lambda_c", "b_opt_mode"]
            )
            for i in range(record.n_symbols):
                writer.writerow(
                    [
                        i + 1,
                        _fmt(record.mse[i]),
                        _fmt(record.cumulative_ber[i]),
                        _fmt(None if record.lambda_a is None else record.lambda_a[i]),
                        _fmt(None if record.lambda_b is None else record.lambda_b[i]),
                        _fmt(None if record.lambda_c is None else record.lambda_c[i]),
                        "" if record.b_opt_mode is None else int(record.b_opt_mode[i]),
                    ]
                )
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def write_sweep_csv(snr_list, records, path) -> None:
    """One row per SNR point, from its record: final BER and final-symbol MSE."""
    if len(snr_list) != len(records):
        raise ValueError(f"{len(snr_list)} SNR points but {len(records)} records")
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["snr_db", "ber", "mse", "diverged_runs"])
            for snr, rec in zip(snr_list, records):
                writer.writerow(
                    [_fmt(float(snr)), _fmt(rec.final_ber), _fmt(rec.mse[-1]),
                     rec.diverged_runs]
                )
    except OSError as exc:
        raise OSError(f"cannot write sweep to {path}: {exc}") from exc


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

