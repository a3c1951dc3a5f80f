"""rrfilt benchmark: time to a Monte-Carlo BER result, per scheme, by layer.

Run from the root of an rrfilt checkout::

    python3 perfbench/bench.py --workload scheme_a-desk --seed 20240 --seconds 30 --trace 0

Each operation drives the public entry points the way ``rrfilt run`` and
``rrfilt sweep`` do: ``load_config`` (seed injected through the config),
``run_experiment`` or ``snr_sweep``, then ``write_csv`` or
``write_sweep_csv``.  An invocation

1. times fresh interpreters from start until ``run_experiment`` could be
   called (``setup_s``);
2. runs the workload once at the seed of ``reference.json`` and checks its
   outputs against the figures captured there (untimed; it also warms up);
3. for ``--seconds`` seconds, alternates one operation with ``nproc`` pool
   workers and one with a single worker (``RRFILT_THREADS``), all at
   ``--seed``, and checks that every record is bit-identical;
4. with ``--trace 1``, repeats the single-worker operation three times with
   every layer boundary wrapped by :mod:`tracer` and reports the per-layer
   figures of the fastest.

Every timing metric is the best of its run (fastest operation, fastest
probe); medians and quartiles go to the result file.  On a 2-core virtual
machine shared with other tenants, operation times drift with the
neighbours' load by up to 2x over minutes: across ten 30-second runs the
median throughput spread by 28 % (quartile distance over median) while the
best of each run spread by 5-10 %.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count Monte-Carlo runs.  A run fails if it diverges, if its
operation raises, or if its operation fails an output check; any check
failure exits with status 1.  Full results, the environment manifest and
the span trace are written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy loads: with nproc pool
# workers the benchmark then never runs more than nproc threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
REFERENCE_FILE = ROOT / "perfbench" / "reference.json"
PROBE = ROOT / "perfbench" / "setup_probe.py"
SETUP_PROBES = 11
TRACED_OPS = 3

sys.path.insert(0, str(SRC))
try:
    import numpy as np
    from rrfilt import harness
except ImportError as exc:
    raise SystemExit(f"error: cannot import rrfilt from {SRC}: {exc}") from None
if not Path(harness.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: rrfilt was imported from {harness.__file__}, not from {SRC}")

import tracer  # noqa: E402  (needs rrfilt on the path)


# Monte-Carlo runs per operation (the committed configs say 20).  Short
# operations let a 30-second run catch the machine's quiet moments (see the
# module docstring); four runs still give each of two pool workers two.
OP_RUNS = 4


@dataclass(frozen=True)
class Workload:
    """How a workload drives rrfilt; ``BENCHMARK.json`` says why it exists."""

    config: str  # relative to the checkout root
    changes: dict = field(default_factory=dict)  # applied on top of the file
    snr_points: tuple[float, ...] | None = None  # a sweep when set


WORKLOADS = {
    "scheme_a-desk": Workload("configs/scheme_a.yaml", changes={"n_runs": OP_RUNS}),
    "mmse-desk": Workload("configs/mmse.yaml", changes={"n_runs": OP_RUNS}),
    "scheme_b-semi-sweep": Workload(
        "configs/scheme_b.yaml",
        changes={"n_runs": OP_RUNS, "train_mode": "semi", "train_symbols": 200},
        snr_points=(6.0, 12.0),
    ),
}


@dataclass
class Operation:
    """One config-load -> runs -> CSV operation and its outputs."""

    records: list
    wall_s: float
    write_s: float
    cpu_s: float  # user + system time of this process and its reaped workers
    csv_sha256: str = ""
    record_sha256: str = ""

    @property
    def run_symbols(self) -> int:
        return sum(r.n_runs * r.n_symbols for r in self.records)


def _config_changes(wl: Workload, seed: int | None, sizes: dict) -> dict:
    changes = {**wl.changes, **sizes}
    if seed is not None:
        changes["seed"] = seed
    return changes


def run_operation(wl: Workload, changes: dict, threads: int, csv_path: Path) -> Operation:
    """The timed operation.  Entry points are looked up on the module at call
    time, so the tracer's wrappers see them."""
    os.environ["RRFILT_THREADS"] = str(threads)
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    cfg = dataclasses.replace(harness.load_config(ROOT / wl.config), **changes)
    if wl.snr_points is None:
        records = [harness.run_experiment(cfg)]
        t1 = time.perf_counter()
        harness.write_csv(records[0], csv_path)
    else:
        records = harness.snr_sweep(cfg, wl.snr_points)
        t1 = time.perf_counter()
        harness.write_sweep_csv(wl.snr_points, records, csv_path)
    t2 = time.perf_counter()
    return Operation(records, t2 - t0, t2 - t1, _cpu_seconds() - c0)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def record_digest(records) -> str:
    """SHA-256 over every field of the records except the wall time."""
    h = hashlib.sha256()
    for rec in records:
        for f in dataclasses.fields(rec):
            if f.name == "wall_time":
                continue
            value = getattr(rec, f.name)
            h.update(f.name.encode())
            if isinstance(value, np.ndarray):
                h.update(str(value.dtype).encode() + repr(value.shape).encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


def summarize(op: Operation) -> dict:
    """The reference figures of one operation."""
    return {
        "points": [
            {
                "final_ber": rec.final_ber,
                "final_mse": float(rec.mse[-1]),
                "diverged_runs": rec.diverged_runs,
                "branch_hist": None if rec.branch_hist is None else rec.branch_hist.tolist(),
            }
            for rec in op.records
        ],
        "csv_sha256": op.csv_sha256,
    }


def invariant_problems(op: Operation, n_constituents: int) -> list[str]:
    """Checks that hold for every seed."""
    problems = []
    for i, rec in enumerate(op.records):
        good = rec.n_runs - rec.diverged_runs
        if not 0.0 <= rec.final_ber <= 1.0:
            problems.append(f"point {i}: final BER {rec.final_ber} outside [0, 1]")
        if good and not np.all(np.isfinite(rec.mse)):
            problems.append(f"point {i}: non-finite MSE")
        if rec.branch_hist is not None:
            expected = good * rec.n_symbols * n_constituents
            if int(rec.branch_hist.sum()) != expected:
                problems.append(
                    f"point {i}: {int(rec.branch_hist.sum())} branch selections, "
                    f"expected {expected}"
                )
    return problems


class Checker:
    """Runs operations, checks them, and keeps the run accounting."""

    def __init__(self, wl: Workload, n_constituents: int, csv_path: Path):
        self.wl = wl
        self.n_constituents = n_constituents
        self.csv_path = csv_path
        self.attempted = 0
        self.failed = 0
        self.diverged = 0
        self.problems: list[str] = []
        self._digests: dict[str, tuple[str, str]] = {}

    def run(self, changes: dict, threads: int, expected: dict | None = None,
            runner=run_operation) -> Operation | None:
        """Run and check one operation, against ``expected`` reference figures
        when given; ``None`` if it raised."""
        runs = len(self.wl.snr_points or (0,)) * changes["n_runs"]
        self.attempted += runs
        try:
            op = runner(self.wl, changes, threads, self.csv_path)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.problems.append(f"operation with {threads} worker(s) raised")
            self.failed += runs
            return None
        op.csv_sha256 = hashlib.sha256(self.csv_path.read_bytes()).hexdigest()
        op.record_sha256 = record_digest(op.records)
        problems = invariant_problems(op, self.n_constituents)
        # every operation on one config must reproduce the first bit for bit,
        # whatever its worker count (the README's reproducibility contract)
        first = self._digests.setdefault(
            json.dumps(changes, sort_keys=True), (op.record_sha256, op.csv_sha256)
        )
        if first != (op.record_sha256, op.csv_sha256):
            problems.append(f"{threads}-worker record differs from the first one of its config")
        got = summarize(op)
        if expected is not None and got != expected:
            diff = [k for k in expected if got.get(k) != expected[k]]
            problems.append(f"outputs differ from the reference in {diff}: {got}")
        diverged = sum(r.diverged_runs for r in op.records)
        self.diverged += diverged
        self.failed += runs if problems else diverged
        self.problems += problems
        return op


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def describe(values, best=min) -> dict:
    q1, q3 = _quartiles(values)
    return {"best": best(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def measure_setup(wl: Workload, probes: int) -> list[float]:
    """Seconds from interpreter start until ``run_experiment`` could be called,
    one fresh interpreter per probe."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), str(ROOT / wl.config), json.dumps(wl.changes)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def manifest(workers: int) -> dict:
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workers": workers,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def run_benchmark(
    name: str,
    seed: int | None,
    seconds: float,
    trace: bool,
    sizes: dict | None = None,
    reference: dict | None = None,
    setup_probes: int = SETUP_PROBES,
) -> dict:
    """One benchmark invocation; returns the full result document.

    ``sizes`` overrides config fields such as ``n_runs`` and ``n_symbols``
    (for smoke tests) and ``reference`` replaces the workload's entry of
    ``reference.json``.
    """
    wl = WORKLOADS[name]
    sizes = dict(sizes or {})
    if reference is None:
        reference = json.loads(REFERENCE_FILE.read_text())[name]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    base_cfg = dataclasses.replace(
        harness.load_config(ROOT / wl.config), **_config_changes(wl, seed, sizes)
    )
    base_cfg.validate()
    stem = f"{name}-seed{base_cfg.seed}-trace{int(trace)}"
    nproc = os.cpu_count() or 1
    checker = Checker(wl, len(base_cfg.branches), OUT_DIR / f"{name}.csv")
    changes = _config_changes(wl, base_cfg.seed, sizes)

    setup = measure_setup(wl, setup_probes)

    ref_changes = _config_changes(wl, reference["seed"], reference["sizes"])
    checker.run(ref_changes, nproc, expected=reference["expected"])

    parallel, serial = [], []
    t_start = time.perf_counter()
    while not checker.problems:
        for threads, samples in ((nproc, parallel), (1, serial)):
            op = checker.run(changes, threads)
            if op is not None:
                samples.append(op)
        if time.perf_counter() - t_start >= seconds:
            break

    result = {
        "workload": name,
        "seed": base_cfg.seed,
        "trace": trace,
        "config": dataclasses.asdict(base_cfg),
        "snr_points": wl.snr_points,
        "manifest": manifest(min(nproc, base_cfg.n_runs)),
    }
    metrics, report = {}, {}
    if parallel and serial:
        run_symbols = parallel[0].run_symbols
        par_rate = describe([run_symbols / op.wall_s for op in parallel], best=max)
        ser_rate = describe([run_symbols / op.wall_s for op in serial], best=max)
        report = {
            "run_symbols": run_symbols,
            "run_symbols_per_s": par_rate,
            "serial_run_symbols_per_s": ser_rate,
            "scaling_efficiency": {
                "best": par_rate["best"] / (nproc * ser_rate["best"]),
                "n": min(len(parallel), len(serial)),
            },
            "setup_s": describe(setup),
            "peak_rss_mb": {"best": peak_rss_mb(), "n": 1},
            "parallel_wall_s": describe([op.wall_s for op in parallel]),
            "serial_wall_s": describe([op.wall_s for op in serial]),
            "parallel_cpu_s": describe([op.cpu_s for op in parallel]),
            "serial_cpu_s": describe([op.cpu_s for op in serial]),
            "write_csv_s": describe([op.write_s for op in parallel + serial]),
            "final_ber": [r.final_ber for r in serial[0].records],
            "record_sha256": serial[0].record_sha256,
            "csv_sha256": serial[0].csv_sha256,
        }
        if trace:
            metrics = traced_metrics(checker, changes, report, nproc, stem)
        else:
            metrics = with_units("end_to_end", {k: v["best"] for k, v in report.items()
                                                if isinstance(v, dict)})
    elif not checker.problems:
        checker.problems.append("no complete operation pair was measured")

    result["report"] = report
    result["failed_run_ratio"] = checker.failed / max(checker.attempted, 1)
    result["diverged_runs"] = checker.diverged
    result["problems"] = checker.problems
    result["summary"] = {
        "correct": not checker.problems,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1, default=str))
    return result


def with_units(kind: str, values: dict) -> dict:
    """The ``kind`` metrics of ``BENCHMARK.json``, in its order and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def traced_metrics(checker, changes, report, nproc, stem) -> dict:
    """Repeat the single-worker operation :data:`TRACED_OPS` times under the
    tracer and report the layer figures of the fastest; the checker holds
    every traced record to the untraced ones bit for bit."""
    runs = []
    for i in range(TRACED_OPS):
        spans = tracer.Tracer()
        with tracer.patched(spans):
            op = checker.run(changes, 1, runner=spans.wrap(tracer.ROOT_SPAN, run_operation))
        if op is None:
            return {}
        if i == 0:
            spans.save(OUT_DIR / f"{stem}.spans.npz")
        ops = op.records[0].complexity
        layers = tracer.layer_metrics(spans, op.run_symbols, sum(ops) if ops else 0)
        if layers.pop("_closure_ns") != 0:
            checker.problems.append("layer self times do not add up to the traced wall time")
        layers["trace.wall_s"] = layers.pop("_root_s")
        runs.append(layers)
    layers = min(runs, key=lambda r: r["trace.wall_s"])
    serial_wall = report["serial_wall_s"]["best"]
    layers.update({
        "harness.parallel_overhead_s": report["parallel_wall_s"]["best"] - serial_wall / nproc,
        "harness.write_csv_s": report["write_csv_s"]["best"],
        "trace.overhead_ratio": layers["trace.wall_s"] / serial_wall - 1.0,
    })
    return with_units("per_layer", layers)


def reference_entry(name: str, seed: int | None = None, sizes: dict | None = None) -> dict:
    """Reference figures of one workload from the current code, at ``seed``
    (default: the config's) with ``sizes`` overriding config fields."""
    wl = WORKLOADS[name]
    cfg = dataclasses.replace(
        harness.load_config(ROOT / wl.config), **_config_changes(wl, seed, sizes or {})
    )
    sizes = {"n_runs": cfg.n_runs, "n_symbols": cfg.n_symbols, **(sizes or {})}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    checker = Checker(wl, len(cfg.branches), OUT_DIR / f"{name}-reference.csv")
    op = checker.run(_config_changes(wl, cfg.seed, sizes), os.cpu_count() or 1)
    if op is None or checker.problems:
        raise RuntimeError(f"{name}: {checker.problems}")
    return {"seed": cfg.seed, "sizes": sizes, "expected": summarize(op)}


def capture_reference() -> None:
    """Rewrite ``reference.json`` from the current code."""
    entries = {name: reference_entry(name) for name in WORKLOADS}
    REFERENCE_FILE.write_text(json.dumps(entries, indent=1) + "\n")


def _stats(value: dict) -> str:
    spread = (f"  median {value['median']:.6g}  q1 {value['q1']:.6g}  q3 {value['q3']:.6g}"
              if "median" in value else "")
    return f"{spread}  n={value['n']}"


def print_report(result: dict) -> None:
    """Metrics with units and sample counts, then the diagnostics behind them."""
    report, summary = result["report"], result["summary"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}")
    for name, m in summary["metrics"].items():
        extra = _stats(report[name]) if name in report else ""
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'failed_run_ratio':<44} {result['failed_run_ratio']:.6g} ratio"
          f"  ({summary['failed']} of {summary['attempted']} runs)")
    for key, value in report.items():
        if isinstance(value, dict) and key not in summary["metrics"]:
            print(f"  {key:<44} best {value['best']:.6g}{_stats(value)}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recapture reference.json from the current code and exit")
    args = parser.parse_args(argv)
    if args.write_reference:
        capture_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result)
    print(json.dumps(result["summary"]))
    return 0 if result["summary"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
