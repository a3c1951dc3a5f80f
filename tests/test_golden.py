"""Bit-exactness guard for the experiment records.

Every :class:`ExperimentRecord` field except ``wall_time`` is pinned by its
SHA-256 for each scheme in supervised and semi-supervised mode (the committed
``configs/`` at 2 runs of 300 symbols).  A speed-up must leave every digest
unchanged; a deliberate change of the numbers recaptures them with::

    PYTHONPATH=src python tests/test_golden.py > tests/golden_records.json
    PYTHONPATH=src python tests/test_golden.py summary > tests/golden_summary.json

and says why in the change log.  The records go through BLAS products whose
last bits depend on the numpy build, its BLAS and the CPU's vector units, so
the file also keeps the platform the digests were captured on, and the
comparison is skipped on any other platform.

The same 12 records also have a portable summary, checked on every platform:
per-run error counts, the diverged count and the branch histogram exactly,
and the MSE and mixing trajectories to ``SUMMARY_RTOL``.  A platform whose
rounding flips a decision fails it; that is a finding to record, not a
tolerance to widen.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import platform
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rrfilt.harness import SCHEMES, ExperimentRecord, load_config, run_experiment

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
GOLDEN = pathlib.Path(__file__).with_name("golden_records.json")
SUMMARY = pathlib.Path(__file__).with_name("golden_summary.json")
# Moving every received sample of the 12 cases by one ulp (np.nextafter), the
# size of one BLAS rounding difference, changed no count and moved the MSE
# trajectories by at most 8.0e-15 and the mixing values by at most 4.2e-16,
# relative.  Off the capture platform every product may round differently
# on every one of the 300 symbols, so the bound leaves four orders of
# magnitude above the one-ulp drift.
SUMMARY_RTOL = 1e-10
MODES = ("supervised", "semi")
CASES = [f"{scheme}-{mode}" for scheme in SCHEMES for mode in MODES]


@functools.lru_cache(maxsize=None)  # the digest and the summary tests share it
def _record(case: str) -> ExperimentRecord:
    scheme, mode = case.rsplit("-", 1)
    cfg = load_config(CONFIGS / f"{scheme}.yaml")
    return run_experiment(
        dataclasses.replace(cfg, n_runs=2, n_symbols=300, train_mode=mode)
    )


def _digest(value) -> str:
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()


def platform_fingerprint() -> dict[str, str]:
    """The numpy build, BLAS and CPU that decide how the records round."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": np.__version__,
        "blas": str(blas.get("openblas configuration", blas.get("name", "unknown"))),
        "machine": platform.machine(),
        "simd": " ".join(k for k in ("AVX2", "FMA3", "AVX512F") if __cpu_features__.get(k)),
    }


def record_digests(record: ExperimentRecord) -> dict[str, str]:
    return {
        f.name: _digest(getattr(record, f.name))
        for f in dataclasses.fields(record)
        if f.name != "wall_time"
    }


def record_summary(record: ExperimentRecord) -> dict:
    """Counts (compared exactly) and trajectories (compared to
    ``SUMMARY_RTOL``) of a record."""
    return {
        "run_errors": [
            None if np.isnan(ber) else round(ber * record.n_symbols)
            for ber in record.per_run_ber.tolist()
        ],
        "diverged_runs": record.diverged_runs,
        "branch_hist": None if record.branch_hist is None else record.branch_hist.tolist(),
        "mse": record.mse.tolist(),
        "lambdas": record.lambdas.tolist(),
    }


@pytest.fixture(scope="module")
def golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = platform_fingerprint()
    if golden["platform"] != here:
        pytest.skip(f"digests were captured on {golden['platform']}, not {here}")
    return golden["records"]


@pytest.mark.parametrize("case", CASES)
def test_record_fields_are_bit_identical(case, golden, monkeypatch):
    monkeypatch.setenv("RRFILT_THREADS", "1")  # records do not depend on it
    got = record_digests(_record(case))
    want = golden[case]
    assert set(got) == set(want), "pin every new record field (see module docstring)"
    changed = sorted(name for name in want if got[name] != want[name])
    assert not changed, f"{case}: fields changed bit-wise: {changed}"


@pytest.mark.parametrize("case", CASES)
def test_record_summary_holds_on_every_platform(case, monkeypatch):
    monkeypatch.setenv("RRFILT_THREADS", "1")
    want = json.loads(SUMMARY.read_text(encoding="utf-8"))["records"][case]
    got = record_summary(_record(case))
    for name in ("run_errors", "diverged_runs", "branch_hist"):
        assert got[name] == want[name], f"{case}: {name} changed"
    for name in ("mse", "lambdas"):
        assert_allclose(np.array(got[name]), np.array(want[name]), rtol=SUMMARY_RTOL,
                        atol=0, err_msg=f"{case}: {name}")


if __name__ == "__main__":
    os.environ["RRFILT_THREADS"] = "1"
    if sys.argv[1:] == ["summary"]:
        # one line per case: the trajectories would take a line per value
        lines = [f" {json.dumps(c)}: {json.dumps(record_summary(_record(c)))}" for c in CASES]
        print('{"platform": %s,\n "records": {\n%s\n}}'
              % (json.dumps(platform_fingerprint()), ",\n".join(lines)))
    else:
        records = {c: record_digests(_record(c)) for c in CASES}
        print(json.dumps({"platform": platform_fingerprint(), "records": records}, indent=1))
