"""Smoke tests of the benchmark itself, at tiny sizes (a few seconds).

Run from the checkout root: ``python3 -m pytest -q perfbench/test_bench.py``
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402

TINY = {"n_runs": 2, "n_symbols": 60, "train_symbols": 20}
BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "signalcore.hankel_calls_per_run_symbol",
    "signalcore.hankel_bytes_per_run_symbol",
    "filters.ops_per_run_symbol",
    "cdma.slicer_calls_per_run_symbol",
    "cdma.mmse_solves_per_run_symbol",
    "trace.spans_per_run_symbol",
)


def tiny_run(name, seed, trace, reference):
    return bench.run_benchmark(
        name, seed, 0, trace, sizes=TINY, reference=reference, setup_probes=1
    )


@pytest.fixture(scope="module")
def references():
    return {name: bench.reference_entry(name, 5, TINY) for name in bench.WORKLOADS}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_untraced_and_traced_runs_pass_their_checks(name, references):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        summary = tiny_run(name, 7, trace, references[name])["summary"]
        assert summary["correct"] and summary["failed"] == 0
        assert summary["attempted"] > 0
        # the traced record is held bit for bit to the untraced ones by the
        # checker, so a correct traced run shows the wrappers are transparent
        assert {m: v["unit"] for m, v in summary["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[kind]
        }


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_exact_counts_repeat_across_repeats_and_seeds(name, references):
    counts = [
        {k: tiny_run(name, seed, True, references[name])["summary"]["metrics"][k]["value"]
         for k in EXACT_COUNTS}
        for seed in (7, 7, 8)
    ]
    assert counts[0] == counts[1] == counts[2]
    if name == "scheme_a-desk":
        assert counts[0]["signalcore.hankel_calls_per_run_symbol"] == 4
    if name == "mmse-desk":
        assert counts[0]["cdma.mmse_solves_per_run_symbol"] == 1
        assert counts[0]["signalcore.hankel_calls_per_run_symbol"] == 0


def test_perturbed_reference_is_reported_as_failed(references):
    name = "scheme_a-desk"
    perturbed = json.loads(json.dumps(references[name]))
    perturbed["expected"]["points"][0]["final_ber"] += 1e-3
    result = tiny_run(name, 7, False, perturbed)
    assert not result["summary"]["correct"]
    assert result["summary"]["failed"] >= TINY["n_runs"]
    assert result["failed_run_ratio"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    for src in Path(bench.__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / src.name).write_text(src.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "mmse-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
