"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

It builds each workload at a few clients, pins goldens for it the way
make_goldens.py does, and checks that both run modes emit exactly the
metrics BENCHMARK.json names, with their units; that a tampered golden
total shows up as failed operations; and that the command fails without a
result when the program's source is missing.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from make_goldens import goldens_for
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "geo_scaleout": (("num_data_centers", 3), ("num_providers", 3), ("num_clients", 8), ("levels_per_provider", 3)),
    "case_study_exact": (("num_data_centers", 2), ("num_providers", 2), ("num_clients", 6), ("levels_per_provider", 2)),
    "single_dc_levels": (
        ("num_data_centers", 1),
        ("num_providers", 2),
        ("num_clients", 10),
        ("levels_per_provider", 4),
        ("zipf_shape", 2.0),
    ),
}


@pytest.fixture(scope="module")
def tiny():
    workloads = {
        name: replace(WORKLOADS[name], params=params, pool=(1, 2), heldout=3, per_run=2, setup_repeats=2)
        for name, params in TINY.items()
    }
    goldens = {name: goldens_for(w) for name, w in workloads.items()}
    return workloads, goldens


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.TRACED)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(tiny, name, trace):
    workloads, goldens = tiny
    report, tracer = run.run(workloads[name], goldens, seed=1, seconds=0, trace=trace)
    line = run.result_line(report, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in expected
    }
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    if trace:
        assert line["metrics"]["lp.calls"]["value"] > 0
        assert line["metrics"]["model.split_by_provider_s"]["value"] > 0
        assert tracer.spans and tracer.runs


def test_tampered_golden_total_fails(tiny):
    workloads, goldens = tiny
    tampered = copy.deepcopy(goldens)
    for seed in tampered["case_study_exact"].values():
        seed["totals"]["datum"]["total"] = "0.000001"
    report, _ = run.run(workloads["case_study_exact"], tampered, seed=1, seconds=0, trace=False)
    assert report["failed"] > 0
    assert report["metrics"]["failed_ratio"][0] > 0
    assert not run.result_line(report, False)["correct"]


def test_trace_file_holds_spans_and_counts(tiny, tmp_path):
    workloads, goldens = tiny
    _, tracer = run.run(workloads["single_dc_levels"], goldens, seed=1, seconds=0, trace=True)
    path = tmp_path / "trace.json"
    tracer.write(path, {"workload": "single_dc_levels"})
    doc = json.loads(path.read_text())
    assert doc["spans"] and doc["counts"]["lp.calls"] > 0 and "lp.solve" in doc["self_s"]


def test_fails_without_the_program_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    argv = [sys.executable, *SPEC["command"][1:], "--workload", "case_study_exact", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
