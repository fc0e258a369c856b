from __future__ import annotations

import hashlib
import json

import pytest

from conftest import build_instance
from datamarket.cli import main
from datamarket.model import (
    evaluate_cost,
    instance_to_json,
    load_instance,
    plan_from_json,
)
from datamarket.numeric import to_rational


def write_instance(tmp_path, instance, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance_to_json(instance), indent=2, sort_keys=True))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_then_solve_round_trip(tmp_path, capsys):
    out = str(tmp_path / "inst.json")
    code, stdout, _ = run(
        capsys, "generate", "--seed", "3", "--out", out,
        "--data-centers", "3", "--providers", "4", "--clients", "6", "--levels", "3",
    )
    assert code == 0
    instance = load_instance(out)
    code, stdout, _ = run(capsys, "solve", "--instance", out, "--algorithm", "datum")
    assert code == 0
    record = json.loads(stdout)
    assert record["algorithm"] == "datum"
    # Plan file round-trip: re-evaluating the stored plan reproduces the
    # recorded totals exactly.
    plan_path = out.removesuffix(".json") + ".plan.json"
    plan = plan_from_json(json.loads(open(plan_path).read()))
    breakdown = evaluate_cost(instance, plan)
    assert to_rational(record["total"]) == breakdown.total


def test_solve_instance_g(tmp_path, capsys, instance_g):
    path = write_instance(tmp_path, instance_g)
    code, stdout, _ = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert code == 0
    assert json.loads(stdout)["total"] == "10.000000"
    code, stdout, _ = run(capsys, "solve", "--instance", path, "--algorithm", "nearestdc")
    assert json.loads(stdout)["total"] == "11.000000"


def test_solve_single_dc_algorithm(tmp_path, capsys, instance_b):
    path = write_instance(tmp_path, instance_b)
    code, stdout, _ = run(capsys, "solve", "--instance", path, "--algorithm", "single-dc")
    assert code == 0
    assert json.loads(stdout)["total"] == "19.000000"


def test_solve_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", "--instance", str(bad), "--algorithm", "datum")
    assert code == 2


def test_solve_invalid_instance(tmp_path, capsys, instance_a):
    doc = instance_to_json(instance_a)
    doc["providers"][0]["levels"][0]["per_query_fee"] = "9.000000"  # fees now decreasing
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", "--instance", str(path), "--algorithm", "datum")
    assert code == 2
    assert "fees not strictly increasing" in err


def test_solve_unknown_algorithm(tmp_path, capsys, instance_a):
    path = write_instance(tmp_path, instance_a)
    code, _, err = run(capsys, "solve", "--instance", path, "--algorithm", "magic")
    assert code == 4


def test_solve_oversize(tmp_path, capsys, monkeypatch, instance_a):
    monkeypatch.setenv("DATUM_BUDGET", "2")
    path = write_instance(tmp_path, instance_a)
    code, _, err = run(capsys, "solve", "--instance", path, "--algorithm", "optcost")
    assert code == 3
    assert "DATUM_BUDGET" in err


def test_solve_level_dependent_exec_costs(tmp_path, capsys):
    inst = build_instance(
        beta=[[3, 4]], fees=[1, 2], demands=[1, 2], alpha=[[[1, 2], [1, 2]]],
        level_independent=False,
    )
    path = write_instance(tmp_path, inst)
    for algorithm in ("datum", "single-dc"):
        code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", algorithm)
        assert code == 2 and stdout == ""
        assert err.splitlines() == [
            f"{algorithm} needs level-independent costs:"
            " provider p1: execution costs vary with level"
        ]
    # The exhaustive baseline prices levels separately and still solves it.
    code, _, _ = run(capsys, "solve", "--instance", path, "--algorithm", "optcost")
    assert code == 0


def test_solve_bulk_level_dependent_oper_costs(tmp_path, capsys):
    inst = build_instance(
        beta=[[3, 9]], fees=[1, 2], bulk_fees=[1, 2], demands=[1], alpha=[[0]],
        contracting="bulk",
    )
    path = write_instance(tmp_path, inst)
    code, _, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert code == 2
    assert len(err.splitlines()) == 1 and "operation costs vary with level" in err


def test_solve_catalog_too_large(tmp_path, capsys):
    inst = build_instance(beta=[[1]] * 13, fees=[1], demands=[1], alpha=[[0]] * 13)
    path = write_instance(tmp_path, inst)
    code, stdout, err = run(
        capsys, "solve", "--instance", path, "--algorithm", "datum", "--max-replicas", "13"
    )
    assert code == 3 and stdout == ""
    assert len(err.splitlines()) == 1 and "8191 subsets" in err


COMPARE_FLAGS = (
    "--seeds", "1,2",
    "--algorithms", "datum,optcost,optband,nearestdc",
    "--data-centers", "3", "--providers", "3", "--clients", "5", "--levels", "2",
)


def test_compare_csv_shape(capsys):
    code, stdout, err = run(capsys, "compare", *COMPARE_FLAGS)
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "seed,algorithm,oper,exec,purch,total,runtime_ms,fingerprint,error"
    assert len(lines) == 1 + 2 * 4
    # Rows ordered by (seed, algorithm); identical fingerprint per seed.
    seeds = [line.split(",")[0] for line in lines[1:]]
    assert seeds == sorted(seeds)
    for seed in ("1", "2"):
        marks = {l.split(",")[7] for l in lines[1:] if l.split(",")[0] == seed}
        assert len(marks) == 1
    # Datum never beats the exact optimum.
    totals = {}
    for line in lines[1:]:
        cells = line.split(",")
        totals[(cells[0], cells[1])] = to_rational(cells[5])
    for seed in ("1", "2"):
        assert totals[(seed, "datum")] >= totals[(seed, "optcost")]
    assert "algorithm,mean_total,runs" in err


def test_compare_is_byte_deterministic(capsys):
    code, first, _ = run(capsys, "compare", *COMPARE_FLAGS)
    code, second, _ = run(capsys, "compare", *COMPARE_FLAGS)
    assert first == second


def test_compare_oversize_rows_marked(capsys, monkeypatch):
    monkeypatch.setenv("DATUM_BUDGET", "4")
    code, stdout, _ = run(capsys, "compare", *COMPARE_FLAGS)
    assert code == 0
    lines = stdout.strip().splitlines()
    optcost_rows = [l for l in lines[1:] if l.split(",")[1] == "optcost"]
    assert all(l.split(",")[8] for l in optcost_rows)
    datum_rows = [l for l in lines[1:] if l.split(",")[1] == "datum"]
    assert all(not l.split(",")[8] for l in datum_rows)


def test_compare_isolates_a_failing_row(capsys):
    code, stdout, _ = run(
        capsys, "compare", "--seeds", "1", "--algorithms", "datum,single-dc",
        "--data-centers", "3", "--providers", "2", "--clients", "4", "--levels", "2",
    )
    assert code == 0
    header, datum_row, single_dc_row = stdout.strip().splitlines()
    datum = dict(zip(header.split(","), datum_row.split(",")))
    assert datum["algorithm"] == "datum" and datum["error"] == ""
    assert all(datum[k] for k in ("oper", "exec", "purch", "total", "fingerprint"))
    single_dc = dict(zip(header.split(","), single_dc_row.split(",")))
    assert single_dc["algorithm"] == "single-dc" and single_dc["total"] == ""
    assert "one-data-center" in single_dc["error"]


def test_sweep_csv_shape(capsys):
    code, stdout, _ = run(
        capsys,
        "sweep", "--knob", "band_to_fee", "--from", "-2", "--to", "2", "--steps", "5",
        "--seeds", "1", "--algorithms", "datum,optband",
        "--data-centers", "2", "--providers", "2", "--clients", "4", "--levels", "2",
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("knob,target,seed,algorithm")
    assert len(lines) == 1 + 5 * 1 * 2
    targets = [line.split(",")[1] for line in lines[1:]]
    assert targets == ["-2", "-2", "-1", "-1", "0", "0", "1", "1", "2", "2"]


def test_convert_round_trip(tmp_path, capsys, instance_g):
    path = write_instance(tmp_path, instance_g)
    uflp_path = str(tmp_path / "uflp.json")
    code, _, _ = run(capsys, "convert", "--instance", path, "--to-uflp", uflp_path)
    assert code == 0
    doc = json.loads(open(uflp_path).read())
    assert len(doc["instances"]) == 1
    entry = doc["instances"][0]
    assert entry["provider"] == "p1"
    assert [f["open_cost"] for f in entry["facilities"]] == ["5.000000", "7.000000"]

    single = {k: v for k, v in entry.items() if k != "provider"}
    single_path = tmp_path / "single.json"
    single_path.write_text(json.dumps(single))
    out_path = str(tmp_path / "market.json")
    code, _, _ = run(capsys, "convert", "--from-uflp", str(single_path), "--out", out_path)
    assert code == 0
    from datamarket.baselines import opt_cost

    rebuilt = load_instance(out_path)
    _, breakdown = opt_cost(rebuilt)
    # Fee (2) joins the connection costs in the UFLP view: optimum 7 + 1 + 2.
    assert breakdown.total == 10


# sha256 of compare/sweep stdout for fixed flags. Together the flag sets run
# all five algorithms (single-dc on a one-data-center market), a Datum row
# with mu1/mu2 set, and both sweep knobs. A change that keeps the plans and
# totals must reproduce these bytes exactly.
PINNED_OUTPUT = {
    "compare_all_one_dc": (
        (
            "compare", "--seeds", "1,2", "--algorithms", "datum,optcost,optband,nearestdc,single-dc",
            "--data-centers", "1", "--providers", "3", "--clients", "8", "--levels", "4",
            "--zipf-shape", "1", "--ratio-bf", "0.5",
        ),
        "e8fd5a0ddf2f70df5e3a2eed44fc39c717ebd0e066d37ebb6b58f3a899238c72",
    ),
    "compare_default_geo": (
        (
            "compare", "--seeds", "1,2",
            "--data-centers", "3", "--providers", "3", "--clients", "8", "--levels", "3",
            "--zipf-shape", "1", "--ratio-bf", "0.5", "--ratio-ie", "0",
        ),
        "3a5b06236c4fd59b16a625bacbced127e72d9267e42527b12afd64a3843ae9d6",
    ),
    "compare_mu_geo": (
        (
            "compare", "--seeds", "1,2", "--algorithms", "datum", "--mu1", "0.5", "--mu2", "1",
            "--data-centers", "3", "--providers", "3", "--clients", "8", "--levels", "3",
            "--zipf-shape", "1", "--ratio-bf", "0.5", "--ratio-ie", "0",
        ),
        "e34185ab4b014a24e605ce9f2655c10efc798910d6a8c053da4cbd691db99688",
    ),
    "sweep_band_to_fee": (
        (
            "sweep", "--knob", "band_to_fee", "--from", "-1", "--to", "1", "--steps", "3",
            "--seeds", "1",
            "--data-centers", "2", "--providers", "2", "--clients", "6", "--levels", "3",
            "--zipf-shape", "1",
        ),
        "c5789b26bb6961cd3981d8ac9e52064c8a88b5c560d8105cb4e9ed0ede2f79d6",
    ),
    "sweep_internal_to_external": (
        (
            "sweep", "--knob", "internal_to_external", "--from", "-2", "--to", "0", "--steps", "3",
            "--seeds", "1", "--algorithms", "datum,optcost,nearestdc", "--max-replicas", "3",
            "--data-centers", "3", "--providers", "2", "--clients", "6", "--levels", "2",
            "--zipf-shape", "1",
        ),
        "655cad66f77dda1fa1ceebf528deaa9516d109190be96c74ce904f89c7707407",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_OUTPUT))
def test_compare_sweep_bytes_pinned(capsys, name):
    argv, digest = PINNED_OUTPUT[name]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
