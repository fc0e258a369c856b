from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from decimal import Decimal

import pytest

from conftest import build_instance
from datamarket import model
from datamarket.cli import SCENARIO_FLAGS, _scenario_params, build_parser, main
from datamarket.model import (
    evaluate_cost,
    instance_to_json,
    load_instance,
)
from datamarket.numeric import MAX_INTEGER_DIGITS, to_rational
from datamarket.scenario import ScenarioParams, generate
from oracles import plan_from_json


def write_instance(tmp_path, instance, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(instance_to_json(instance), indent=2, sort_keys=True))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--seed", "5", "--out", "unused.json"),
        ("compare", "--seeds", "5"),
        ("sweep", "--knob", "band_to_fee", "--from", "-1", "--to", "1", "--steps", "2",
         "--seeds", "5"),
    ],
    ids=["generate", "compare", "sweep"],
)
def test_default_scenario_flags_are_the_scenario_defaults(argv):
    args = build_parser().parse_args(argv)
    assert _scenario_params(args, 5) == ScenarioParams(seed=5)
    # Every field but the seed has exactly one flag.
    assert set(SCENARIO_FLAGS) == {f.name for f in fields(ScenarioParams)} - {"seed"}
    flags = [flag for flag, _, _ in SCENARIO_FLAGS.values()]
    assert len(set(flags)) == len(flags)


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


@pytest.mark.parametrize("command", ["solve", "convert"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    if command == "solve":
        argv = ("solve", "--instance", str(deep), "--algorithm", "datum")
        reason = "cannot read instance: maximum recursion depth exceeded"
    else:
        argv = ("convert", "--from-uflp", str(deep), "--out", str(tmp_path / "market.json"))
        reason = "cannot read UFLP file: maximum recursion depth exceeded"
    code, stdout, err = run(capsys, *argv)
    assert_refused(code, stdout, err, 2, reason)


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


@pytest.mark.parametrize("algorithm", ["datum", "single-dc"])
def test_solve_unflagged_uniform_exec_costs_like_flagged(tmp_path, capsys, algorithm):
    # A tensor without the flag whose costs do not vary with the level is
    # level-independent: datum and single-dc solve it as the flagged one.
    answers = []
    for flag in (True, False):
        inst = build_instance(
            beta=[[3, 4]], fees=[1, 2], demands=[1, 2], alpha=[[["4", "4"], [1, 1]]],
            level_independent=flag,
        )
        path = write_instance(tmp_path, inst, f"flag-{flag}.json")
        plan_out = str(tmp_path / f"flag-{flag}.plan.json")
        code, stdout, err = run(
            capsys, "solve", "--instance", path, "--algorithm", algorithm, "--plan-out", plan_out
        )
        assert code == 0 and err == ""
        record = json.loads(stdout)
        totals = {key: record[key] for key in ("total", "oper", "exec", "purch")}
        answers.append((totals, open(plan_out).read()))
    assert answers[0] == answers[1]
    code, stdout, _ = run(capsys, "solve", "--instance", path, "--algorithm", "optcost")
    assert code == 0 and json.loads(stdout)["total"] == answers[1][0]["total"]


def test_solve_tensor_for_unknown_provider_exits_2(tmp_path, capsys):
    inst = build_instance(beta=[[3, 4]], fees=[1, 2], demands=[1], alpha=[[["4", "4"]]])
    doc = instance_to_json(inst)
    doc["exec_cost"]["alpha"]["p9"] = [[["1", "1"]]]
    path = write_doc(tmp_path, doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2)
    assert err.strip().endswith("exec model: alpha tensor for unknown provider p9")


@pytest.mark.parametrize(
    "flags, field",
    [
        (("--levels", "10000000000"), "levels_per_provider must be at most 1024"),
        (("--clients", "100000000"), "num_clients * num_providers must be at most 1,000,000"),
        (("--providers", "1000000", "--clients", "1"), "num_providers * levels_per_provider"),
        (("--pareto-mean", "-1"), "pareto_mean must not be negative"),
        (("--pareto-mean", "1e308"), "pareto_mean 1e+308 is too large"),
    ],
)
def test_generate_refuses_sizes_and_pareto_means_by_name(tmp_path, capsys, flags, field):
    out = tmp_path / "g.json"
    code, stdout, err = run(capsys, "generate", "--seed", "1", *flags, "--out", str(out))
    assert_refused(code, stdout, err, 2, "invalid scenario parameters:", field)
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["--mu1", "--mu2"])
def test_solve_bad_mu_exits_2(tmp_path, capsys, instance_g, flag):
    path = write_instance(tmp_path, instance_g)
    for raw in ("abc", "inf", "-1"):
        code, stdout, err = run(
            capsys, "solve", "--instance", path, "--algorithm", "optcost", flag, raw
        )
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"invalid {flag}:")


def test_solve_infinite_fee_exits_2(tmp_path, capsys, instance_g):
    doc = instance_to_json(instance_g)
    doc["providers"][0]["levels"][0]["per_query_fee"] = "Infinity"
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "solve", "--instance", str(path), "--algorithm", "datum")
    assert code == 2 and stdout == ""
    assert err.splitlines() == ["cannot read instance: not a finite decimal number: 'Infinity'"]


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


def test_compare_timings_fill_only_runtime_ms(capsys):
    code, untimed, _ = run(capsys, "compare", *COMPARE_FLAGS)
    code, timed, _ = run(capsys, "compare", *COMPARE_FLAGS, "--timings")
    assert code == 0
    untimed_lines, timed_lines = untimed.splitlines(), timed.splitlines()
    assert timed_lines[0] == untimed_lines[0]
    assert len(timed_lines) == len(untimed_lines) == 1 + 2 * 4
    runtime = untimed_lines[0].split(",").index("runtime_ms")
    for plain, timed_row in zip(untimed_lines[1:], timed_lines[1:]):
        cells, timed_cells = plain.split(","), timed_row.split(",")
        runtime_ms = timed_cells.pop(runtime)
        assert runtime_ms.isdigit() and str(int(runtime_ms)) == runtime_ms
        assert cells.pop(runtime) == ""
        assert timed_cells == cells


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


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", *COMPARE_FLAGS),
        ("sweep", "--knob", "band_to_fee", "--from", "-1", "--to", "1", "--steps", "2",
         *COMPARE_FLAGS),
    ],
    ids=["compare", "sweep"],
)
def test_compare_sweep_bad_mu_exit_2_before_rows(capsys, argv):
    code, stdout, err = run(capsys, *argv, "--mu1", "abc")
    assert code == 2 and stdout == ""
    assert err.splitlines() == ["invalid --mu1: not a decimal number: 'abc'"]
    code, stdout, err = run(capsys, *argv, "--mu1", "-1")
    assert code == 2 and stdout == ""
    assert err.splitlines() == ["invalid --mu1: must be nonnegative"]


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


def _level_dependent_market():
    return build_instance(
        beta=[[3, 5, "8.25"], [4, 4, 9], [2, 6, 7]],
        fees=[1, "2.5", 4],
        demands=[1, 2, 3, 1, 2],
        alpha=[
            [[1, 2, 3], [0, 1, 1], [2, 2, 5], [1, 1, 1], ["0.5", 1, 2]],
            [[3, 1, 0], [2, 2, 2], [1, 0, 4], [0, 3, 1], [1, 1, 1]],
            [[2, 2, 2], [1, 3, 0], [4, 1, 1], [2, 0, 2], [0, 0, 3]],
        ],
        level_independent=False,
    )


# sha256 of the `convert --to-uflp` file, sparse and --dense: a case-study
# market (D=4, P=6, C=40, L=4, distance costs) and a level-dependent
# explicit one.
PINNED_UFLP = {
    "case_study": (
        lambda: generate(ScenarioParams(seed=1, num_data_centers=4, num_providers=6,
                                        num_clients=40, levels_per_provider=4)),
        "e09a68acb4c8003f9a65f6e01a69afe86cfbc4a31221c788fa2eba7c92cf5d13",
        "4433db9606a813a2a099fda4f6da19b7d432c27c224a57b102ef9501a9fc96d3",
    ),
    "level_dependent": (
        _level_dependent_market,
        "eed43f1b3b2282544292594aada9868c3a3d73f2187f9c8389cf06e0d577ef60",
        "183d8f91c468e93d302226eed003836f02afed6ab57b50adb17aa239722ffe5e",
    ),
}


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("name", list(PINNED_UFLP))
def test_convert_to_uflp_bytes_pinned(tmp_path, capsys, name, dense):
    make, sparse_digest, dense_digest = PINNED_UFLP[name]
    path = write_instance(tmp_path, make())
    out = tmp_path / "uflp.json"
    code, _, _ = run(capsys, "convert", "--instance", path, "--to-uflp", str(out),
                     *(["--dense"] if dense else []))
    assert code == 0
    digest = dense_digest if dense else sparse_digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


# sha256 of the stderr summary (algorithm,mean_total,runs) of the same runs.
PINNED_SUMMARY = {
    "compare_all_one_dc": "d18434f7e3e0a5e084e42aa6cfe7f9b7d6ae77e86fa287e7693e52d3b45c19d4",
    "compare_default_geo": "62f0472941f11a0e9259c6c90c432bc133e2a94cbe4430cb8b4f03241fb9f984",
    "compare_mu_geo": "8ed612ab39e68e7697b16b4c1ed888cffe6d4971e0b0480aa7c0a7897a8d1e3d",
    "sweep_band_to_fee": "6bd086ecb51b703ae9c9b546b4e2d0107bde6049c08c2fc536ba07493d94570d",
    "sweep_internal_to_external": "4ede4b1f043f8cea4c98c726988d07c68b125c6f2a698e180a3298d67f3797c7",
}


@pytest.mark.parametrize("name", list(PINNED_SUMMARY))
def test_compare_sweep_summary_pinned(capsys, name):
    argv, _ = PINNED_OUTPUT[name]
    code, _, stderr = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(stderr.encode()).hexdigest() == PINNED_SUMMARY[name]


# sha256 over each algorithm's `solve` record (runtime_ms dropped) and its
# --plan-out file, in order, on a generated market turned bulk: every level
# gets a bulk fee of three times its per-query fee (the generator's
# operation costs are level-independent already).
PINNED_BULK = {
    "two_dc": (
        "2",
        ("datum", "optcost", "optband", "nearestdc"),
        "75de91d03cab70ad1895be70a6197aefc9167eb679ba35563ecdee1663b55811",
    ),
    "one_dc": (
        "1",
        ("single-dc", "datum", "optcost", "nearestdc"),
        "46462d60e4be74b59d56f20554af86d1eac8a3d82307a35dd53d7ae4bfc018fb",
    ),
}


@pytest.mark.parametrize("name", list(PINNED_BULK))
def test_solve_bulk_bytes_pinned(tmp_path, capsys, name):
    data_centers, algorithms, digest = PINNED_BULK[name]
    path = str(tmp_path / "bulk.json")
    code, _, _ = run(
        capsys, "generate", "--seed", "1", "--out", path, "--data-centers", data_centers,
        "--providers", "3", "--clients", "8", "--levels", "3",
    )
    assert code == 0
    doc = json.loads(open(path).read())
    doc["contracting"] = "bulk"
    for provider in doc["providers"]:
        for level in provider["levels"]:
            level["bulk_fee"] = str(3 * Decimal(level["per_query_fee"]))
    path = write_doc(tmp_path, doc)
    sha = hashlib.sha256()
    for algorithm in algorithms:
        plan_out = tmp_path / f"{algorithm}.plan.json"
        code, stdout, err = run(
            capsys, "solve", "--instance", path, "--algorithm", algorithm,
            "--plan-out", str(plan_out),
        )
        assert code == 0 and err == ""
        record = json.loads(stdout)
        del record["runtime_ms"]
        sha.update(json.dumps(record, sort_keys=True).encode())
        sha.update(plan_out.read_bytes())
    assert sha.hexdigest() == digest


# --- refusals: each ends with its exit code and a one-line reason ----------

SMALL_GEO = (
    "--data-centers", "2", "--providers", "2", "--clients", "3", "--levels", "2",
)


def assert_refused(code, stdout, err, expected_code, *needles):
    assert code == expected_code and stdout == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1
    for needle in needles:
        assert needle in err


@pytest.fixture
def geo_doc():
    return instance_to_json(
        generate(ScenarioParams(seed=1, num_data_centers=2, num_providers=2, num_clients=3,
                                levels_per_provider=2))
    )


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_convert_to_uflp_on_bulk_exits_2(tmp_path, capsys):
    inst = build_instance(
        beta=[[3, 3]], fees=[1, 2], bulk_fees=[1, 2], demands=[1], alpha=[[0]],
        contracting="bulk",
    )
    path = write_instance(tmp_path, inst)
    out = str(tmp_path / "uflp.json")
    code, stdout, err = run(capsys, "convert", "--instance", path, "--to-uflp", out)
    assert_refused(code, stdout, err, 2, "per-query")


def test_sweep_uncalibratable_targets_exit_2(capsys):
    code, stdout, err = run(
        capsys, "sweep", "--knob", "band_to_fee", "--from", "-8", "--to", "-7", "--steps", "2",
        "--ratio-ie", "-9", "--seeds", "1", *SMALL_GEO,
    )
    assert_refused(code, stdout, err, 2, "invalid scenario parameters:", "calibration")


def test_solve_demands_as_a_list_exits_2(tmp_path, capsys, geo_doc):
    geo_doc["clients"][0]["demands"] = list(geo_doc["clients"][0]["demands"].values())
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2, "cannot read instance:")


def _level_as_a_list(doc):
    level = doc["providers"][0]["levels"][0]
    doc["providers"][0]["levels"][0] = list(level.values())


MISTYPED = [
    pytest.param(
        lambda doc: doc["providers"][0].update(levels=5),
        "providers[0].levels: expected a list, got int",
        id="levels",
    ),
    pytest.param(
        lambda doc: doc["data_centers"].__setitem__(0, "dc1"),
        "data_centers[0]: expected an object, got str",
        id="data-center",
    ),
    pytest.param(
        lambda doc: doc["providers"][0].update(oper_cost=7),
        "providers[0].oper_cost: expected a list, got int",
        id="oper-cost",
    ),
    pytest.param(
        lambda doc: doc["clients"][0].update(location=5),
        "clients[0].location: expected a list, got int",
        id="location",
    ),
    pytest.param(
        lambda doc: doc.update(exec_cost=[]),
        "exec_cost: expected an object, got list",
        id="exec-cost",
    ),
    pytest.param(
        _level_as_a_list,
        "providers[0].levels[0]: expected an object, got list",
        id="level",
    ),
    pytest.param(
        lambda doc: doc["providers"][0]["levels"][0].update(quality=True),
        "providers[0].levels[0].quality: expected a number or decimal string, got bool",
        id="quality-bool",
    ),
    pytest.param(
        lambda doc: doc["providers"][0]["levels"][0].update(quality=[1]),
        "providers[0].levels[0].quality: expected a number or decimal string, got list",
        id="quality-list",
    ),
    pytest.param(
        lambda doc: doc["clients"][0].update(demands={"p1": True}),
        "clients[0].demands.p1: expected a number or decimal string, got bool",
        id="demand-bool",
    ),
    pytest.param(
        lambda doc: doc["providers"][1]["oper_cost"][0].__setitem__(1, False),
        "providers[1].oper_cost[0][1]: expected a number or decimal string, got bool",
        id="oper-cost-cell",
    ),
    pytest.param(
        lambda doc: doc["exec_cost"].update(rate_per_gigameter=None),
        "exec_cost.rate_per_gigameter: expected a number or decimal string, got NoneType",
        id="rate-null",
    ),
]


@pytest.mark.parametrize("mistype, reason", MISTYPED)
def test_solve_mistyped_node_names_its_path(tmp_path, capsys, geo_doc, mistype, reason):
    mistype(geo_doc)
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2)
    assert err.strip() == f"cannot read instance: {reason}"


@pytest.mark.parametrize("mode", ["Distance", "", 3])
def test_solve_unknown_exec_cost_mode_is_named(tmp_path, capsys, geo_doc, mode):
    geo_doc["exec_cost"]["mode"] = mode
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2)
    assert err.strip() == (
        f"cannot read instance: exec_cost.mode: expected 'distance' or 'explicit', got {mode!r}"
    )


@pytest.mark.parametrize("varies", [True, False], ids=["level-dependent", "uniform"])
@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_solve_level_independent_must_be_a_boolean(tmp_path, capsys, flag, varies):
    cell = [1, 2] if varies else [1, 1]
    inst = build_instance(
        beta=[[3, 4]], fees=[1, 2], demands=[1, 2], alpha=[[cell, cell]], level_independent=False
    )
    doc = instance_to_json(inst)
    doc["exec_cost"]["level_independent"] = flag
    path = write_doc(tmp_path, doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "optcost")
    assert_refused(code, stdout, err, 2)
    assert err.strip() == (
        "cannot read instance: exec_cost.level_independent: expected a boolean,"
        f" got {type(flag).__name__}"
    )


def test_solve_missing_key_is_named(tmp_path, capsys, geo_doc):
    del geo_doc["data_centers"]
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2, "cannot read instance: missing key 'data_centers'")


@pytest.mark.parametrize(
    "raw, expected", [("1e22", 10**22), ("1.5e30", 15 * 10**29), (1e22, 10**22)]
)
def test_solve_reads_money_past_28_digits(tmp_path, capsys, geo_doc, raw, expected):
    geo_doc["providers"][0]["oper_cost"][0][0] = raw
    path = write_doc(tmp_path, geo_doc)
    assert load_instance(path).providers[0].oper_cost[0][0] == expected
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert code == 0 and err == "" and json.loads(stdout)["algorithm"] == "datum"


@pytest.mark.parametrize("raw", ["inf", "nan"])
def test_solve_refuses_non_finite_money(tmp_path, capsys, geo_doc, raw):
    geo_doc["providers"][0]["oper_cost"][0][0] = raw
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(
        code, stdout, err, 2, f"cannot read instance: not a finite decimal number: {raw!r}"
    )


@pytest.mark.parametrize("raw", ["1e309", "-1e999999"])
def test_solve_refuses_money_past_the_digit_cap(tmp_path, capsys, geo_doc, raw):
    geo_doc["providers"][0]["oper_cost"][0][0] = raw
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert (code, stdout) == (2, "")
    assert err == (
        f"cannot read instance: decimal number too large: {raw!r} has more than"
        f" {MAX_INTEGER_DIGITS} integer digits\n"
    )


def test_solve_top_level_array_exits_2(tmp_path, capsys, geo_doc):
    path = write_doc(tmp_path, [geo_doc])
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2, "cannot read instance:")


@pytest.mark.parametrize(
    "location",
    [["a", "b"], [float("inf"), 0], [float("nan"), 0], [95.0, 0], [0, -180.5], [True, 0], [0]],
    ids=["strings", "infinity", "nan", "latitude-95", "longitude-180.5", "bool", "one-number"],
)
def test_solve_bad_client_location_exits_2(tmp_path, capsys, geo_doc, location):
    geo_doc["clients"][1]["location"] = location
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2, "client c2: location")


def test_solve_bad_data_center_location_exits_2(tmp_path, capsys, geo_doc):
    geo_doc["data_centers"][0]["location"] = [0, 200]
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "nearestdc")
    assert_refused(code, stdout, err, 2, "data center dc1: location")


def test_solve_report_is_one_line_per_violation(tmp_path, capsys, geo_doc):
    geo_doc["clients"][0]["location"] = [91, 0]
    geo_doc["clients"][2]["location"] = [0, "x"]
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert code == 2 and stdout == "" and "Traceback" not in err
    assert [line.split(":")[0] for line in err.splitlines()] == ["client c1", "client c3"]


def test_solve_non_string_id_exits_2(tmp_path, capsys, geo_doc):
    geo_doc["data_centers"][1]["id"] = ["dc2"]
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2, "data center id ['dc2'] is not a string")


def test_solve_without_data_centers_exits_2(tmp_path, capsys, geo_doc):
    geo_doc["data_centers"] = []
    for provider in geo_doc["providers"]:
        provider["oper_cost"] = []
    path = write_doc(tmp_path, geo_doc)
    for algorithm in ("datum", "optcost", "nearestdc"):
        code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", algorithm)
        assert_refused(code, stdout, err, 2, "no data center")


def test_compare_bad_seeds_exits_2(capsys):
    code, stdout, err = run(capsys, "compare", "--seeds", "a", *SMALL_GEO)
    assert_refused(code, stdout, err, 2, "invalid --seeds:")


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_solve_bad_budget_exits_2(tmp_path, capsys, monkeypatch, instance_g, raw):
    monkeypatch.setenv("DATUM_BUDGET", raw)
    path = write_instance(tmp_path, instance_g)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "optcost")
    assert_refused(code, stdout, err, 2, f"invalid DATUM_BUDGET: {raw!r} is not a positive integer")


def test_compare_bad_budget_fills_the_exhaustive_rows(capsys, monkeypatch):
    monkeypatch.setenv("DATUM_BUDGET", "abc")
    code, stdout, err = run(capsys, "compare", *COMPARE_FLAGS)
    assert code == 0 and "Traceback" not in err
    header, *lines = stdout.strip().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert len(rows) == 2 * 4
    for row in rows:
        if row["algorithm"] in ("optcost", "optband"):
            assert row["total"] == ""
            assert row["error"] == "invalid DATUM_BUDGET: 'abc' is not a positive integer"
        else:
            assert row["error"] == "" and row["total"]


@pytest.mark.parametrize("command", ["solve", "compare", "sweep"])
def test_max_replicas_below_one_exits_2(tmp_path, capsys, instance_g, command):
    argv = {
        "solve": ("solve", "--instance", write_instance(tmp_path, instance_g),
                  "--algorithm", "optcost"),
        "compare": ("compare", "--seeds", "1", *SMALL_GEO),
        "sweep": ("sweep", "--knob", "band_to_fee", "--from", "-1", "--to", "1", "--steps", "2",
                  "--seeds", "1", *SMALL_GEO),
    }[command]
    for raw in ("0", "-1"):
        code, stdout, err = run(capsys, *argv, "--max-replicas", raw)
        assert_refused(code, stdout, err, 2, "invalid --max-replicas: must be at least 1")


def test_max_replicas_above_the_data_centers_means_all(tmp_path, capsys, geo_doc):
    path = write_doc(tmp_path, geo_doc)
    records = []
    for raw in ("2", "7"):
        code, stdout, _ = run(
            capsys, "solve", "--instance", path, "--algorithm", "datum", "--max-replicas", raw
        )
        assert code == 0
        records.append(json.loads(stdout))
    assert records[0]["total"] == records[1]["total"]
    # Both runs record the cap Datum used: the two data centers.
    assert records[0]["config"] == records[1]["config"] == "max_replicas=2,mu1=0,mu2=0"


def test_generate_has_no_max_replicas(tmp_path, capsys):
    out = tmp_path / "unused.json"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--seed", "1", "--out", str(out), "--max-replicas", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-replicas 2" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_2(tmp_path, capsys, instance_g):
    path = write_instance(tmp_path, instance_g)
    missing = str(tmp_path / "nodir" / "x.json")
    code, stdout, err = run(
        capsys, "solve", "--instance", path, "--algorithm", "datum", "--plan-out", missing
    )
    assert_refused(code, stdout, err, 2, "cannot write output:")
    code, stdout, err = run(capsys, "generate", "--seed", "1", "--out", missing, *SMALL_GEO)
    assert_refused(code, stdout, err, 2, "cannot write output:")


def test_convert_from_ragged_uflp_exits_2(tmp_path, capsys):
    uflp = {
        "facilities": [{"id": "a", "open_cost": "1"}, {"id": "b", "open_cost": "1"}],
        "clients": ["c1", "c2"],
        "connection": [["1", "2"], ["1"]],
    }
    path = write_doc(tmp_path, uflp)
    out = str(tmp_path / "market.json")
    code, stdout, err = run(capsys, "convert", "--from-uflp", path, "--out", out)
    assert_refused(code, stdout, err, 2, "cannot read UFLP file:")
    uflp["connection"] = [["1", "2"]]
    path = write_doc(tmp_path, uflp)
    code, stdout, err = run(capsys, "convert", "--from-uflp", path, "--out", out)
    assert_refused(code, stdout, err, 2, "cannot read UFLP file:")


def test_convert_from_uflp_missing_key_is_named(tmp_path, capsys):
    path = write_doc(tmp_path, {"facilities": [{"id": "a", "open_cost": "1"}], "clients": ["c1"]})
    out = str(tmp_path / "market.json")
    code, stdout, err = run(capsys, "convert", "--from-uflp", path, "--out", out)
    assert_refused(code, stdout, err, 2, "cannot read UFLP file: missing key 'connection'")


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "--seed", "1", "--out", "unused.json"),
        ("compare", "--seeds", "1"),
        ("sweep", "--knob", "band_to_fee", "--from", "-1", "--to", "1", "--steps", "2",
         "--seeds", "1"),
    ],
    ids=["generate", "compare", "sweep"],
)
def test_bad_rate_exits_2(capsys, argv):
    code, stdout, err = run(capsys, *argv, *SMALL_GEO, "--rate", "abc")
    assert_refused(code, stdout, err, 2, "invalid scenario parameters: not a decimal number")


@pytest.mark.parametrize(
    "flag", [("--ratio-bf", "400"), ("--pareto-mean", "inf")], ids=["ratio-bf", "pareto-mean"]
)
def test_overflowing_scenario_flag_exits_2(capsys, flag):
    code, stdout, err = run(capsys, "compare", "--seeds", "1", *SMALL_GEO, *flag)
    assert_refused(code, stdout, err, 2, "invalid scenario parameters:")


def test_unknown_algorithm_exits_4(tmp_path, capsys, instance_g):
    path = write_instance(tmp_path, instance_g)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "magic")
    assert_refused(code, stdout, err, 4, "unknown algorithm: 'magic'")
    code, stdout, err = run(capsys, "compare", "--seeds", "1", "--algorithms", "datum,magic")
    assert_refused(code, stdout, err, 4, "unknown algorithm: 'magic'")


@pytest.mark.parametrize(
    "argv, field",
    [
        (("generate", "--seed", "1", "--out", "unused.json", "--zipf-shape", "nan"), "zipf_shape"),
        (("compare", "--seeds", "1", "--zipf-shape", "nan"), "zipf_shape"),
        (("compare", "--seeds", "1", "--pareto-mean", "inf"), "pareto_mean"),
    ],
    ids=["generate-zipf-nan", "compare-zipf-nan", "compare-pareto-mean-inf"],
)
def test_non_finite_scenario_flag_exits_2(tmp_path, capsys, monkeypatch, argv, field):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *argv, *SMALL_GEO)
    assert_refused(code, stdout, err, 2, f"{field} must be finite")
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize("command", ["generate", "compare"])
@pytest.mark.parametrize(
    "flag, field",
    [("--ratio-bf", "ratio_band_to_fee"), ("--ratio-ie", "ratio_internal_to_external")],
    ids=["ratio-bf", "ratio-ie"],
)
def test_overflowing_ratio_target_is_refused_by_name(tmp_path, capsys, monkeypatch, command,
                                                     flag, field):
    monkeypatch.chdir(tmp_path)
    seed = ("--seed", "1", "--out", "unused.json") if command == "generate" else ("--seeds", "1")
    code, stdout, err = run(capsys, command, *seed, *SMALL_GEO, flag, "400")
    assert_refused(code, stdout, err, 2, f"invalid scenario parameters: {field} is too large")
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize(
    "facilities, clients, reason",
    [
        (["a", "a"], ["c1", "c2"], "duplicate data center id: a"),
        (["a", "b"], [7, "c2"], "client id 7 is not a string"),
        (["a", "b"], "ab", "cannot read UFLP file: clients: expected a list, got str"),
        (["a", "b"], {"a": 1, "b": 2}, "cannot read UFLP file: clients: expected a list, got dict"),
    ],
    ids=["duplicate-facility", "non-string-client", "clients-string", "clients-object"],
)
def test_convert_from_invalid_uflp_exits_2(tmp_path, capsys, facilities, clients, reason):
    uflp = {
        "facilities": [{"id": f, "open_cost": "1"} for f in facilities],
        "clients": clients,
        "connection": [["1", "2"], ["2", "1"]],
    }
    path = write_doc(tmp_path, uflp)
    out = tmp_path / "market.json"
    code, stdout, err = run(capsys, "convert", "--from-uflp", path, "--out", str(out))
    assert_refused(code, stdout, err, 2, reason)
    assert not out.exists()


@pytest.mark.parametrize(
    "node, value, reason",
    [
        ("connection", [["1", "2"], "12"], "connection[1]: expected a list, got str"),
        (
            "facilities",
            [{"id": "a", "open_cost": "1"}, "b"],
            "facilities[1]: expected an object, got str",
        ),
        ("facilities", {"a": "1", "b": "1"}, "facilities: expected a list, got dict"),
    ],
    ids=["connection-row-string", "facility-string", "facilities-object"],
)
def test_convert_from_mistyped_uflp_names_the_node(tmp_path, capsys, node, value, reason):
    uflp = {
        "facilities": [{"id": "a", "open_cost": "1"}, {"id": "b", "open_cost": "1"}],
        "clients": ["c1", "c2"],
        "connection": [["1", "2"], ["2", "1"]],
        node: value,
    }
    path = write_doc(tmp_path, uflp)
    out = tmp_path / "market.json"
    code, stdout, err = run(capsys, "convert", "--from-uflp", path, "--out", str(out))
    assert_refused(code, stdout, err, 2)
    assert err.strip() == f"cannot read UFLP file: {reason}"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("--to-uflp", "uflp.json"), "--to-uflp needs --instance"),
        (("--from-uflp", "uflp.json"), "--from-uflp needs --out"),
    ],
    ids=["to-uflp", "from-uflp"],
)
def test_convert_without_its_counterpart_flag_exits_2(tmp_path, capsys, monkeypatch, argv, reason):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "convert", *argv)
    assert_refused(code, stdout, err, 2)
    assert err.strip() == reason
    assert list(tmp_path.iterdir()) == []


def test_solve_refuses_a_distance_table_past_its_ceiling(tmp_path, capsys, monkeypatch, geo_doc):
    # 2 data centers by 3 clients; the ceiling is lowered so that no test
    # builds a table at the real one.
    monkeypatch.setattr(model, "MAX_DISTANCE_CELLS", 5)
    path = write_doc(tmp_path, geo_doc)
    code, stdout, err = run(capsys, "solve", "--instance", path, "--algorithm", "datum")
    assert_refused(code, stdout, err, 2)
    assert err.strip() == "distance exec model: data_centers * clients is 6, more than 5"


@pytest.mark.parametrize(
    "flags, reason",
    [
        (("--avg-providers-per-client", "1e-300"), "avg_providers_per_client is too small"),
        (("--zipf-shape", "2000", "--levels", "3"), "zipf_shape 2000.0 overflows"),
        (("--zipf-shape", "-2000", "--levels", "3"), "zipf_shape -2000.0 overflows"),
    ],
    ids=["avg-providers-1e-300", "zipf-2000", "zipf-minus-2000"],
)
def test_generate_refuses_degenerate_draws_by_name(tmp_path, capsys, monkeypatch, flags, reason):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(
        capsys, "generate", "--seed", "1", "--out", "unused.json", *SMALL_GEO, *flags
    )
    assert_refused(code, stdout, err, 2, f"invalid scenario parameters: {reason}")
    assert not (tmp_path / "unused.json").exists()
