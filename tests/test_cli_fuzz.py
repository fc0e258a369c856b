"""Mutated instance documents never escape `datamarket`'s error boundary.

Each example takes a small valid instance document, applies a few
mutations (a deleted key or element, a value of another JSON type,
non-finite, huge or negative numbers, a dict turned into a list) and runs
`solve` and `convert --to-uflp` on it. Every run must end with a documented
exit code; any other exception escapes `main` and fails the test.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_instance
from datamarket.cli import ALGORITHMS, main
from datamarket.model import instance_to_json
from datamarket.scenario import ScenarioParams, generate

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}

BASES = (
    instance_to_json(
        generate(ScenarioParams(seed=2, num_data_centers=2, num_providers=2, num_clients=3,
                                levels_per_provider=2))
    ),
    instance_to_json(
        build_instance(
            beta=[[3, 4], [5, 5]], fees=[1, 2], bulk_fees=[2, 3], demands=[1, 2],
            alpha=[[1, 2], [2, 1]],
        )
    ),
)

ODD_VALUES = (
    float("inf"), float("-inf"), float("nan"), "Infinity", "NaN", "-1", -1, -1.5, 0, "0",
    10**30, "1e30", 1e308, "1e21", True, None, "", "x", [], {}, [1, 2], {"a": 1},
)


def node_paths(doc, path=()):
    """Every path of keys and indices from the root to a node."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield from node_paths(child, path + (key,))


def other_shape(value):
    """The same content in another JSON type: dict <-> list, str <-> number."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, str):
        return len(value)
    return str(value)


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(node_paths(doc))
        path = draw(st.sampled_from(paths[1:])) if len(paths) > 1 else ()
        if not path:
            return other_shape(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        kind = draw(st.sampled_from(("delete", "odd", "reshape", "number")))
        if kind == "delete":
            del parent[key]
        elif kind == "odd":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif kind == "reshape":
            parent[key] = other_shape(parent[key])
        else:
            parent[key] = draw(st.one_of(st.integers(-(10**25), 10**25), st.floats()))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=mutated_documents(), algorithm=st.sampled_from(ALGORITHMS))
def test_mutated_instances_end_with_a_documented_exit_code(workdir, doc, algorithm):
    path = workdir / "instance.json"
    path.write_text(json.dumps(doc))
    runs = (
        ["solve", "--instance", str(path), "--algorithm", algorithm,
         "--plan-out", str(workdir / "plan.json")],
        ["convert", "--instance", str(path), "--to-uflp", str(workdir / "uflp.json")],
    )
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in DOCUMENTED_EXIT_CODES, argv
