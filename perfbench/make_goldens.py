"""Pin the benchmark's inputs and answers: write goldens.json.

    python3 perfbench/make_goldens.py

For every workload and instance seed (default pool and held-out) it records
the instance fingerprint and the exact oper/exec/purch/total strings of each
algorithm, taken from `datamarket compare` run with the workload's flags.
The fingerprint is that of the instance the benchmark builds; for the
generated-distance workloads it must equal the one `compare` prints. The
explicit-tensor workload is a rewrite of the instance `compare` generates,
so its answers must match too, and the benchmark checks that they do.

Run it only when a change is meant to alter the workloads' instances or
answers, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from run import no_span  # importing run puts the checkout's src/ on the path
from workloads import GOLDENS_PATH, WORKLOADS, build_instance

from datamarket.cli import fingerprint
from datamarket.cli import main as datamarket_main


def compare_rows(workload) -> list[dict]:
    argv = [
        "compare",
        "--seeds", ",".join(str(s) for s in workload.seeds()),
        "--algorithms", ",".join(workload.algorithms),
        *workload.compare_flags(),
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = datamarket_main(argv)
    if code != 0:
        raise RuntimeError(f"datamarket {' '.join(argv)} exited {code}: {err.getvalue()}")
    header, *lines = out.getvalue().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def goldens_for(workload) -> dict:
    entry: dict = {}
    for row in compare_rows(workload):
        if row["error"]:
            raise RuntimeError(f"{workload.name} seed {row['seed']} {row['algorithm']}: {row['error']}")
        seed = entry.setdefault(row["seed"], {"fingerprint": None, "totals": {}})
        seed["totals"][row["algorithm"]] = {k: row[k] for k in ("oper", "exec", "purch", "total")}
        built = seed["fingerprint"] or fingerprint(build_instance(workload, int(row["seed"]), no_span))
        if not workload.explicit and built != row["fingerprint"]:
            raise RuntimeError(
                f"{workload.name} seed {row['seed']}: built {built}, compare generated {row['fingerprint']}"
            )
        seed["fingerprint"] = built
    return entry


def main() -> int:
    goldens = {name: goldens_for(w) for name, w in WORKLOADS.items()}
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
