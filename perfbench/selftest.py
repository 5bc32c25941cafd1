"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it runs a small subset
of the call list in this process and requires the gate to pass it, then
corrupts one expected value and requires exactly that call to count as
failed; for gkm it does so for the dot export and for each kind of check
tuple.  It also requires the metric names and units in BENCHMARK.json to
be the ones run.py reports.  Exits 0 when every check holds.
"""
from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import run
import tracing
import workloads
from gate import check
from worker import import_program, run_calls

SUBSET = 6


def _corrupt(workload: str, call: dict, pins: dict) -> None:
    """Make one expected value wrong for `call`."""
    pin = pins[workload][call["key"]]
    if workload == "oracle":
        pin["count"]["2"] += 1
    elif workload == "sweep":
        pin["tableaux"] += 1
    elif workload == "kato":
        pin["orbit_dim"] += 1
    elif call.get("tuple") in ("member", "rows"):
        call["failing"] = call["failing"] + [[0, 0, 1, 2]]
    elif call.get("tuple") == "index":  # one edge on swapped rows
        a, b, p, q = call["edges"][0]
        call["edges"] = [[a, b, q, p]] + call["edges"][1:]
    else:  # the dot export
        pin["edges"] += 1


def main() -> int:
    root = Path.cwd()
    qfv = import_program(root)
    pins = workloads.load_pins()
    work = root / ".perfbench_work" / "selftest"
    problems = []
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for key, listed in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != listed:
            problems.append(f"BENCHMARK.json {key} differs from the metrics the code reports")
    try:
        for workload in workloads.WORKLOADS:
            calls = workloads.generate(workload, 1, work / workload, pins)
            if workload == "oracle":
                # the subset must hold a call pinned to exit 4
                calls.sort(key=lambda c: pins["oracle"][c["key"]]["exit"] != 4)
            corrupted = 1
            if workload == "gkm":
                # the subset starts with the dot export and a call with each
                # kind of tuple, each on a graph with edges; each gets corrupted
                kinds = ("dot", "rows", "index", "member")
                firsts = [
                    next(i for i, c in enumerate(calls) if c.get("tuple", "dot") == kind and c["edges"])
                    for kind in kinds
                ]
                calls = [calls[i] for i in firsts] + [
                    c for i, c in enumerate(calls) if i not in firsts
                ]
                corrupted = len(kinds)
            subset = calls[:SUBSET]
            outputs = [out for out, *_ in run_calls(qfv, workload, subset)]
            failures = check(workload, subset, outputs, pins)
            if failures:
                problems.append(f"{workload}: subset failed the gate: {failures}")
            for pos in range(corrupted):
                bad_pins = copy.deepcopy(pins)
                bad_calls = copy.deepcopy(subset)
                _corrupt(workload, bad_calls[pos], bad_pins)
                caught = check(workload, bad_calls, outputs, bad_pins)
                if len(caught) != 1 or not caught[0].startswith(bad_calls[pos]["key"]):
                    problems.append(f"{workload}: a wrong expected value gave {caught}")
                print(f"{workload}: {len(subset)} calls pass; wrong expected value "
                      f"caught: {[c[:160] for c in caught]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"SELFTEST FAILED {problem}")
    print(json.dumps({"ok": not problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
