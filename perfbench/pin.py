"""Write `pins.json`: the values the correctness gate compares against.

    python3 perfbench/pin.py

Run from the root of a checkout.  The committed pins were produced by the
commit that introduced the benchmark and are never regenerated to make a
failing call pass: a pin records what the seed program did, including the
40 oracle calls that exit 4 because of the known criterion 3 defect.

Pinned per call: oracle exit code and brute-force counts at p = 2, 3;
kato JSON output (coefficients and orbit_dim); sweep word and tableau
counts per shape; gkm node and edge counts per instance.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import workloads
from worker import import_program, run_calls


def main() -> int:
    root = Path.cwd()
    qfv = import_program(root)
    work = root / ".perfbench_work" / "pin"
    pins: dict[str, dict] = {}
    try:
        calls = workloads.generate("oracle", 0, work, pins={})
        outputs = [out for out, *_ in run_calls(qfv, "oracle", calls)]
        pins["oracle"] = {
            c["key"]: {
                "exit": out["exit"],
                "count": {str(r["p"]): r["count"] for r in json.loads(out["stdout"])},
            }
            for c, out in zip(calls, outputs)
        }
        calls = workloads.generate("kato", 0, work, pins={})
        outputs = [out for out, *_ in run_calls(qfv, "kato", calls)]
        pins["kato"] = {
            c["key"]: json.loads(out["stdout"]) for c, out in zip(calls, outputs)
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    pins["sweep"] = {}
    ns, max_boxes, max_rows = workloads.SWEEP_GRID
    for n in ns:
        for rows in workloads.grid_shapes(n, max_boxes, max_rows):
            shape = qfv.Shape.from_json(workloads.shape_json(n, rows))
            by_word = qfv.tableaux.enumerate_by_filtration(shape)
            pins["sweep"][workloads.key_of(n, rows)] = {
                "words": len(by_word),
                "tableaux": sum(map(len, by_word.values())),
            }

    pins["gkm"] = {}
    n, rows, word = workloads.REFERENCE
    instances = workloads.grid_instances(*workloads.SMALL_GRID)
    instances.append((n, workloads.canonical(n, rows), word))
    for n, rows, word in instances:
        shape = qfv.Shape.from_json(workloads.shape_json(n, rows))
        graph = qfv.build_gkm_graph(shape, word)
        pins["gkm"][workloads.key_of(n, rows, word)] = {
            "nodes": len(graph.nodes),
            "edges": len(graph.edges),
        }

    workloads.PINS_FILE.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
