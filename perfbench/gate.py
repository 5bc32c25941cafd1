"""The correctness gate: every call's output against what is known to be
right for it.

A call fails if it raised, exited with another code than the pinned one,
or its output fails the workload's check.  The expected values come from
`pins.json` (written by pin.py at the seed commit) and from the call list
itself (the gkm expectations, which workloads.py derives without `qfv`).
The sample process never sees them; run.py checks its outputs afterwards.
"""
from __future__ import annotations

import json
import re

_FAILING_EDGE = re.compile(r"^\s+failing edge (\d+)-(\d+) on rows \((\d+),(\d+)\)$")
_DOT_EDGE = re.compile(r'^\s+n(\d+) -> n(\d+) \[label="x(\d+)-x(\d+)"\];$')
_DOT_NODE = re.compile(r"^\s+n\d+ \[label=")


def _check_oracle(call, out, pin):
    if out["exit"] != pin["exit"]:
        return f"exit {out['exit']}, pinned {pin['exit']}"
    reports = json.loads(out["stdout"])
    if [rep["p"] for rep in reports] != [2, 3]:
        return "reports are not for primes 2,3"
    for rep in reports:
        if rep["count"] != pin["count"][str(rep["p"])]:
            return f"p={rep['p']} count {rep['count']}, pinned {pin['count'][str(rep['p'])]}"
        if sum(cell["found"] for cell in rep["per_cell"]) != rep["count"]:
            return f"p={rep['p']} per-cell found values do not sum to count"
    if all(rep["match"] for rep in reports) != (pin["exit"] == 0):
        return "match flags disagree with the exit code"
    return None


def _check_sweep(call, out, pin):
    if out["mismatched"]:
        return f"recursion != enumeration on words {out['mismatched'][:3]}"
    if (out["words"], out["tableaux"]) != (pin["words"], pin["tableaux"]):
        return f"{out['words']} words, {out['tableaux']} tableaux; pinned {pin}"
    return None


def _check_kato(call, out, pin):
    if out["exit"] != 0:
        return f"exit {out['exit']}"
    got = json.loads(out["stdout"])
    if got != pin:
        return f"{got}, pinned {pin}"
    return None


def _edges_against(found, call, pin):
    """A listed edge set against the enumeration's and the pinned count."""
    if len(found) != pin["edges"]:
        return f"{len(found)} edges, pinned {pin['edges']}"
    if found != call["edges"]:
        return "edge set differs from the swap enumeration"
    return None


def _check_gkm(call, out, pin):
    if out["exit"] != 0:
        return f"exit {out['exit']}"
    lines = out["stdout"].splitlines()
    if "--format" in call["argv"]:  # the dot export
        nodes = sum(1 for line in lines if _DOT_NODE.match(line))
        if nodes != pin["nodes"]:
            return f"{nodes} nodes, pinned {pin['nodes']}"
        edges = sorted([int(x) for x in m.groups()] for m in map(_DOT_EDGE.match, lines) if m)
        return _edges_against(edges, call, pin)
    # a --check call; a tuple of the wrong length would have exited 2
    verdict = lines[0] if lines else ""
    failing = sorted(
        [int(x) for x in m.groups()] for m in map(_FAILING_EDGE.match, lines[1:]) if m
    )
    want = "member: " + ("false" if call["failing"] else "true")
    if verdict != want or len(failing) != len(lines) - 1:
        return f"verdict {verdict!r}, expected {want!r}"
    if call["tuple"] == "index":  # every edge fails: the list is the edge set
        return _edges_against(failing, call, pin)
    if failing != call["failing"]:
        return f"{len(failing)} failing edges, expected {len(call['failing'])}"
    return None


_CHECKS = {
    "oracle": _check_oracle,
    "sweep": _check_sweep,
    "kato": _check_kato,
    "gkm": _check_gkm,
}


def check(workload: str, calls, outputs, pins) -> list[str]:
    """One message per failed call, for outputs in the order of `calls`."""
    failures = []
    for call, out in zip(calls, outputs, strict=True):
        if "error" in out:
            problem = out["error"]
        else:
            try:
                problem = _CHECKS[workload](call, out, pins[workload][call["key"]])
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"{call['key']}: {problem}")
    return failures
