"""Run the benchmark over several workloads and seeds and summarize.

    python3 perfbench/report.py [--workloads oracle,kato,gkm]
        [--seeds 1-10] [--seconds N] [--trace 0|1] [--record FILE]

Run from the root of a checkout.  Each (workload, seed) is one run of
run.py; the workloads default to those listed in BENCHMARK.json.  With
--trace 0 it prints, per workload, every end-to-end metric by name and
unit (median, quartiles, quartile spread as a share of the median against
the metric's bound in BENCHMARK.json), the timings also as measured, and
failed_frac.
With --trace 1 it prints every per-layer metric per workload and checks
that the counts repeat exactly across runs.  --record writes the
end-to-end summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """run.py's result line, with the untraced timings as measured under
    "measured"."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["measured"] = next(
        (json.loads(line[len("measured "):]) for line in lines if line.startswith("measured ")),
        {},
    )
    return result


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    listed = ",".join(w["name"] for w in BENCHMARK["workloads"])
    parser.add_argument("--workloads", default=listed)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    seeds = _seeds(args.seeds)
    record = {"program_commit": _commit(), "seeds": seeds, "run_seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_one(workload, seed, args.seconds, args.trace) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}")
        summary = {}
        idle = []
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = metric["unit"]
            if args.trace and not any(values):
                idle.append(name)
                continue
            if args.trace and unit == "count":
                same = "repeats" if len(set(values)) == 1 else f"DIFFERS {sorted(set(values))}"
                print(f"  {name:42s} {values[0]:>14.6g} {unit:6s} {same}")
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = f"spread {spread:.3f}" + (f" bound {bound}" if bound is not None else "")
            print(f"  {name:42s} {med:>14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} {note}")
            summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                             "runs": len(values), "spread": spread}
            if name in runs[0]["measured"] and unit != "MB":
                m1, m_med, m3 = quartiles([r["measured"][name] for r in runs])
                m_spread = (m3 - m1) / m_med
                print(f"  {'  as measured':42s} {m_med:>14.6g} {unit:6s} q1 {m1:.6g} "
                      f"q3 {m3:.6g} spread {m_spread:.3f}")
                summary[name]["measured"] = {"median": m_med, "q1": m1, "q3": m3,
                                             "spread": m_spread}
        if idle:
            print(f"  {len(idle)} metrics read 0 on every run (layer not run): {' '.join(idle)}")
        print(f"  {'failed_frac':42s} {failed / attempted:>14.6g} ratio  "
              f"({failed} of {attempted} calls)")
        summary["failed_frac"] = {"unit": "ratio", "value": failed / attempted,
                                  "failed": failed, "attempted": attempted}
        record["workloads"][workload] = summary
        sys.stdout.flush()
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
