"""The qfv benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload oracle|sweep|kato|gkm --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
The seed picks the call orders.  A run repeats samples, each a fresh
interpreter that makes the workload's whole call list once in a closed loop
(one caller, the next call starts when the previous one returns), and
set-up measurements, until the next round would not end within S seconds.
Timings are CPU times in reference seconds (see refspeed.py): each is
scaled by the speed of a fixed reference loop timed next to it, because
the machine's own speed swings by up to 2x over phases that can outlast a
run, and CPU time leaves out the time the process waits for a core.  Every
output of every sample is checked (see gate.py).

--trace 0 reports the end-to-end metrics, and prints them as measured
(wall-clock seconds) too.  --trace 1 alternates untraced and traced
samples and reports the per-layer metrics plus the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import refspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PER_ROTATION = 2
REFERENCE_WINDOW_S = 0.25  # reference loops this close to a call scale it
SETUP_REFERENCE_LOOPS = 10  # timed before and after each set-up
RUN_LIMIT_S = 170  # a run must end well within 180 s
# the set-up, timing the reference loop inside it (argv[1]: this directory)
SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import refspeed
samples = []
with refspeed.sampling(samples):
    import qfv, qfv.cli
    qfv.cli.build_parser()
print(json.dumps(samples))
"""


class BenchError(Exception):
    pass


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["QFV_THREADS"] = "2"  # one worker thread per prime, as by default
    return env


def _remaining(started: float) -> float:
    left = RUN_LIMIT_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("run time limit reached")
    return left


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(root: Path, started: float) -> dict:
    """A fresh interpreter that imports qfv and builds the CLI parser, what
    every CLI invocation pays before any work, without the reference-loop
    runs inside it: {"s": CPU seconds, "wall_s": wall-clock seconds,
    "reference_s": the mean reference-loop time during and around it}."""
    before = refspeed.time_reference(SETUP_REFERENCE_LOOPS)
    cpu0, t0 = _children_cpu_s(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(HERE)], cwd=root, env=_env(root),
        capture_output=True, text=True, timeout=_remaining(started),
    )
    seconds, cpu = time.perf_counter() - t0, _children_cpu_s() - cpu0
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    after = refspeed.time_reference(SETUP_REFERENCE_LOOPS)
    inside = json.loads(proc.stdout)
    reference = statistics.mean([before, after] + [r for *_, r in inside])
    return {
        "s": cpu - sum(r[2] for r in inside),
        "wall_s": seconds - sum(r[1] - r[0] for r in inside),
        "reference_s": reference,
    }


def run_sample(root: Path, work: Path, trace: int, started: float, job: tuple,
               calls: list[dict]) -> dict:
    """One sample process making `calls` in their order, then the gate on
    each of its outputs.  `job` is (workload, pins, spans file)."""
    workload, pins, spans_file = job
    calls_file, result_file = work / "calls.json", work / "result.json"
    outputs_file = work / "outputs.jsonl"
    calls_file.write_text(json.dumps({
        "workload": workload, "calls": workloads.for_worker(calls), "spans": str(spans_file),
    }))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(calls_file), str(result_file),
         str(outputs_file), "--trace", str(trace)],
        cwd=root, env=_env(root), capture_output=True, text=True,
        timeout=_remaining(started),
    )
    if proc.returncode != 0:
        raise BenchError(f"sample failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_file.read_text())
    with outputs_file.open() as fh:
        outputs = [json.loads(line) for line in fh]
    if len(outputs) != len(calls):
        raise BenchError(f"sample gave {len(outputs)} outputs for {len(calls)} calls")
    result["failures"] = gate.check(workload, calls, outputs, pins)
    outputs_file.unlink()
    return result


def run_samples(root, work, deadline, started, kinds, job, calls, seed):
    """Rotations of one sample per kind in `kinds` (0 untraced, 1 traced)
    until one more rotation, as long as the longest so far, would not end
    by the deadline; at least one.  Each rotation makes the calls in a new
    order drawn from the seed, so that a run pools several orders.
    An untraced run also measures set-up SETUP_PER_ROTATION times per
    rotation, so that set-up meets the same machine conditions as the
    samples, and then again while one more, as long as the longest so
    far, ends by the deadline.
    Returns ({kind: [result, ...]}, [set-up, ...])."""
    results: dict[int, list] = {kind: [] for kind in kinds}
    setups: list[dict] = []
    rotation_s: list[float] = []
    rng, order = random.Random(seed), list(calls)
    while True:
        t0 = time.perf_counter()
        rng.shuffle(order)
        for kind in kinds:
            results[kind].append(run_sample(root, work, kind, started, job, list(order)))
        if kinds == (0,):
            setups += [measure_setup(root, started) for _ in range(SETUP_PER_ROTATION)]
        rotation_s.append(time.perf_counter() - t0)
        if time.perf_counter() + max(rotation_s) > deadline:
            break
    setup_s = [0.0]
    while kinds == (0,) and time.perf_counter() + max(setup_s) <= deadline:
        t0 = time.perf_counter()
        setups.append(measure_setup(root, started))
        setup_s.append(time.perf_counter() - t0)
    return results, setups


def _percentile_ms(times: list[float], pct: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[pct - 1] * 1000


def _reference_seconds(cpu_s: float, reference_s: float) -> float:
    return cpu_s * refspeed.REFERENCE_S / reference_s


def call_times(sample: dict, measured: bool = False) -> list[float]:
    """The sample's call times without the reference-loop runs inside
    them: CPU seconds, each scaled by the mean of the reference loops timed
    from REFERENCE_WINDOW_S before it to REFERENCE_WINDOW_S after it, or
    with `measured`, wall-clock seconds as measured."""
    refs = sample["reference"]  # [[start, end, cpu, seconds], ...] in time order
    starts = [r[0] for r in refs]
    out = []
    for start, end, cpu_start, cpu_end in sample["calls"]:
        inside = refs[bisect.bisect_left(starts, start):bisect.bisect_left(starts, end)]
        if measured:
            out.append(end - start - sum(r[1] - r[0] for r in inside))
            continue
        lo = bisect.bisect_left(starts, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(starts, end + REFERENCE_WINDOW_S)
        around = refs[min(lo, len(refs) - 1):max(hi, lo + 1)]
        reference = statistics.mean(r[3] for r in around)
        out.append(_reference_seconds(cpu_end - cpu_start - sum(r[2] for r in inside), reference))
    return out


def sample_wall_s(sample: dict, measured: bool = False) -> float:
    """Time to finish the call list: the sum of the call times."""
    return sum(call_times(sample, measured))


def end_to_end(samples: list[dict], setups: list[dict], measured: bool = False) -> dict[str, float]:
    """Medians over the run: wall_s over samples, call_p50_ms and
    call_p95_ms over every call of every sample, setup_s over set-ups.
    Times are CPU times scaled by the reference-loop times around them;
    with `measured`, wall-clock times as measured."""
    times = [t for s in samples for t in call_times(s, measured)]
    setup = [u["wall_s"] if measured else _reference_seconds(u["s"], u["reference_s"])
             for u in setups]
    return {
        "wall_s": statistics.median(sample_wall_s(s, measured) for s in samples),
        "call_p50_ms": statistics.median(times) * 1000,
        "call_p95_ms": _percentile_ms(times, 95),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Counts from the first traced sample (they repeat exactly), layer
    times as medians over traced samples in seconds as measured, and the
    overhead: traced against untraced wall_s, in reference seconds."""
    per_sample = [tracing.layer_metrics(s["layers"]) for s in traced]
    out = {}
    for metric, unit in tracing.PER_LAYER:
        if metric in per_sample[0]:
            values = [m[metric] for m in per_sample]
            out[metric] = values[0] if unit == "count" else statistics.median(values)
    out["trace.wall_s"] = statistics.median(map(sample_wall_s, traced))
    out["trace.untraced_wall_s"] = statistics.median(map(sample_wall_s, untraced))
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def run(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    if not (root / "src" / "qfv" / "__init__.py").is_file():
        raise BenchError(f"no program at {root / 'src' / 'qfv'}; run from a checkout root")
    work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        pins = workloads.load_pins()
        calls = workloads.generate(workload, seed, work / "inputs", pins)
        spans_file = root / ".perfbench_out" / f"{workload}-seed{seed}.spans.tsv.gz"
        deadline = time.perf_counter() + seconds
        kinds = (0, 1) if trace else (0,)
        results, setups = run_samples(
            root, work, deadline, started, kinds, (workload, pins, spans_file), calls, seed
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [s for kind in kinds for s in results[kind]]
    failures = [f for s in samples for f in s["failures"]]
    attempted = len(calls) * len(samples)
    measured = None
    if trace:
        values = per_layer(results[1], results[0])
        units = dict(tracing.PER_LAYER)
    else:
        values = end_to_end(results[0], setups)
        units = dict(END_TO_END)
        measured = end_to_end(results[0], setups, measured=True)
    return {
        "calls": len(calls),
        "samples": {kind: len(results[kind]) for kind in kinds},
        "reference_ms": [statistics.mean(r for *_, r in s["reference"]) * 1000 for s in samples],
        "measured": measured,
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        out = run(Path.cwd(), args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = out["result"]
    for failure in out["failures"][:20]:
        print(f"FAILED {failure}")
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{out['calls']} calls per sample, samples {out['samples']}"
    )
    print("  reference loop per sample (ms): "
          + " ".join(f"{t:.4f}" for t in out["reference_ms"]))
    measured = out["measured"] or {}
    for name, metric in result["metrics"].items():
        note = f"  (measured {measured[name]:.6g})" if name in measured else ""
        print(f"  {name} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"  failed_frac {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} calls)")
    if out["measured"]:
        print("measured " + json.dumps(out["measured"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
