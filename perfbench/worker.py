"""One sample: a fresh interpreter runs a workload's call list once, in a
closed loop (the next call starts when the previous one returns).

    python3 perfbench/worker.py CALLS.json RESULT.json OUTPUTS.jsonl --trace 0|1

Run from the root of a checkout with `src` on PYTHONPATH.  Each call's
output goes to OUTPUTS.jsonl as soon as the call returns, one JSON line per
call, and is not kept; run.py checks them afterwards.  The calls file holds
no expected values, so peak resident memory is the program's own plus this
small loop.  Every REFERENCE_EVERY_S it times the reference loop (see
refspeed.py).  The result file gets each call's [start, end, cpu_start,
cpu_end], the reference-loop timings as [start, end, cpu, seconds], peak
resident memory and, when traced, the per-layer summary.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refspeed  # noqa: E402


def import_program(root: Path):
    """Import `qfv` from the checkout's own `src`, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qfv
    import qfv.cli

    if Path(qfv.__file__).resolve().parent != src / "qfv":
        raise ImportError(f"qfv imported from {qfv.__file__}, not from {src}")
    return qfv


def _sweep_call(qfv, shape):
    """Enumerate by filtration, histogram the cell dimensions, and compare
    the recursions with the histogram for every word."""
    by_word = qfv.tableaux.enumerate_by_filtration(shape)
    mismatched = []
    for word, ts in by_word.items():
        hist = Counter(t.cell_dim() for t in ts)
        if qfv.betti.f_count(shape, word) != len(ts) or qfv.betti.f_graded(
            shape, word
        ) != qfv.betti.PoincarePoly(hist):
            mismatched.append(list(word))
    return {
        "words": len(by_word),
        "tableaux": sum(len(ts) for ts in by_word.values()),
        "mismatched": mismatched,
    }


def run_calls(qfv, workload: str, calls, tracer=None):
    """Run every call in order, yielding (output, start, end, cpu_start,
    cpu_end) as each returns: `time.perf_counter` and `refspeed.cpu_s`
    readings.
    An output is {"exit", "stdout", "stderr"} for CLI calls, the sweep
    summary for sweep calls, or {"error"} when the call raised."""
    if workload == "sweep":
        shapes = [qfv.Shape.from_json(c["shape"]) for c in calls]
    region = tracer.region if tracer is not None else (lambda name: contextlib.nullcontext())
    for idx, call in enumerate(calls):
        out = io.StringIO()
        err = io.StringIO()
        start, cpu_start = time.perf_counter(), refspeed.cpu_s()
        try:
            with region("bench.call"):
                if workload == "sweep":
                    result = _sweep_call(qfv, shapes[idx])
                else:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = qfv.cli.main(call["argv"])
                    result = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        except Exception as exc:  # a raising call is a failed call, not a crash
            result = {"error": f"{type(exc).__name__}: {exc}"}
        yield result, start, time.perf_counter(), cpu_start, refspeed.cpu_s()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("calls")
    parser.add_argument("result")
    parser.add_argument("outputs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    data = json.loads(Path(args.calls).read_text())
    qfv = import_program(Path.cwd())
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    spans, reference = [], []
    with open(args.outputs, "w") as sink, refspeed.sampling(reference):
        for output, *span in run_calls(qfv, data["workload"], data["calls"], tracer):
            spans.append(span)
            sink.write(json.dumps(output) + "\n")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"calls": spans, "reference": reference, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(Path(data["spans"]))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
