"""Per-layer tracing installed from outside the program.

`install` wraps the public functions of each `qfv` module and the
constructors of `NilModule`, `RowMultiTableau` and `Shape`.  Modules bind
names with `from .linalg import ...` and look them up at call time, so a
wrapper replaces the original under every name that refers to it, in every
`qfv` module and in the package itself.

A span records name, start, end and parent.  Spans live in per-thread
buffers (the oracle runs one worker thread per prime) and are written once,
at the end.  A span opened on a thread with nothing open hangs under the
span the main thread has open, which is the call that started the thread.
A span's self time is its duration minus the part of it that its child
spans cover; children on several threads are merged before subtracting.
"""
from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("cyclic_core", "linalg", "tableaux", "betti", "ffmod", "gkm", "cli")

# (metric, unit).  `<span>.calls|s|self_s` come from spans; other names are
# quantities read off return values, ratios, or the tracer's own figures.
PER_LAYER = [
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("ffmod.count_flags.calls", "count"),
    ("ffmod.count_flags.s", "s"),
    ("ffmod.classify_flags.calls", "count"),
    ("ffmod.classify_flags.s", "s"),
    ("ffmod.flags_counted", "count"),
    ("ffmod.flags_classified", "count"),
    ("ffmod.quotient.calls", "count"),
    ("ffmod.quotient.s", "s"),
    ("ffmod.NilModule.init.calls", "count"),
    ("ffmod.NilModule.init.s", "s"),
    ("ffmod.quotients_per_flag", "ratio"),
    *[
        (f"linalg.{fn}.{kind}", "count" if kind == "calls" else "s")
        for fn in ("rref_mod", "kernel_mod", "reduce_vector_mod", "matvec_mod")
        for kind in ("calls", "s", "self_s")
    ],
    ("linalg.rank_rational.calls", "count"),
    ("linalg.rank_rational.s", "s"),
    ("betti.orbit_dim.calls", "count"),
    ("betti.orbit_dim.s", "s"),
    ("tableaux.enumerate_by_filtration.calls", "count"),
    ("tableaux.enumerate_by_filtration.s", "s"),
    ("tableaux.tableaux_produced", "count"),
    ("tableaux.cell_dim.calls", "count"),
    ("tableaux.cell_dim.s", "s"),
    ("tableaux.enumerate_tableaux.calls", "count"),
    ("tableaux.enumerate_tableaux.s", "s"),
    ("tableaux.RowMultiTableau.init.calls", "count"),
    ("tableaux.RowMultiTableau.init.s", "s"),
    ("betti.f_count.calls", "count"),
    ("betti.f_count.s", "s"),
    ("betti.f_graded.calls", "count"),
    ("betti.f_graded.s", "s"),
    ("betti.kato_gdim.calls", "count"),
    ("betti.kato_gdim.s", "s"),
    ("betti.kato_gdim.self_s", "s"),
    ("betti.words_iterated", "count"),
    ("gkm.build_gkm_graph.calls", "count"),
    ("gkm.build_gkm_graph.s", "s"),
    ("gkm.admissible_swaps.calls", "count"),
    ("gkm.admissible_swaps.s", "s"),
    ("gkm.swap_candidates", "count"),
    ("gkm.edges", "count"),
    ("gkm.edges_per_candidate", "ratio"),
    ("gkm.membership_check.calls", "count"),
    ("gkm.membership_check.s", "s"),
    ("gkm.failing_edges", "count"),
    ("cyclic_core.validate_word.calls", "count"),
    ("cyclic_core.Shape.init.calls", "count"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
]


def _add(quantity: str, measure):
    def post(counts: Counter, result):
        counts[quantity] += measure(result)
        return result

    return post


def _count_words(counts: Counter, words):
    for word in words:
        counts["betti.words_iterated"] += 1
        yield word


# work done, read off the return value of the wrapped call
QUANTITIES = {
    "ffmod.count_flags": _add("ffmod.flags_counted", lambda n: n),
    "ffmod.classify_flags": _add("ffmod.flags_classified", lambda d: sum(d.values())),
    "tableaux.enumerate_tableaux": _add("tableaux.tableaux_produced", len),
    "tableaux.enumerate_by_filtration": _add(
        "tableaux.tableaux_produced", lambda d: sum(map(len, d.values()))
    ),
    "gkm.admissible_swaps": _add("gkm.swap_candidates", len),
    "gkm.build_gkm_graph": _add("gkm.edges", lambda g: len(g.edges)),
    "gkm.membership_check": _add("gkm.failing_edges", lambda r: len(r[1])),
    "betti.multiset_words": _count_words,
}


def _rule(module: str, attr: str):
    """How to wrap public function `attr` of `module`: "span", "count" or
    None.  The cyclic_core helpers run millions of times per workload and
    get a call count at most; the cli layer is one span, so its helpers
    count as its self time; `tableaux.cell_dim` is an alias of the method
    that carries that span."""
    if module == "cyclic_core":
        return "count" if attr == "validate_word" else None
    if module == "cli":
        return "span" if attr == "main" else None
    if (module, attr) == ("tableaux", "cell_dim"):
        return None
    return "span"


class _Buffer:
    __slots__ = ("thread", "stack", "counts", "ids", "names", "parents", "starts", "ends")

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.ids = array("q")
        self.names = array("l")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")

    def record(self, sid: int, nid: int, parent: int, start: float, end: float) -> None:
        self.ids.append(sid)
        self.names.append(nid)
        self.parents.append(parent)
        self.starts.append(start)
        self.ends.append(end)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = itertools.count().__next__
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap_span(self, name: str, fn, post=None):
        nid = self._name_id(name)
        buffer, next_id, clock = self._buffer, self._next_id, time.perf_counter
        main_stack = self._main.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else -1)
            sid = next_id()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.record(sid, nid, parent, start, end)
            return post(buf.counts, result) if post is not None else result

        return wrapper

    def wrap_count(self, name: str, fn):
        buffer = self._buffer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buffer().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around code of the benchmark's own, such as one call."""
        nid = self._name_id(name)
        buf = self._buffer()
        parent = buf.stack[-1] if buf.stack else -1
        sid = self._next_id()
        buf.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            buf.stack.pop()
            buf.record(sid, nid, parent, start, end)

    def _spans(self):
        """Parallel lists indexed by span id: name, parent, start, end, thread."""
        total = sum(len(b.ids) for b in self._buffers)
        name, parent, thread = [0] * total, [-1] * total, [0] * total
        start, end = [0.0] * total, [0.0] * total
        for b in self._buffers:
            for sid, nid, par, s, e in zip(b.ids, b.names, b.parents, b.starts, b.ends):
                name[sid], parent[sid], start[sid], end[sid] = nid, par, s, e
                thread[sid] = b.thread
        return name, parent, start, end, thread

    def summary(self) -> dict:
        """{"spans": {name: {calls, s, self_s}}, "counts": {...}, "span_total"}."""
        name, parent, start, end, thread = self._spans()
        total = len(name)
        covered = [0.0] * total
        merged: dict[int, list] = {
            p: [] for i, p in enumerate(parent) if p >= 0 and thread[i] != thread[p]
        }
        for i, p in enumerate(parent):
            if p < 0:
                continue
            if p in merged:
                merged[p].append((start[i], end[i]))
            else:  # children on the parent's own thread never overlap
                covered[p] += end[i] - start[i]
        for p, intervals in merged.items():
            covered[p] = _union(sorted(intervals), start[p], end[p])
        spans: dict[str, dict] = {}
        for i in range(total):
            entry = spans.setdefault(self.names[name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = end[i] - start[i]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - covered[i]
        counts: Counter = Counter()
        for b in self._buffers:
            counts.update(b.counts)
        return {"spans": spans, "counts": dict(counts), "span_total": total}

    def write_spans(self, path: Path) -> None:
        """All spans as gzipped TSV: id, name, parent, start, end, thread."""
        name, parent, start, end, thread = self._spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tparent\tstart\tend\tthread\n")
            for sid in range(len(name)):
                fh.write(
                    f"{sid}\t{self.names[name[sid]]}\t{parent[sid]}\t"
                    f"{start[sid]:.9f}\t{end[sid]:.9f}\t{thread[sid]}\n"
                )


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of sorted intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in intervals:
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def install(tracer: Tracer) -> None:
    import qfv

    modules = [importlib.import_module(f"qfv.{m}") for m in MODULES]
    namespaces = [qfv, *modules]

    def replace(original, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapper)

    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            rule = _rule(short, attr)
            if rule == "span":
                replace(obj, tracer.wrap_span(name, obj, QUANTITIES.get(name)))
            elif rule == "count":
                replace(obj, tracer.wrap_count(name, obj))

    ffmod, tableaux, cyclic_core = qfv.ffmod, qfv.tableaux, qfv.cyclic_core
    ffmod.NilModule.__init__ = tracer.wrap_span("ffmod.NilModule.init", ffmod.NilModule.__init__)
    rmt = tableaux.RowMultiTableau
    rmt.__init__ = tracer.wrap_span("tableaux.RowMultiTableau.init", rmt.__init__)
    rmt.cell_dim = tracer.wrap_span("tableaux.cell_dim", rmt.cell_dim)
    cyclic_core.Shape.__init__ = tracer.wrap_count("cyclic_core.Shape.init", cyclic_core.Shape.__init__)


def layer_metrics(summary: dict) -> dict[str, float]:
    """Every PER_LAYER metric that the summary determines (all but the
    trace.* timings); 0 for layers the workload never ran."""
    spans, counts = summary["spans"], summary["counts"]

    def span_field(base: str, field: str) -> float:
        if base in spans:
            return spans[base][field]
        return counts.get(base, 0) if field == "calls" else 0.0

    out: dict[str, float] = {}
    for metric, unit in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s"):
            out[metric] = span_field(base, field)
        elif unit == "count" and not metric.startswith("trace."):
            out[metric] = counts.get(metric, 0)
    flags = out["ffmod.flags_counted"] + out["ffmod.flags_classified"]
    out["ffmod.quotients_per_flag"] = out["ffmod.quotient.calls"] / flags if flags else 0.0
    cands = out["gkm.swap_candidates"]
    out["gkm.edges_per_candidate"] = out["gkm.edges"] / cands if cands else 0.0
    out["trace.spans"] = summary["span_total"]
    return out
