"""Span recording for the traced run.

Shims go on the names each calling module imported (``lmss.cli.psi`` and
``lmss.theorems.psi`` are separate bindings of one function), so nothing
under ``src/`` changes. A span's self time is its duration minus the time
its child spans cover. Work counts are taken at the same boundaries; the
bookkeeping that derives them runs in its own ``trace.bookkeeping`` span so
it never lands in a layer's self time.

The stable-set stream is a generator consumed by its caller, so it is one
aggregated span per stream: its busy time is the sum of the ``next()``
calls, charged as child time to the span that consumes it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter

# span name -> per-layer self-time metric
SELF_METRIC = {
    "bench.item": "bench.item_self_s",
    "trace.bookkeeping": "trace.bookkeeping_s",
    "cli.main": "cli.self_s",
    "stable.psi": "stable.filter_s",
    "stable.stream": "stable.stream_s",
    "stable.alpha": "stable.alpha_s",
    "greedoid.accessibility": "greedoid.accessibility_s",
    "greedoid.exchange": "greedoid.exchange_s",
    "ops.build": "ops.build_s",
    "theorems.sweep": "theorems.verify_self_s",
    "theorems.verify": "theorems.verify_self_s",
    "theorems.instance": "theorems.instance_s",
    "graph6.encode": "graph6.encode_s",
    "graph6.decode": "graph6.decode_s",
    "graph.gen": "graph.gen_s",
}


class _Span:
    __slots__ = ("id", "parent", "name", "start", "child")

    def __init__(self, sid, parent, name, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.stack: list[_Span] = []
        self.spans: list[tuple] = []      # (item, id, parent, name, start, end, self)
        self.seconds: dict[str, float] = defaultdict(float)  # raw, per metric
        self.scaled: dict[str, float] = defaultdict(float)   # rescaled per item, see commit()
        self._committed: dict[str, float] = {}
        self.counts: Counter = Counter()  # work counts of the current item
        self.item = -1
        self._ids = 0
        self._restore: list[tuple] = []

    # -- spans ----------------------------------------------------------------

    def enter(self, name: str) -> _Span:
        self._ids += 1
        parent = self.stack[-1].id if self.stack else None
        span = _Span(self._ids, parent, name, _now())
        self.stack.append(span)
        return span

    def leave(self) -> float:
        end = _now()
        span = self.stack.pop()
        dur = end - span.start
        self._close(span, span.start, end, dur - span.child)
        if self.stack:
            self.stack[-1].child += dur
        if span.name == "stable.psi":
            self.seconds["stable.psi_s"] += dur
        return dur

    def _close(self, span: _Span, start: float, end: float, self_time: float) -> None:
        self.seconds[SELF_METRIC[span.name]] += self_time
        self.spans.append((self.item, span.id, span.parent, span.name, start, end, self_time))

    @contextmanager
    def bookkeeping(self):
        self.enter("trace.bookkeeping")
        try:
            yield
        finally:
            self.leave()

    def begin_item(self, item: int) -> None:
        self.item = item
        self.counts = Counter()
        self.enter("bench.item")

    def end_item(self) -> tuple[float, Counter]:
        return self.leave(), self.counts

    def reset(self) -> None:
        self.seconds.clear()
        self.scaled.clear()
        self._committed = {}

    def commit(self, scale: float) -> None:
        """Add the seconds recorded since the last commit to ``scaled``, times ``scale``."""
        for name, total in self.seconds.items():
            delta = total - self._committed.get(name, 0.0)
            if delta:
                self.scaled[name] += delta * scale
        self._committed = dict(self.seconds)

    # -- shims ----------------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        def shim(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if after is not None:
                with self.bookkeeping():
                    after(self.counts, args, result)
            return result
        return shim

    def stream(self, fn):
        tracer = self

        def shim(g, *args, **kwargs):
            it = fn(g, *args, **kwargs)
            consumer = tracer.stack[-1]
            in_psi = consumer.name == "stable.psi"
            adj = g.adj
            hoods = set()
            sets = 0
            busy = book = 0.0
            tracer._ids += 1
            sid = tracer._ids
            first = _now()
            try:
                while True:
                    t0 = _now()
                    try:
                        s = next(it)
                    except StopIteration:
                        last = _now() - t0
                        busy += last
                        consumer.child += last
                        return
                    t1 = _now()
                    sets += 1
                    if in_psi:
                        hood, rest = s, s
                        while rest:
                            low = rest & -rest
                            hood |= adj[low.bit_length() - 1]
                            rest ^= low
                        hoods.add(hood)
                    t2 = _now()
                    busy += t1 - t0
                    book += t2 - t1
                    consumer.child += t2 - t0
                    yield s
            finally:
                c = tracer.counts
                c["stable.stable_sets"] += sets
                if in_psi:
                    c["stable.psi_stream_sets"] += sets
                    c["stable.distinct_hoods"] += len(hoods)
                span = _Span(sid, consumer.id, "stable.stream", first)
                tracer._close(span, first, _now(), busy)
                tracer.seconds["trace.bookkeeping_s"] += book
        return shim

    def patch(self, module_name: str, attr: str, shim) -> None:
        module = importlib.import_module(module_name)
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, shim)

    def install(self, lmss) -> None:
        """Shim every layer boundary the workloads cross."""
        stable, greedoid, theorems, ops, graph6 = (
            lmss.stable, lmss.greedoid, lmss.theorems, lmss.ops, lmss.graph6)
        self.patch("lmss.cli", "main", self.timed("cli.main", lmss.cli.main))
        psi = self.timed("stable.psi", stable.psi, _count_psi)
        alpha = self.timed("stable.alpha", stable.alpha, _count("stable.alpha_calls"))
        stream = self.stream(stable.enumerate_stable_sets)
        for mod in ("lmss.cli", "lmss.theorems", "lmss.stable"):
            self.patch(mod, "psi", psi)
            self.patch(mod, "alpha", alpha)
        for mod in ("lmss.theorems", "lmss.stable"):
            self.patch(mod, "enumerate_stable_sets", stream)
        self.patch("lmss.greedoid", "check_accessibility",
                   self.timed("greedoid.accessibility", greedoid.check_accessibility, _count_check))
        self.patch("lmss.greedoid", "check_exchange",
                   self.timed("greedoid.exchange", greedoid.check_exchange, _count_exchange))
        for attr in ("disjoint_union", "zykov_sum", "corona", "composition"):
            self.patch("lmss.theorems", attr, self.timed("ops.build", getattr(ops, attr), _count_build))
        self.patch("lmss.cli", "sweep", self.timed("theorems.sweep", theorems.sweep))
        report = self.timed("theorems.verify", theorems.run_on_instance, _count_report)
        self.patch("lmss.cli", "run_on_instance", report)
        self.patch("lmss.theorems", "run_on_instance", report)
        self.patch("lmss.theorems", "random_instance",
                   self.timed("theorems.instance", theorems.random_instance))
        self.patch("lmss.graph6", "encode", self.timed("graph6.encode", graph6.encode, _count_encode))
        self.patch("lmss.graph6", "decode", self.timed("graph6.decode", graph6.decode, _count_decode))
        for attr in ("random_graph", "random_tree"):
            self.patch("lmss", attr, self.timed("graph.gen", getattr(lmss, attr)))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def write(self, path) -> None:
        """One JSON array per span, after a header line naming the fields."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"fields": ["item", "id", "parent", "name", "start", "end", "self"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# -- work counts, taken where the work happens ------------------------------------

def _count(name):
    def after(c, args, result):
        c[name] += 1
    return after


def _count_psi(c, args, result):
    c["stable.psi_calls"] += 1
    c["stable.members"] += len(result)


def _count_check(c, args, result):
    c["greedoid.checks"] += 1
    c["greedoid.family_members"] += len(args[0])


def _count_exchange(c, args, result):
    sizes = Counter(m.bit_count() for m in args[0])
    c["greedoid.exchange_pair_bound"] += sum(sizes[k] * sizes[k - 1] for k in sizes if k)


def _count_build(c, args, result):
    c["ops.composite_vertices"] += result.graph.n


def _count_report(c, args, result):
    c["theorems.reports"] += 1
    c["theorems.holds"] += bool(result.holds)


def _count_encode(c, args, result):
    c["graph6.bytes"] += len(result)


def _count_decode(c, args, result):
    c["graph6.bytes"] += len(args[0])
