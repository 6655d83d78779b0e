"""Span tracer that wraps bearlab's public functions from outside the package.

Each wrapped function records a span: its name, its parent span, its
duration and its self time (the duration minus the part of its interval that
child spans cover). Spans are folded into per-(name, parent) totals in memory
as they close, so a round with hundreds of thousands of scored contexts stays
small. Counters ride on the same wrappers (rows scored, tape records,
beam expansions).

Evaluation fans out over a thread pool, so spans open on worker threads. A
worker span whose own thread has no open span takes the innermost open span
of the main thread (the `experiment.evaluate` call that started the pool) as
its parent; such cross-thread children may overlap each other, so the parent
subtracts the union of their intervals rather than their sum. Self times of
spans on worker threads are thread-seconds: with two workers they add up to
about twice the wall time of the pool.

Wrappers replace the attribute that callers actually look up. `experiment`
imports `beam_search`, `exhaustive_rank`, `classify_positive`,
`threshold_indices`, `prefix_objective_reference` and `aggregate_report` by
name, and `objectives` imports `decode.beam_search` at call time, so both the
defining module and the importing module are patched.
"""

import threading
import time

from bearlab import autodiff, catalog, data, decode, experiment, metrics, model, objectives


def _tape_records(args, kwargs):
    return {"autodiff.tape_records": args[0].tape.n_records()}


def _rows(args, kwargs):
    return {"model.step_distributions.rows": len(args[1])}


def _expansions(result):
    _, trace = result
    return {"decode.beam_search.expansions": sum(len(s.expansions) for s in trace.steps)}


# (span name, [(owner, attribute), ...], counter before the call, counter on the result)
LAYERS = [
    ("model.next_token_distribution",
     [(model.SequenceModel, "next_token_distribution")], None, None),
    ("model.step_distributions", [(model.SequenceModel, "step_distributions")], _rows, None),
    ("model.batch_forward", [(model.SequenceModel, "batch_forward")], None, None),
    ("autodiff.backward", [(autodiff, "backward")], _tape_records, None),
    ("objectives.threshold_indices",
     [(objectives, "threshold_indices"), (experiment, "threshold_indices")], None, None),
    ("objectives.prefix_objective_reference",
     [(objectives, "prefix_objective_reference"),
      (experiment, "prefix_objective_reference")], None, None),
    ("decode.beam_search", [(decode, "beam_search"), (experiment, "beam_search")],
     None, _expansions),
    ("decode.exhaustive_rank", [(decode, "exhaustive_rank"), (experiment, "exhaustive_rank")],
     None, None),
    ("decode.classify_positive",
     [(decode, "classify_positive"), (experiment, "classify_positive")], None, None),
    ("metrics.aggregate_report",
     [(metrics, "aggregate_report"), (experiment, "aggregate_report")], None, None),
    ("catalog.max_item_length", [(catalog.PrefixTrie, "max_item_length")], None, None),
    ("catalog.valid_next_tokens", [(catalog.PrefixTrie, "valid_next_tokens")], None, None),
    ("experiment.validation_ndcg10", [(experiment, "validation_ndcg10")], None, None),
    ("experiment.train", [(experiment, "train")], None, None),
    ("experiment.evaluate", [(experiment, "evaluate")], None, None),
    ("experiment.Checkpoint.load", [(experiment.Checkpoint, "load")], None, None),
    ("experiment.Checkpoint.save", [(experiment.Checkpoint, "save")], None, None),
    ("data.generate_synthetic", [(data, "generate_synthetic")], None, None),
    ("experiment.prepare_dataset", [(experiment, "prepare_dataset")], None, None),
]

SETUP_LAYERS = ("data.generate_synthetic", "experiment.prepare_dataset",
                "experiment.Checkpoint.save")


class _Span:
    __slots__ = ("name", "child_time", "foreign")

    def __init__(self, name):
        self.name = name
        self.child_time = 0.0   # same-thread children run one after another
        self.foreign = []       # (start, end) of children on other threads


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Install with `install()`, run the traced code, then `uninstall()` and
    read `table()` / `counters()`."""

    def __init__(self, names=None):
        self._layers = [layer for layer in LAYERS if names is None or layer[0] in names]
        self._local = threading.local()
        self._main_stack = None
        self._tables = []     # one {(name, parent): [calls, total_s, self_s]} per thread
        self._counts = []     # one {counter: value} per thread
        self._saved = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            stack, table, counts = [], {}, {}
            state = self._local.state = (stack, table, counts)
            self._tables.append(table)
            self._counts.append(counts)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return state

    def _wrap(self, fn, name, before, after):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, table, counts = self._thread_state()
            if stack:
                parent, cross = stack[-1], False
            elif self._main_stack and stack is not self._main_stack:
                parent, cross = self._main_stack[-1], True
            else:
                parent, cross = None, False
            if before is not None:
                for key, value in before(args, kwargs).items():
                    counts[key] = counts.get(key, 0) + value
            span = _Span(name)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                covered = span.child_time
                if span.foreign:
                    covered += _union_length(span.foreign, start, end)
                key = (name, parent.name if parent is not None else None)
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - covered
                if parent is not None:
                    if cross:
                        parent.foreign.append((start, end))
                    else:
                        parent.child_time += duration
            if after is not None:
                for key, value in after(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, targets, before, after in self._layers:
            for owner, attr in targets:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, before, after))
                else:
                    new = self._wrap(raw, name, before, after)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def table(self) -> dict:
        """{(name, parent name or None): [calls, total_s, self_s]} over all threads."""
        merged = {}
        for table in self._tables:
            for key, (calls, total, own) in table.items():
                row = merged.setdefault(key, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
        return merged

    def counters(self) -> dict:
        merged = {}
        for counts in self._counts:
            for key, value in counts.items():
                merged[key] = merged.get(key, 0) + value
        return merged


def layer_totals(table: dict) -> dict:
    """{name: [calls, total_s, self_s]} summed over parents."""
    out = {}
    for (name, _parent), (calls, total, own) in table.items():
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += own
    return out
