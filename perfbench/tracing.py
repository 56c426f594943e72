"""Span tracing from outside the program, for the traced benchmark run.

Nothing under ``src/`` is edited: :func:`install` wraps the public entry
points of each ``repro`` layer (class methods in place, module functions
in every ``repro`` module that imported them) with a recorder. Each span
is ``[name, layer, start, end, parent, thread, extra]``; ``parent`` is
the enclosing span on the same thread. Work handed to another thread is
parented explicitly: a ``Runtime.map`` task to the ``runtime.map`` span
that submitted it, a shard load on a reader worker to that reader's
pass. Any other span opened on a thread with nothing open there has no
parent. Spans stay in memory; :meth:`Tracer.dump` writes them at exit.

Self time is a span's duration minus the union of its children's
intervals, so time on two pool threads under one ``runtime.map`` is not
double-subtracted.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, class or None, attribute, span name, layer). Classes are
# patched in place; module functions are patched wherever imported.
ENTRY_POINTS = [
    # dataframe: the frame operations the tutorial cells call
    *[("repro.dataframe.frame", "DataFrame", attr, f"dataframe.{attr}",
       "dataframe")
      for attr in ("from_records", "take", "filter", "drop_rows", "sort_by",
                   "sample", "split", "select", "drop", "rename",
                   "with_column", "set_values", "join", "fuzzy_join",
                   "group_by", "to_numpy", "to_shards", "from_shards")],
    # text encoding
    *[("repro.text.vectorize", cls, attr, f"text.{attr}", "text")
      for cls in ("SentenceEmbedder", "HashingVectorizer", "TfidfVectorizer")
      for attr in ("fit", "transform", "fit_transform")],
    ("repro.text.tokenize", None, "tokenize", "text.tokenize", "text"),
    # model fit / predict
    *[(module, cls, "fit", "ml.fit", "ml")
      for module, cls in (("repro.ml.linear", "LogisticRegression"),
                          ("repro.ml.linear", "LinearRegression"),
                          ("repro.ml.linear", "LinearSVC"),
                          ("repro.ml.neighbors", "KNeighborsClassifier"),
                          ("repro.ml.naive_bayes", "GaussianNB"),
                          ("repro.ml.tree", "DecisionTreeClassifier"),
                          ("repro.ml.ensemble", "RandomForestClassifier"))],
    *[(module, cls, attr, "ml.predict", "ml")
      for module, cls in (("repro.ml.linear", "LogisticRegression"),
                          ("repro.ml.linear", "LinearRegression"),
                          ("repro.ml.linear", "LinearSVC"),
                          ("repro.ml.neighbors", "KNeighborsClassifier"),
                          ("repro.ml.naive_bayes", "GaussianNB"),
                          ("repro.ml.tree", "DecisionTreeClassifier"),
                          ("repro.ml.ensemble", "RandomForestClassifier"))
      for attr in ("predict", "predict_proba")],
    # the solver behind LogisticRegression.fit, which the warm-start
    # coalition kernel calls directly for its certified steps and replays
    ("repro.ml.linear", None, "_minimize", "ml.solve", "ml"),
    # importance estimators and the coalition batch entry points
    ("repro.importance.shapley_mc", "MonteCarloShapley", "score",
     "importance.shapley_mc", "importance"),
    ("repro.importance.banzhaf", "DataBanzhaf", "score",
     "importance.banzhaf", "importance"),
    ("repro.importance.loo", None, "leave_one_out", "importance.loo",
     "importance"),
    ("repro.importance.knn_shapley", None, "knn_shapley",
     "importance.knn_shapley", "importance"),
    ("repro.importance.base", "Utility", "evaluate_many",
     "importance.evaluate_many", "importance"),
    ("repro.importance.base", "Utility", "walk_permutations",
     "importance.walk_permutations", "importance"),
    # pipelines
    ("repro.pipelines.engine", "DataPipeline", "run", "pipelines.run",
     "pipelines"),
    ("repro.pipelines.engine", "PipelineResult", "apply",
     "pipelines.apply", "pipelines"),
    ("repro.pipelines.datascope", None, "datascope_importance",
     "pipelines.datascope", "pipelines"),
    ("repro.pipelines.datascope", None, "remove_and_evaluate",
     "pipelines.remove_and_evaluate", "pipelines"),
    # uncertain (Zorro)
    ("repro.uncertain.zorro", None, "encode_symbolic",
     "uncertain.encode_symbolic", "uncertain"),
    ("repro.uncertain.zorro", None, "estimate_worst_case_loss",
     "uncertain.worst_case_loss", "uncertain"),
    # cleaning and error injection
    ("repro.cleaning.iterative", "IterativeCleaner", "run", "cleaning.run",
     "cleaning"),
    ("repro.cleaning.oracle", "CleaningOracle", "clean", "cleaning.oracle",
     "cleaning"),
    ("repro.errors.labels", None, "inject_label_errors",
     "errors.inject_labels", "errors"),
    ("repro.errors.missing", None, "inject_missing",
     "errors.inject_missing", "errors"),
    # data: shard writer, shard loads, reader passes
    ("repro.data.shards", "ShardWriter", "append", "data.write_shard",
     "data"),
    ("repro.data.shards", "ShardWriter", "finalize", "data.finalize", "data"),
    ("repro.data.shards", "ShardedDataset", "load_shard", "data.load_shard",
     "data"),
    ("repro.data.reader", "ShardReader", "read_all", "data.read_all", "data"),
    # serve: admission, leases, per-job checkpoint records
    ("repro.serve.server", "Server", "submit", "serve.submit", "serve"),
    ("repro.serve.lease", "LeaseManager", "acquire", "serve.lease", "serve"),
    ("repro.serve.lease", "LeaseManager", "heartbeat", "serve.lease",
     "serve"),
    ("repro.serve.lease", "LeaseManager", "release", "serve.lease", "serve"),
    ("repro.runtime.checkpoint", "CheckpointStore", "write",
     "serve.checkpoint", "serve"),
]

class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._reader_passes: dict[int, list] = {}
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, layer: str, parent) -> list:
        record = [name, layer, time.perf_counter(), 0.0, parent,
                  threading.get_ident(), None]
        self.spans.append(record)
        return record

    def _open(self, name: str, layer: str, parent=None) -> list:
        """Open a span on this thread. Its parent is ``parent`` when
        given, else the innermost span open on this thread, else the
        span this thread works for (a reader pass), else none."""
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else getattr(self._local, "root",
                                                     None)
        record = self._record(name, layer, parent)
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[3] = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, layer: str):
        """Return ``fn`` wrapped in a span (with per-layer extras)."""
        before, after = _EXTRAS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name, layer)
            state = before(args) if before is not None else None
            try:
                result = fn(*args, **kwargs)
            except Exception:
                record[6] = {"error": 1}
                raise
            finally:
                self._close(record)
            if after is not None:
                record[6] = after(state, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Patch every entry point in :data:`ENTRY_POINTS`."""
        for module_name, cls_name, attr, name, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if cls_name is not None:
                cls = getattr(module, cls_name)
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self.wrap(original.__func__, name, layer))
                else:
                    wrapped = self.wrap(original, name, layer)
                setattr(cls, attr, wrapped)
                self._patched.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, layer)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") \
                        and getattr(other, attr, None) is original:
                    setattr(other, attr, wrapped)
                    self._patched.append((other, attr, original))
        self._install_runtime_map()
        self._install_reader()

    def _install_runtime_map(self) -> None:
        """Wrap ``Runtime.map`` in a ``runtime.map`` span and each task
        it fans out in a ``runtime.task`` span parented to it, on
        whichever pool thread runs the task. The task body is importance
        code (a walk or a coalition batch); the task span's duration is
        the worker's busy time."""
        from repro.runtime.runtime import Runtime

        original = Runtime.map
        tracer = self

        def traced_map(runtime, fn, tasks, *, shared=None, stage="map"):
            record = tracer._open("runtime.map", "runtime")

            def timed_task(shared_arg, task):
                span = tracer._open("runtime.task", "importance",
                                    parent=record)
                try:
                    return fn(shared_arg, task)
                finally:
                    tracer._close(span)

            try:
                result = original(runtime, timed_task, tasks, shared=shared,
                                  stage=stage)
            except Exception:
                record[6] = {"error": 1}
                raise
            finally:
                tracer._close(record)
            record[6] = {"tasks": len(result),
                         "workers": runtime.executor.effective_workers}
            return result

        Runtime.map = traced_map
        self._patched.append((Runtime, "map", original))

    def _install_reader(self) -> None:
        """A reader pass is a generator: record it as a ``data.read_iter``
        span, time the consumer's waits for the next shard, and parent
        the shard loads on the reader's worker threads to the pass."""
        from repro.data.reader import ShardReader

        original_iter = ShardReader.__iter__
        original_loop = ShardReader._worker_loop
        tracer = self

        def traced_iter(reader):
            # Not a child of the consumer's span: the waits stay in the
            # consumer's self time and are reported as read_wait_s.
            record = tracer._record("data.read_iter", "data", None)
            tracer._reader_passes[id(reader)] = record
            inner = original_iter(reader)
            waited = 0.0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        batch = next(inner)
                    except StopIteration:
                        return
                    finally:
                        waited += time.perf_counter() - start
                    yield batch
            finally:
                record[3] = time.perf_counter()
                record[6] = {"wait": waited}
                tracer._reader_passes.pop(id(reader), None)

        def traced_loop(reader, lane):
            tracer._local.root = tracer._reader_passes.get(id(reader))
            try:
                return original_loop(reader, lane)
            finally:
                tracer._local.root = None

        ShardReader.__iter__ = traced_iter
        ShardReader._worker_loop = traced_loop
        self._patched.append((ShardReader, "__iter__", original_iter))
        self._patched.append((ShardReader, "_worker_loop", original_loop))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """``id(span) -> self seconds`` for every closed span."""
        children: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[4] is not None:
                children[id(span[4])].append(span)
        result = {}
        for span in self.spans:
            start, end = span[2], span[3]
            if end <= 0.0:
                continue
            covered = 0.0
            kids = children.get(id(span))
            if kids:
                intervals = sorted((max(k[2], start), min(k[3], end))
                                   for k in kids if k[3] > 0.0)
                cur_start = cur_end = None
                for lo, hi in intervals:
                    if hi <= lo:
                        continue
                    if cur_end is None or lo > cur_end:
                        if cur_end is not None:
                            covered += cur_end - cur_start
                        cur_start, cur_end = lo, hi
                    else:
                        cur_end = max(cur_end, hi)
                if cur_end is not None:
                    covered += cur_end - cur_start
            result[id(span)] = (end - start) - covered
        return result

    def dump(self, path) -> None:
        """Write every span as one gzipped JSON line."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span[0], "layer": span[1],
                    "start": span[2], "end": span[3],
                    "parent": ids.get(id(span[4])) if span[4] else None,
                    "thread": span[5], "extra": span[6]}) + "\n")


def _utility_counts(args) -> tuple:
    utility = args[0]
    return utility.calls, utility.kernel_steps, utility.fallback_retrains


def _utility_work(before, args, result) -> dict:
    """Work one batch did, read off the utility's own counters."""
    calls, steps, fallbacks = (now - then for now, then
                               in zip(_utility_counts(args), before))
    return {"evals": calls + steps, "kernel_steps": steps,
            "fallback_retrains": fallbacks}


# span name -> (before(args), after(before, args, result) -> extra dict)
_EXTRAS = {
    "importance.evaluate_many": (_utility_counts, _utility_work),
    "importance.walk_permutations": (_utility_counts, _utility_work),
    "cleaning.run": (None, lambda _, args, result: {
        "rounds": result.rounds}),
}


def calibrate_span_cost(tracer: Tracer, n: int = 20000) -> float:
    """Seconds one span adds to a call, from a wrapped no-op loop."""
    def noop():
        return None

    wrapped = tracer.wrap(noop, "calibration", "harness")
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            wrapped()
        traced = time.perf_counter() - start
        timings.append((traced - bare) / n)
    del tracer.spans[-3 * n:]
    return float(np.median(timings))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times from the recorded spans."""
    self_time = tracer.self_times()
    count: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    calls_by_layer: dict[str, int] = defaultdict(int)
    extra_sum: dict[str, float] = defaultdict(float)
    task_busy = map_capacity = 0.0
    load_errors = 0
    solves_outside_fit = 0
    for span in tracer.spans:
        name, layer = span[0], span[1]
        seconds = self_time.get(id(span), 0.0)
        count[name] += 1
        calls_by_layer[layer] += 1
        self_by_name[name] += seconds
        self_by_layer[layer] += seconds
        extra = span[6] or {}
        for key, value in extra.items():
            extra_sum[f"{name}.{key}"] += value
        if name == "runtime.task":
            task_busy += span[3] - span[2]
        elif name == "runtime.map":
            map_capacity += (span[3] - span[2]) * extra.get("workers", 1)
        elif name == "data.load_shard" and extra.get("error"):
            load_errors += 1
        elif name == "ml.solve" and (span[4] is None
                                     or span[4][0] != "ml.fit"):
            solves_outside_fit += 1
    evals = (extra_sum["importance.evaluate_many.evals"]
             + extra_sum["importance.walk_permutations.evals"])
    steps = (extra_sum["importance.evaluate_many.kernel_steps"]
             + extra_sum["importance.walk_permutations.kernel_steps"])
    fallbacks = (extra_sum["importance.evaluate_many.fallback_retrains"]
                 + extra_sum["importance.walk_permutations.fallback_retrains"])
    return {
        "dataframe.calls": calls_by_layer["dataframe"],
        "dataframe.self_s": self_by_layer["dataframe"],
        "text.calls": calls_by_layer["text"],
        "text.self_s": self_by_layer["text"],
        "ml.fit_calls": count["ml.fit"] + solves_outside_fit,
        "ml.fit_self_s": self_by_name["ml.fit"] + self_by_name["ml.solve"],
        "ml.predict_self_s": self_by_name["ml.predict"],
        "importance.self_s": self_by_layer["importance"],
        "importance.utility_evals": evals,
        "importance.kernel_steps": steps,
        "importance.fallback_retrains": fallbacks,
        "importance.certified_ratio":
            steps / (steps + fallbacks) if steps + fallbacks else 0.0,
        "runtime.map_calls": count["runtime.map"],
        "runtime.tasks": extra_sum["runtime.map.tasks"],
        "runtime.dispatch_self_s": self_by_name["runtime.map"],
        "runtime.worker_busy_s": task_busy,
        "runtime.parallelism":
            task_busy / map_capacity if map_capacity else 0.0,
        "pipelines.calls": calls_by_layer["pipelines"],
        "pipelines.self_s": self_by_layer["pipelines"],
        "uncertain.self_s": self_by_layer["uncertain"],
        "cleaning.rounds": extra_sum["cleaning.run.rounds"],
        "cleaning.oracle_self_s": self_by_name["cleaning.oracle"],
        "errors.self_s": self_by_layer["errors"],
        "data.shards_written": count["data.write_shard"],
        "data.shards_read": count["data.load_shard"],
        "data.write_self_s":
            self_by_name["data.write_shard"] + self_by_name["data.finalize"],
        "data.read_self_s": self_by_name["data.load_shard"],
        "data.read_wait_s": extra_sum["data.read_iter.wait"],
        "data.retries": load_errors,
        "serve.lease_self_s": self_by_name["serve.lease"],
        "serve.checkpoint_self_s": self_by_name["serve.checkpoint"],
    }
