"""Per-layer tracing of the poem package, applied from outside.

The tracer replaces layer entry points where their callers look them up
(module globals such as ``poem.engine.select_examples``, class attributes
such as ``EpisodicMemory.best_action``) with timing wrappers, and puts the
originals back on ``uninstall``. Nothing under ``src/`` changes.

Two kinds of wrapper:

* a *span* records (id, name, start, end, parent, query id, leaf seconds,
  error) in memory. The parent is the innermost open span of the calling
  thread; a call made on a worker thread with no open span is parented to
  the open root span (``engine.train``/``evaluate``/``infer``), so the
  thread pool's scoring shows up under the training loop that waited for it.
* a *leaf* (hot calls such as ``cosine_similarity``) only counts calls and
  sums its time. That time is charged to the enclosing span as leaf time,
  so a span's self time excludes both its child spans and its leaf calls.
  A call that opens spans itself (``epsilon_greedy`` reads the memory) is
  counted but not timed, so no time is subtracted twice.

An entry point that a later version of the package no longer has is
skipped; its metrics then read 0.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

import poem
from poem import config, engine, memory, rewards, selection, simenv, wire
from poem.encoder import Embedding

# Root spans: one whole engine call each. Worker-thread spans attach here.
ROOTS = ("engine.train", "engine.evaluate", "engine.infer")


def _query_id(args, kwargs):
    """Hash of the first state embedding among the arguments, or None."""
    for value in itertools.chain(args, kwargs.values()):
        if isinstance(value, Embedding):
            return hash(value)
        inner = getattr(value, "embedding", None)
        if isinstance(inner, Embedding):
            return hash(inner)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root: int | None = None
        self._undo: list[tuple] = []
        self.paused = False
        self.t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self._counts[key] += value

    def pause(self) -> None:
        """Call through without recording (the harness's own checks)."""
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def take_counts(self) -> Counter:
        """Counters since the previous call; resets them."""
        with self._lock:
            counts, self._counts = self._counts, Counter()
        return counts

    def _span_wrapper(self, name, fn, count):
        tracer = self
        is_root = name in ROOTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1][0] if stack else tracer._root
            qid = _query_id(args, kwargs)
            if qid is None and stack:
                qid = stack[-1][1]
            sid = next(tracer._ids)
            if qid is None and is_root:
                qid = -sid
            frame = [sid, qid, 0.0]
            stack.append(frame)
            if is_root:
                outer_root, tracer._root = tracer._root, sid
            error = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    tracer._root = outer_root
                tracer.spans.append((sid, name, start, end, parent, qid, frame[2], error))
                if error:
                    tracer.add(name + ".errors")
            if count is not None:
                for key, value in count(result, args, kwargs).items():
                    tracer.add(key, value)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn, count, timed):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if not timed:
                result = fn(*args, **kwargs)
                tracer.add(name + ".calls")
                for key, value in count(result, args, kwargs).items():
                    tracer.add(key, value)
                return result
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack = tracer._stack()
                if stack:
                    stack[-1][2] += elapsed
                with tracer._lock:
                    tracer._counts[name + ".calls"] += 1
                    tracer._counts[name + ".self_s"] += elapsed
            if count is not None:
                for key, value in count(result, args, kwargs).items():
                    tracer.add(key, value)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, make):
        if not hasattr(owner, attr):
            return
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, own))

    def span(self, owner, attr, name, count=None):
        self._patch(owner, attr, lambda fn: self._span_wrapper(name, fn, count))

    def leaf(self, owner, attr, name, count=None, timed=True):
        """Count calls; with timed, also sum their time (only for calls that open no span)."""
        self._patch(owner, attr, lambda fn: self._leaf_wrapper(name, fn, count, timed))

    def install(self) -> "Tracer":
        EM = memory.EpisodicMemory
        for mod in (memory, selection, simenv):
            self.leaf(mod, "cosine_similarity", "encoder.cosine")
        for mod in (engine, memory, simenv):
            self.leaf(mod, "enumerate_actions", "actions.enumerate",
                      lambda r, a, k: {"actions.built": len(r)})
        self.leaf(engine, "reorder", "actions.reorder")
        self.leaf(EM, "_evict_lru", "memory.evict")
        self.leaf(engine, "epsilon_greedy", "engine.choose",
                  lambda r, a, k: {"engine.explored": int(r[1])}, timed=False)
        # every HTTP attempt goes through Session.request, with or without a Session
        self.leaf(wire.requests.sessions.Session, "request", "wire.attempt")

        for name in ("train", "evaluate", "infer"):
            self.span(engine, name, "engine." + name)
        self.span(engine, "select_examples", "selection.select")
        self.span(engine, "build_prompt", "prompts.build",
                  lambda r, a, k: {"prompts.chars": len(r)})
        self.span(EM, "best_action", "memory.best_action")
        self.span(EM, "write", "memory.write")
        self.span(EM, "snapshot", "memory.snapshot")
        self.span(EM, "restore", "memory.restore")
        for cls in (simenv.SyntheticOracle, rewards.LMOracle):
            self.span(cls, "reward", "oracle.reward")
        for cls in (simenv.SyntheticEvalScorer, rewards.LMEvalScorer):
            self.span(cls, "score", "scorer.score")
        self.span(simenv, "synth_reward", "simenv.reward")
        self.span(simenv, "brute_force_best", "simenv.brute_force")
        self.span(rewards, "score_prompt", "rewards.score_prompt")
        self.span(wire, "post_json", "wire.post")
        # the encoders the engine calls; a CachingEncoder's backend counts as encoder.remote
        self.span(simenv.PlantedEncoder, "encode", "encoder.encode",
                  lambda r, a, k: {"encoder.texts": len(a[1])})
        self.span(poem.CachingEncoder, "encode", "encoder.encode",
                  lambda r, a, k: {"encoder.texts": len(a[1]), "encoder.cached_texts": len(a[1])})
        self.span(poem.RemoteEncoder, "encode", "encoder.remote",
                  lambda r, a, k: {"encoder.remote_texts": len(a[1])})
        self.span(config, "build_runtime", "config.build_runtime")
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "qid", "leaf_s", "error")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                row = dict(zip(keys, span))
                row["start"] -= self.t0
                row["end"] -= self.t0
                fh.write(json.dumps(row) + "\n")


_MISSING = object()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children minus its leaf time."""
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, leaf_s, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = max(end - start - covered - leaf_s, 0.0)
    return out


def summarize(spans, counts: Counter) -> Counter:
    """Per-name span counts and self time, plus the leaf counters."""
    totals = Counter(counts)
    selfs = self_times(spans)
    for span in spans:
        sid, name, start, end = span[:4]
        totals[name + ".calls"] += 1
        totals[name + ".self_s"] += selfs[sid]
        totals[name + ".total_s"] += end - start
    totals["trace.spans"] = len(spans)
    return totals
