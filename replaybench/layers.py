"""Layer tracing: wrap each layer's public functions, keep spans, derive self times.

A :class:`Tracer` installs wrappers over the functions listed in
:data:`TARGETS`.  Each wrapped call appends one span -- (name, start,
end, parent span, pass id) -- to in-memory columns; nothing is written
until :meth:`Tracer.save` at the end of the run.  A span's *self time*
is its duration minus the durations of its direct child spans, so the
self times of all spans under a replay's root span, plus the root's
own self time (``trace.unattributed_s``), add up to the root's wall
time exactly.

Wrappers record only in the process and thread that installed them:
a forked collector worker inherits the patched classes but its copy
of the tracer is switched off at fork, so on ``parallel-lossy`` the
traced figures are the parent's calls.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Per-layer metrics, in report order: (name, unit).
PER_LAYER: List[Tuple[str, str]] = [
    ("scenarios.build_s", "s"),
    ("plan.select_s", "s"),
    ("dataplane.encode_s", "s"),
    ("dataplane.encode_records", "count"),
    ("dataplane.compress_s", "s"),
    ("impair.plan_s", "s"),
    ("collector.group_s", "s"),
    ("collector.batches", "count"),
    ("collector.groups", "count"),
    ("flowtable.touch_s", "s"),
    ("flowtable.created", "count"),
    ("consumers.path_scalar_records", "count"),
    ("consumers.path_scalar_s", "s"),
    ("consumers.path_columnar_records", "count"),
    ("consumers.path_columnar_s", "s"),
    ("decoder.setup_count", "count"),
    ("decoder.setup_s", "s"),
    ("decoder.observe_s", "s"),
    ("decoder.observe_batch_s", "s"),
    ("decoder.resets", "count"),
    ("consumers.congestion_s", "s"),
    ("parallel.scatter_s", "s"),
    ("parallel.drain_wait_s", "s"),
    ("parallel.flows_rpc_s", "s"),
    ("query.flows_s", "s"),
    ("query.answers", "count"),
    ("collector.state_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead", "ratio"),
    ("host.kernel_s", "s"),
]

#: Root span of one traced replay, and the probe's excluded span.
ROOT = "replay"
PROBE = "probe"


class Tracer:
    """In-memory span columns plus per-pass counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self._stack: List[int] = [-1]
        self.current_pass = 0
        self.counts: Dict[Tuple[int, str], float] = {}
        self.on = False
        self.tid = threading.get_ident()
        self._installed: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.on = False

    def nid(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.current_pass)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        key = (self.current_pass, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def counted(self, name: str) -> float:
        """The current pass's count of ``name`` so far."""
        return self.counts.get((self.current_pass, name), 0)

    def rename(self, idx: int, name: str) -> None:
        """Give span ``idx`` another name (decided after its call)."""
        self.name_id[idx] = self.nid(name)

    def span(self, name: str) -> "_Span":
        return _Span(self, self.nid(name))

    # -- installing wrappers ---------------------------------------------

    def install(self) -> List[str]:
        """Wrap every target; returns the targets that were not found."""
        missing = []
        for spec in TARGETS:
            owner, attr = _resolve(spec.where)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                missing.append(spec.where)
                continue
            # An inherited method is shadowed on install and deleted
            # again on uninstall; anything else is put back as it was.
            own = not isinstance(owner, type) or attr in owner.__dict__
            setattr(owner, attr, _wrap(self, orig, spec))
            self._installed.append((owner, attr, orig if own else None))
        return missing

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._installed = []

    # -- results -----------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span, with the name table, to one ``.npz`` file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.columns())

    def self_times(self) -> Tuple[Dict[str, np.ndarray], np.ndarray]:
        """(span columns, self time per span)."""
        cols = self.columns()
        dur = cols["end"] - cols["start"]
        child = np.zeros_like(dur)
        has_parent = cols["parent"] >= 0
        np.add.at(child, cols["parent"][has_parent], dur[has_parent])
        return cols, dur - child

    def total(self, name: str, pass_id: int) -> float:
        """Summed duration of the ``name`` spans of one pass."""
        cols = self.columns()
        sel = (cols["pass_id"] == pass_id) & (cols["name_id"] == self.nid(name))
        return float((cols["end"] - cols["start"])[sel].sum())

    def pass_metrics(
        self, passes: List[int]
    ) -> Tuple[Dict[str, float], List[float]]:
        """Per-layer metrics averaged over the traced replay ``passes``.

        Means (not medians) keep the figures additive: the mean layer
        self times plus the mean unattributed time equal the mean
        traced wall.  Also returns each pass's traced wall (the root
        span minus the probe's excluded spans).
        """
        cols, self_t = self.self_times()
        dur = cols["end"] - cols["start"]
        root_id, probe_id = self.nid(ROOT), self.nid(PROBE)
        sums: Dict[str, float] = {"trace.unattributed_s": 0.0}
        walls: List[float] = []
        for p in passes:
            m = cols["pass_id"] == p
            ids, st, d = cols["name_id"][m], self_t[m], dur[m]
            root = np.flatnonzero(ids == root_id)
            if root.size != 1:
                raise RuntimeError(f"pass {p} has {root.size} root spans")
            walls.append(float(d[root[0]] - d[ids == probe_id].sum()))
            sums["trace.unattributed_s"] += float(st[root[0]])
            per_name = np.bincount(ids, weights=st, minlength=len(self.names))
            for i in np.unique(ids).tolist():
                if i in (root_id, probe_id):
                    continue
                key = self.names[i] + "_s"
                sums[key] = sums.get(key, 0.0) + float(per_name[i])
            for (cp, cname), value in self.counts.items():
                if cp == p:
                    sums[cname] = sums.get(cname, 0.0) + value
        out = {k: v / len(passes) for k, v in sums.items()}
        out["trace.wall_s"] = sum(walls) / len(passes)
        return out, walls


class _Span:
    __slots__ = ("tr", "nid", "idx")

    def __init__(self, tr: Tracer, nid: int) -> None:
        self.tr = tr
        self.nid = nid
        self.idx = -1

    def __enter__(self) -> "_Span":
        self.idx = self.tr.open(self.nid)
        return self

    def __exit__(self, *exc) -> None:
        self.tr.close(self.idx)


# -- targets -------------------------------------------------------------


class Target:
    """One wrapped function: where it lives, its span name, its counters.

    ``name`` is the span's name, or None to count without a span.
    ``pre(tracer, args)`` runs before the call and its value reaches
    ``post(tracer, span, args, result, error, pre_value)``, where
    ``span`` is the closed span's index (-1 without a span).
    """

    def __init__(self, where: str, name, pre=None, post=None) -> None:
        self.where = where
        self.name = name
        self.pre = pre
        self.post = post


def _resolve(where: str):
    """``"pkg.mod:Class.attr"`` or ``"pkg.mod:attr"`` -> (owner, attr)."""
    mod_name, _, path = where.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None, None
    *parts, attr = path.split(".")
    for part in parts:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attr


def _wrap(tr: Tracer, fn: Callable, spec: Target) -> Callable:
    get_ident = threading.get_ident
    nid: Optional[int] = None if spec.name is None else tr.nid(spec.name)
    pre, post = spec.pre, spec.post

    def wrapper(*args, **kwargs):
        if not tr.on or get_ident() != tr.tid:
            return fn(*args, **kwargs)
        state = pre(tr, args) if pre is not None else None
        idx = tr.open(nid) if nid is not None else -1
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if idx >= 0:
                tr.close(idx)
            if post is not None:
                post(tr, idx, args, None, exc, state)
            raise
        if idx >= 0:
            tr.close(idx)
        if post is not None:
            post(tr, idx, args, result, None, state)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_records(tr, span, args, result, exc, state) -> None:
    tr.count("dataplane.encode_records", len(args[1]))


def _count_batch(tr, span, args, result, exc, state) -> None:
    tr.count("collector.batches")


def _touch_pre(tr, args):
    return args[0].created


def _count_touch(tr, span, args, result, exc, state) -> None:
    tr.count("collector.groups")
    tr.count("flowtable.created", args[0].created - state)


#: Calls of the columnar decode engine (counted, not spanned).
COLUMNAR_CALLS = "consumers.columnar_calls"


def _count_columnar(tr, span, args, result, exc, state) -> None:
    tr.count(COLUMNAR_CALLS)


def _columnar_before(tr, args):
    return tr.counted(COLUMNAR_CALLS)


def _split_path(tr, span, args, result, exc, before) -> None:
    """A consume_batch span is columnar iff the columnar engine ran in it."""
    kind = "scalar"
    if tr.counted(COLUMNAR_CALLS) != before:
        kind = "columnar"
        tr.rename(span, "consumers.path_columnar")
    tr.count(f"consumers.path_{kind}_records", len(args[1]))


def _count_setup(tr, span, args, result, exc, state) -> None:
    tr.count("decoder.setup_count")


def _count_reset(tr, span, args, result, exc, state) -> None:
    if exc is not None and type(exc).__name__ == "DecodingError":
        tr.count("decoder.resets")


def _count_answer(tr, span, args, result, exc, state) -> None:
    if result is not None:
        tr.count("query.answers")


TARGETS: List[Target] = [
    Target("repro.replay:build_trace", "scenarios.build"),
    Target("repro.core.plan:ExecutionPlan.select_array", "plan.select"),
    Target(
        "repro.replay.dataplane:TraceDataplane.encode_rows",
        "dataplane.encode", post=_count_records,
    ),
    # The driver calls these through its own module globals.
    Target("repro.replay.driver:compress_utilizations", "dataplane.compress"),
    Target("repro.replay.driver:plan_delivery", "impair.plan"),
    Target(
        "repro.collector.collector:Collector.ingest_batch",
        "collector.group", post=_count_batch,
    ),
    Target(
        "repro.collector.flowtable:FlowTable.touch", "flowtable.touch",
        pre=_touch_pre, post=_count_touch,
    ),
    Target(
        "repro.collector.consumers:PathDigestConsumer.consume_batch",
        "consumers.path_scalar", pre=_columnar_before, post=_split_path,
    ),
    Target(
        "repro.collector.consumers:decode_path_columns", None,
        post=_count_columnar,
    ),
    Target(
        "repro.coding.decoder:HashDecoder.__init__", "decoder.setup",
        post=_count_setup,
    ),
    Target(
        "repro.coding.decoder:HashDecoder.observe", "decoder.observe",
        post=_count_reset,
    ),
    Target(
        "repro.coding.decoder:HashDecoder.observe_batch",
        "decoder.observe_batch", post=_count_reset,
    ),
    Target(
        "repro.collector.consumers:CongestionDigestConsumer.consume_slice",
        "consumers.congestion",
    ),
    Target(
        "repro.collector.parallel:ParallelCollector.ingest_batch",
        "parallel.scatter",
    ),
    Target("repro.collector.parallel:ParallelCollector.drain", "parallel.drain_wait"),
    Target("repro.collector.parallel:ParallelCollector.flows", "parallel.flows_rpc"),
    Target("repro.collector.collector:Collector.flows", "query.flows"),
    Target(
        "repro.collector.consumers:PathDigestConsumer.result", "query.flows",
        post=_count_answer,
    ),
]
