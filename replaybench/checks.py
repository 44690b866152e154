"""Correctness checks on every replay, made apart from the decoders.

:class:`Probe` captures what a :meth:`ReplayDriver.replay` call built
-- its sinks and the per-flow consumers it queried -- so the answers
can be checked after the call returns.  :class:`Truth` derives the
expected counts and per-flow ground truth from the trace, the plan
and the impairment models with NumPy, once per trace.  Each check
returns True (pass) or False (fail); every failed check is one failed
operation in the benchmark's result line.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Float slack on the congestion band edges (the codec's grid values
#: are exact powers; only the division by the scale rounds).
_BAND_SLACK = 1e-9


class Probe:
    """Capture hooks on the collectors' ``close`` and ``flows`` methods.

    Installed once per process.  While armed it records every serial
    :class:`~repro.collector.Collector` the replay closes (its state
    stays readable after close), every bulk ``flows()`` answer, and --
    since a :class:`~repro.collector.ParallelCollector`'s state dies
    with its workers -- one snapshot of each parallel sink taken just
    before its close.  That snapshot is the only work the probe adds
    inside a timed call; its wall and CPU time are measured and
    subtracted from the call's figures (``excluded_s`` /
    ``excluded_cpu_s``).
    """

    def __init__(self, collector_mod, tracer=None) -> None:
        self.armed = False
        self.tracer = tracer
        self.serial: List = []
        self.parallel_snaps: List = []
        self.flows_calls: List[Tuple[List[int], List]] = []
        self.excluded_s = 0.0
        self.excluded_cpu_s = 0.0
        probe = self
        serial_cls = collector_mod.Collector
        parallel_cls = collector_mod.ParallelCollector

        def hook_close(orig):
            def close(self, *a, **k):
                if probe.armed and not self.closed:
                    probe.serial.append(self)
                return orig(self, *a, **k)
            return close

        def hook_parallel_close(orig):
            def close(self, *a, **k):
                if probe.armed and self.started:
                    t0, c0 = time.perf_counter(), time.process_time()
                    tracer = probe.tracer
                    if tracer is not None and tracer.on:
                        with tracer.span("probe"):
                            snap = self.snapshot()
                    else:
                        snap = self.snapshot()
                    probe.parallel_snaps.append(snap)
                    probe.excluded_s += time.perf_counter() - t0
                    probe.excluded_cpu_s += time.process_time() - c0
                return orig(self, *a, **k)
            return close

        def hook_flows(orig):
            def flows(self, flow_ids):
                out = orig(self, flow_ids)
                if probe.armed:
                    probe.flows_calls.append(
                        ([int(f) for f in flow_ids], out)
                    )
                return out
            return flows

        serial_cls.close = hook_close(serial_cls.close)
        parallel_cls.close = hook_parallel_close(parallel_cls.close)
        serial_cls.flows = hook_flows(serial_cls.flows)
        parallel_cls.flows = hook_flows(parallel_cls.flows)

    def arm(self) -> None:
        self.serial = []
        self.parallel_snaps = []
        self.flows_calls = []
        self.excluded_s = 0.0
        self.excluded_cpu_s = 0.0
        self.armed = True

    def disarm(self) -> None:
        self.armed = False


def _kind(sink, fids) -> Optional[str]:
    """The query kind a serial sink answers, read off a live consumer."""
    for fid in fids:
        consumer = sink.flow(int(fid))
        if consumer is not None:
            return consumer.kind
    return None


class Truth:
    """Expected counts and per-flow ground truth of one replay setup."""

    def __init__(self, rp, trace, models, driver, codec_cls) -> None:
        n = len(trace)
        self.offered = n
        if models:
            delivery = rp.plan_delivery(models, n, trace.flow_id)
        else:
            delivery = np.arange(n, dtype=np.int64)
        self.delivered = int(delivery.shape[0])
        entry = driver.plan.select_array(trace.pid)
        d_entry = entry[delivery]
        self.path_records = int(np.count_nonzero(d_entry == 0))
        self.cong_records = int(np.count_nonzero(d_entry == 1))
        # Path flows are the flows with an *offered* path-query record:
        # the driver scores every one of them, delivered or not.
        self.path_flows = frozenset(
            np.unique(trace.flow_id[entry == 0]).tolist()
        )
        paths = trace.paths
        self.traversed: Dict[int, frozenset] = {
            fid: frozenset(paths[p] for p in pids)
            for fid, pids in trace.flow_paths().items()
        }
        # Congestion truth: the per-flow max utilisation over the
        # *delivered* congestion-query rows.
        rows = delivery[d_entry == 1]
        fids = trace.flow_id[rows]
        utils = driver.utilizations(trace)[rows]
        order = np.argsort(fids, kind="stable")
        fids, utils = fids[order], utils[order]
        if fids.size:
            starts = np.flatnonzero(
                np.concatenate(([True], fids[1:] != fids[:-1]))
            )
            self.cong_max = dict(zip(
                fids[starts].tolist(),
                np.maximum.reduceat(utils, starts).tolist(),
            ))
        else:
            self.cong_max = {}
        codec = codec_cls(driver.congestion_bits, seed=driver.seed)
        self.band = (1.0 + codec.epsilon) ** 2
        #: Utilisations below the grid floor encode as code 0.
        self.floor = 1.0 / codec.scale


class Outcome:
    """The checks of one replay, plus the answers they read."""

    def __init__(self) -> None:
        self.passed: List[str] = []
        self.failed: List[str] = []
        self.paths_decoded = 0
        self.state_bytes = 0
        self.answers: Dict = {}

    def check(self, name: str, ok: bool) -> None:
        (self.passed if ok else self.failed).append(name)


def check_replay(report, probe: Probe, truth: Truth) -> Outcome:
    """Run the per-replay checks against the probe's captures."""
    out = Outcome()
    # Delivery accounting: the report's own identity and our schedule.
    out.check(
        "delivery",
        report.offered_records == truth.offered
        and report.records == truth.delivered
        and report.records == report.offered_records
        - report.dropped_records + report.duplicated_records,
    )
    cong_fids = list(truth.cong_max)[:64]
    path_fids = sorted(truth.path_flows)[:64]
    path_sink = cong_sink = None
    for sink in probe.serial:
        kind = _kind(sink, cong_fids) or _kind(sink, path_fids)
        if kind == "congestion":
            cong_sink = sink
        elif kind == "path":
            path_sink = sink
    if path_sink is not None:
        path_snap = path_sink.snapshot()
    else:
        path_snap = probe.parallel_snaps[0] if probe.parallel_snaps else None
    cong_snap = cong_sink.snapshot() if cong_sink is not None else None
    # Records sent to each sink equal the records its snapshot holds.
    out.check(
        "sink_records",
        path_snap is not None and cong_snap is not None
        and path_snap.records == truth.path_records == report.path_records
        and cong_snap.records == truth.cong_records
        == report.congestion_records,
    )
    if path_snap is not None and cong_snap is not None:
        out.state_bytes = path_snap.state_bytes + cong_snap.state_bytes
    # Path answers: every decoded path is one the flow traversed, and
    # the driver queried exactly the path-query flows.
    path_ok = len(probe.flows_calls) == 1
    path_answers: Dict[int, Tuple] = {}
    if path_ok:
        ids, consumers = probe.flows_calls[0]
        path_ok = set(ids) == truth.path_flows
        for fid, consumer in zip(ids, consumers):
            if consumer is None:
                continue
            result = consumer.result()
            answer = tuple(result) if result is not None else None
            path_answers[fid] = (answer, consumer.decode_errors)
            if answer is None:
                continue
            if answer in truth.traversed.get(fid, ()):
                out.paths_decoded += 1
            else:
                path_ok = False
    out.check("path_answers", path_ok and out.paths_decoded > 0)
    # Congestion answers lie in the codec's (1+eps)^2 band around the
    # per-flow maximum (clamped up to the grid floor).
    cong_ok = cong_sink is not None and bool(truth.cong_max)
    cong_answers: Dict[int, float] = {}
    if cong_ok:
        fids = list(truth.cong_max)
        for fid, consumer in zip(fids, cong_sink.flows(fids)):
            got = consumer.result() if consumer is not None else None
            if got is None:
                cong_ok = False
                continue
            cong_answers[fid] = got
            t = max(truth.cong_max[fid], truth.floor)
            lo = t / truth.band * (1.0 - _BAND_SLACK)
            hi = t * truth.band * (1.0 + _BAND_SLACK)
            if not lo <= got <= hi:
                cong_ok = False
    out.check("congestion_band", cong_ok)
    out.answers = {"path": path_answers, "congestion": cong_answers}
    return out


def answers_digest(answers: Dict) -> str:
    """A digest of an :attr:`Outcome.answers` dict, equal iff the answers
    are (paths, reset counts and congestion values in plain Python
    types, so a NumPy integer and an int of the same value agree)."""
    h = hashlib.sha256()
    for fid, (path, errors) in sorted(answers["path"].items()):
        path = None if path is None else [int(x) for x in path]
        h.update(repr((int(fid), path, int(errors))).encode())
    h.update(b"|")
    for fid, value in sorted(answers["congestion"].items()):
        h.update(repr((int(fid), float(value))).encode())
    return h.hexdigest()
