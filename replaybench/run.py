"""The replay benchmark: time whole ReplayDriver.replay calls, check every answer.

Run from the repository root::

    python3 replaybench/run.py --workload short-flows --seed 1 --seconds 10 --trace 0

``--trace 0`` times untraced replays and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and layer-traced replays
and prints the per-layer metrics (see layers.py).  Either way every
replay is checked against the trace's ground truth (checks.py), and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Progress and a human-readable summary go to standard error.
"""

import time

#: Set-up is timed from here: before ``import repro`` (and NumPy).
T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Output directory for span files and steadiness summaries.
OUT = os.path.join(ROOT, ".replaybench")

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Only after T0: host.py imports NumPy.
from host import (  # noqa: E402
    REFERENCE_KERNEL_S,
    cpu_seconds,
    kernel_seconds,
    peak_rss_mb,
)

#: Fewest timed replays per run, however short ``--seconds`` is.
MIN_REPLAYS = 3
#: Fresh processes that each time a set-up (the run's own set-up is
#: one more sample); setup_s is the median.
SETUP_PROBES = 4
#: Traced replays per ``--trace 1`` run (bounds the span memory).
MIN_TRACED, MAX_TRACED = 2, 4
SUBPROCESS_TIMEOUT = 150


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument(
        "--seconds", type=float, default=None,
        help="how long to measure (default: BENCHMARK.json run_seconds)",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, print the set-up time and exit",
    )
    args = ap.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = float(json.load(f)["run_seconds"])
    return args


def import_program():
    """Import repro from this checkout's src/ (and nowhere else)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/repro")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: repro imported from {repro.__file__}")
    import repro.collector as collector
    import repro.replay as rp
    from repro.apps.congestion import UtilizationCodec

    return rp, collector, UtilizationCodec


def setup_probes(workload: str, seed: int) -> list:
    """Set-up times of fresh processes (run after all measurement)."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


class Run:
    """One benchmark run: set-up, timed or traced replays, checks."""

    def __init__(self, args) -> None:
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.rp, self.collector, self.codec_cls = import_program()
        rp, wl, seed = self.rp, self.wl, args.seed
        self.trace = wl.trace(rp, seed)
        self.models = wl.models(rp, seed)
        self.driver = wl.driver(rp, self.models)
        # Warm-up: a small replay of the same scenario through the
        # same driver (imports, first fork, lazily built tables).
        self.driver.replay(wl.warmup_trace(rp, seed))
        self.setup_s = time.perf_counter() - T0
        #: Calibration kernel times, one after set-up and one after
        #: every replay.
        self.kernels: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict = {}

    def record(self, names_ok: list, names_failed: list) -> None:
        self.attempted += len(names_ok) + len(names_failed)
        self.failed += len(names_failed)
        for name in names_failed:
            self.failures[name] = self.failures.get(name, 0) + 1

    def calibrate(self) -> None:
        """Time the calibration kernel once more (see host.py)."""
        self.kernels.append(kernel_seconds())

    def host_scale(self) -> float:
        """Reference kernel time over the run's median kernel time.

        Times are multiplied by it, rates divided: a host running
        slower than the reference (a longer kernel) scales down.
        """
        return REFERENCE_KERNEL_S / statistics.median(self.kernels)

    def checked_replay(self, probe, truth, driver=None, around=None):
        """One replay call, timed, then checked, then the host calibrated.

        Returns (wall, cpu, report, outcome): raw wall and CPU seconds
        of the call.  ``around`` is an optional context manager entered
        for the call alone (the traced run's root span).
        """
        from checks import check_replay

        driver = driver if driver is not None else self.driver
        gc.collect()
        probe.arm()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            if around is None:
                report = driver.replay(self.trace)
            else:
                with around:
                    report = driver.replay(self.trace)
        finally:
            wall = time.perf_counter() - t0 - probe.excluded_s
            cpu = cpu_seconds() - c0 - probe.excluded_cpu_s
            probe.disarm()
        outcome = check_replay(report, probe, truth)
        self.calibrate()
        return wall, cpu, report, outcome

    # -- end-to-end run ----------------------------------------------------

    def timed(self) -> dict:
        from checks import Probe, Truth, answers_digest

        probe = Probe(self.collector)
        truth = Truth(self.rp, self.trace, self.models, self.driver,
                      self.codec_cls)
        self.calibrate()
        rps, cpu_us, decoded, digests = [], [], [], []
        start = time.perf_counter()
        while (len(rps) < MIN_REPLAYS
               or time.perf_counter() - start < self.args.seconds):
            wall, cpu, report, out = self.checked_replay(probe, truth)
            self.record(out.passed, out.failed)
            rps.append(report.records / wall)
            cpu_us.append(cpu / report.records * 1e6)
            decoded.append(out.paths_decoded)
            if self.wl.workers is not None:
                digests.append(answers_digest(out.answers))
            log(f"  replay {len(rps)}: {report.records} records "
                f"{wall:.3f}s {rps[-1]:,.0f} rec/s {cpu_us[-1]:.2f} us/rec "
                f"kernel {self.kernels[-1] * 1e3:.1f} ms "
                f"decoded {out.paths_decoded} failed {len(out.failed)}")
        rss = peak_rss_mb()
        if self.wl.workers is not None:
            self.compare_serial(probe, truth, digests)
        setups = [self.setup_s] + setup_probes(self.wl.name, self.args.seed)
        scale = self.host_scale()
        log(f"  raw medians: {statistics.median(rps):,.0f} rec/s, "
            f"{statistics.median(cpu_us):.2f} us/rec, set-up "
            f"{statistics.median(setups):.3f}s (samples "
            f"{', '.join(f'{s:.3f}' for s in setups)}); kernel median "
            f"{statistics.median(self.kernels) * 1e3:.1f} ms, "
            f"host scale {scale:.3f}")
        return {
            "replay_rps": (statistics.median(rps) / scale, "records/s"),
            "setup_s": (statistics.median(setups) * scale, "s"),
            "cpu_us_per_record": (statistics.median(cpu_us) * scale, "us"),
            "peak_rss_mb": (rss, "MiB"),
            "paths_decoded": (statistics.median(decoded), "flows"),
        }

    def compare_serial(self, probe, truth, digests: list) -> None:
        """Every parallel replay's answers equal one serial replay's.

        Runs after peak RSS is read, and compares digests of the
        answers, so neither the reference replay nor the answers of
        earlier replays count towards ``peak_rss_mb``.
        """
        from checks import answers_digest

        serial = self.wl.driver(self.rp, self.models, serial=True)
        *_, ref = self.checked_replay(probe, truth, driver=serial)
        self.record(ref.passed, ref.failed)
        want = answers_digest(ref.answers)
        for got in digests:
            ok = got == want
            self.record(["serial_equal"] if ok else [],
                        [] if ok else ["serial_equal"])

    # -- traced run ----------------------------------------------------------

    def traced(self) -> dict:
        from checks import Probe, Truth
        from layers import PER_LAYER, ROOT, Tracer

        tracer = Tracer()
        probe = Probe(self.collector, tracer)
        truth = Truth(self.rp, self.trace, self.models, self.driver,
                      self.codec_cls)
        # A target that is gone would read as a layer whose cost
        # vanished: refuse to report rather than print zeros.
        missing = tracer.install()
        if missing:
            raise SystemExit(
                "error: trace targets not found: " + ", ".join(missing)
            )
        # Pass 0: the trace build, traced once.
        tracer.on = True
        self.wl.trace(self.rp, self.args.seed)
        tracer.on = False
        build_s = tracer.total("scenarios.build", 0)
        tracer.uninstall()
        self.calibrate()
        untraced, passes, states = [], [], []
        start = time.perf_counter()
        while (len(passes) < MIN_TRACED
               or (time.perf_counter() - start < self.args.seconds
                   and len(passes) < MAX_TRACED)):
            wall, _, _, out = self.checked_replay(probe, truth)
            self.record(out.passed, out.failed)
            untraced.append(wall)
            tracer.install()
            tracer.current_pass = len(passes) + 1
            try:
                *_, out = self.checked_replay(
                    probe, truth, around=_Traced(tracer, ROOT)
                )
            finally:
                tracer.uninstall()
            self.record(out.passed, out.failed)
            passes.append(tracer.current_pass)
            states.append(out.state_bytes)
            log(f"  pass {len(passes)}: untraced {wall:.3f}s")
        layer, walls = tracer.pass_metrics(passes)
        parts = sum(v for k, v in layer.items()
                    if k.endswith("_s") and k != "trace.wall_s")
        if abs(parts - layer["trace.wall_s"]) > 1e-6 * layer["trace.wall_s"]:
            raise SystemExit(
                f"error: layer self times sum to {parts}, "
                f"traced wall is {layer['trace.wall_s']}"
            )
        layer["scenarios.build_s"] = build_s
        layer["collector.state_bytes"] = statistics.mean(states)
        layer["trace.overhead"] = (
            statistics.median(walls) / statistics.median(untraced)
        )
        layer["host.kernel_s"] = statistics.median(self.kernels)
        path = os.path.join(
            OUT, f"spans-{self.wl.name}-seed{self.args.seed}.npz"
        )
        tracer.save(path)
        log(f"  spans: {len(tracer.start)} written to {path}")
        return {name: (layer.get(name, 0.0), unit) for name, unit in PER_LAYER}


class _Traced:
    """Switch the tracer on for one call, under a root span."""

    def __init__(self, tracer, root: str) -> None:
        self.tracer = tracer
        self.span = tracer.span(root)

    def __enter__(self):
        self.tracer.on = True
        self.span.__enter__()

    def __exit__(self, *exc) -> None:
        self.span.__exit__(*exc)
        self.tracer.on = False


def stop_children() -> None:
    """Stop every process this run started, and wait for each to end.

    Each replay joins its worker processes when it closes its sinks;
    any still alive (after a failed replay) are terminated here.  The
    shared-memory rings also start multiprocessing's resource tracker,
    a helper process that otherwise exits only after this one does and
    so outlives the run: stop it and reap it.  It ends once no process
    holds its pipe, which is why the workers go first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse(argv)
    try:
        return measure(args)
    finally:
        stop_children()


def measure(args) -> int:
    run = Run(args)
    if args.setup_probe:
        print(json.dumps({"setup_s": run.setup_s}))
        return 0
    log(f"{args.workload} seed {args.seed}: {len(run.trace)} records, "
        f"{run.trace.num_flows} flows, set-up {run.setup_s:.3f}s")
    metrics = run.traced() if args.trace else run.timed()
    for name, (value, unit) in metrics.items():
        log(f"  {name:<34} {value:>14.6g} {unit}")
    if run.failures:
        log(f"  FAILED checks: {run.failures}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
