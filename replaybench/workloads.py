"""The benchmark's workloads: a scenario, a size, driver settings, models.

Every workload uses the default :class:`repro.replay.ReplayDriver`
query mix (8-bit hash digests, one hash, 4 shards, batch 8192, a
0.8 path / 0.2 congestion plan).  The command-line seed picks the
trace and the impairment coins; the driver's own hash seed stays at
its default, so the program receives only generated traces and models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Seed used when none is given on the command line.
DEFAULT_SEED = 1
#: A seed no bound or reference figure was tuned on; every check
#: passes on it too (see README.md).
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    records: int
    why: str
    #: ``ReplayDriver(workers=...)``; None replays serially.
    workers: Optional[int] = None
    #: Apply the loss / reorder / duplication models below.
    lossy: bool = False

    def trace(self, rp, seed: int):
        """The timed trace, generated from ``seed``."""
        return rp.build_trace(self.scenario, packets=self.records, seed=seed)

    def warmup_trace(self, rp, seed: int):
        """A 1/8-size trace of the same scenario for the warm-up replay."""
        return rp.build_trace(
            self.scenario, packets=self.records // 8, seed=seed
        )

    def models(self, rp, seed: int) -> list:
        """Impairment models, their coins offset from the trace seed."""
        if not self.lossy:
            return []
        return [
            rp.IIDLoss(0.10, seed=seed + 101),
            rp.Reorder(depth=64, prob=0.5, seed=seed + 201),
            rp.Duplicate(0.01, lag=16, seed=seed + 301),
        ]

    def driver(self, rp, models: list, serial: bool = False):
        """A default-configured driver; ``serial`` drops the workers."""
        return rp.ReplayDriver(
            workers=None if serial else self.workers, impairments=models,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short-flows", "elephant-mice", 120_000,
            "~18k flows per 120k records, most 1-3-packet mice: scalar "
            "observe fallback and per-flow decoder setup dominate",
        ),
        Workload(
            "long-paths", "isp-long-paths", 240_000,
            "48 long-lived flows on long ISP paths: vectorised encode "
            "and columnar peeling dominate",
        ),
        Workload(
            "parallel-lossy", "web-search", 60_000,
            "web-search through one worker process under 10% loss, "
            "reorder and 1% duplication: scatter, drain and bulk query",
            workers=1, lossy=True,
        ),
    )
}
