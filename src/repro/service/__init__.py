"""Online charging-reconciliation service (the "live TLC" subsystem).

The paper's TLC protocol is meant to run continuously between the
operator and the edge vendor; the batch sweeps in
:mod:`repro.experiments` exercise the same physics one shot at a time.
This package holds the long-running counterpart:

* :mod:`repro.service.ratelimit` — per-vendor token buckets refilled on
  the simulated clock;
* :mod:`repro.service.pool` — a process pool that runs shard simulations
  on real CPUs and hands their results back in submission order;
* :mod:`repro.service.service` — the service itself: claim ingestion,
  settlement + PoC verification as generators on the simulated
  :class:`~repro.netsim.events.EventLoop`, over the batch engine's
  content-addressed :class:`~repro.experiments.parallel.ResultCache`,
  streaming JSON-lines settlement output, all instrumented through
  :mod:`repro.obs`;
* :mod:`repro.service.loadgen` — the fleet engine as a load generator:
  replay a :class:`~repro.experiments.fleet.FleetConfig` as sustained
  claim traffic and fold the service's answers back into a
  :class:`~repro.experiments.fleet.FleetResult`.

The differential contract (enforced by ``tests/service/``): every
service-path answer is bit-identical to the batch path's, across worker
counts, pool sizes, warm/cold cache states — and across a crash-and-
resume at any point of the run (the ledger doubles as a write-ahead
journal; see :meth:`ReconciliationService.resume`).
"""

from .loadgen import ReplayConfig, ReplayStats, replay_fleet, resume_fleet_replay
from .pool import SimProcessPool
from .ratelimit import TokenBucket
from .service import (
    LATENCY_EDGES,
    Admission,
    ReconciliationService,
    ServiceConfig,
    SettlementLedger,
    make_poc_claim,
)

__all__ = [
    "Admission",
    "LATENCY_EDGES",
    "ReconciliationService",
    "ReplayConfig",
    "ReplayStats",
    "ServiceConfig",
    "SettlementLedger",
    "SimProcessPool",
    "TokenBucket",
    "make_poc_claim",
    "replay_fleet",
    "resume_fleet_replay",
]
