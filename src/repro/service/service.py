"""The charging-reconciliation service: ingestion, workers, settlement.

One long-running process on the simulated clock, shaped like a small
network service:

* **Ingestion** (:meth:`ReconciliationService.submit`) admits *claims*
  — plain dicts a vendor would POST — through a synchronous pipeline:
  shape checks, duplicate-id rejection, the JSON check (encoding the
  claim's journal record), a per-vendor token bucket, and finally the
  backlog (a backlog of ``config.queue_depth`` claims maps to a
  ``backpressure`` rejection the caller can retry).
* **Workers** (up to ``config.workers`` settlements in flight at once)
  take the backlog oldest first and settle each claim: shard claims are
  looked up in the content-addressed result cache and simulated on a
  miss, PoC claims run Algorithm 2 via
  :class:`~repro.poc.verifier.PublicVerifier`, probe claims are cheap
  no-ops for liveness tests.  Each settlement is a plain generator on
  the event loop: it yields a service time, which a loop event wakes,
  or a pool handle, which :meth:`ReconciliationService.drain` wakes.  A
  worker never dies on a bad claim — every failure becomes a
  ``service.rejected{reason=...}`` counter.
* **Settlement** streams to a :class:`SettlementLedger` as canonical
  JSON lines.  Shard and per-UE lines are emitted through the
  :class:`~repro.experiments.fleet.FleetAccumulator`'s strictly-ordered
  fold, and PoC receipts are flushed sorted by claim id at
  :meth:`ReconciliationService.close` — so the ledger is bit-identical
  across worker counts, arrival orders and cache states.
* **Durability**: the ledger doubles as a write-ahead journal of
  admissions and outcomes (``accepted`` / ``settled`` / ``unclaimed``
  records).  :meth:`ReconciliationService.resume` replays that journal
  to rebuild a crashed service's state — accepted ids, claimed/settled
  refs, the accumulator fold, pending PoC receipts, and the queue of
  accepted-but-unsettled claims — so a service killed at any point and
  resumed produces the same settlement stream an uninterrupted run
  writes, byte for byte.
* **Pooled settlement** (``config.pool_workers > 0``): the CPU-bound
  shard simulation is offloaded to a
  :class:`~repro.service.pool.SimProcessPool`, which hands results back
  in submission order; the index-ordered fold keeps the ledger
  bit-identical across pool sizes.

Claim schema (all fields required unless noted)::

    {"id": str, "vendor": str, "kind": "shard", "shard": {...},  "ref": str?}
    {"id": str, "vendor": str, "kind": "poc",   "poc": hex, "plan": {...}, "ref": str?}
    {"id": str, "vendor": str, "kind": "probe",                  "ref": str?}

``id`` must be globally unique (duplicates are rejected); ``ref`` names
the *logical* claim so retries (new id, same ref) settle exactly once.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from collections.abc import Generator
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

from ..core.plan import DataPlan
from ..crypto.rsa import PublicKey
from ..experiments.fleet import (
    FleetAccumulator,
    FleetConfig,
    FleetResult,
    _simulate_shard_to_dict,
    fleet_shard_key,
    shard_from_dict,
    shard_to_dict,
)
from ..experiments.parallel import ResultCache, RunReport
from ..netsim.events import EventLoop
from ..obs.metrics import MetricsRegistry
from ..poc.messages import PlanParams, Poc
from ..poc.verifier import CYCLE_TOLERANCE_S, PublicVerifier, VerificationFailure
from .pool import SimProcessPool
from .ratelimit import TokenBucket

CLAIM_KINDS = ("shard", "poc", "probe")

#: Inclusive upper edges (simulated seconds) for the ingest→settle
#: latency histograms, ``service.latency{kind=...}``.
LATENCY_EDGES = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: A settle body: yields a service time (virtual seconds) or a pool
#: handle, and is sent the pool call's result back.
Steps = Generator["float | Future", object, None]


def make_poc_claim(
    claim_id: str, vendor: str, poc: Poc, plan: PlanParams, ref: str | None = None
) -> dict:
    """Encode a signed PoC (e.g. a multi-operator settlement receipt)
    as a submittable ``poc`` claim."""
    claim = {
        "id": claim_id,
        "vendor": vendor,
        "kind": "poc",
        "poc": poc.encode().hex(),
        "plan": {"t_start": plan.t_start, "t_end": plan.t_end, "c": plan.c},
    }
    if ref is not None:
        claim["ref"] = ref
    return claim


def _on_cycle_grid(t_start: float, cycle_duration_s: float) -> bool:
    """Whether ``t_start`` opens a cycle of the agreed grid: a whole
    multiple of the cycle length from origin 0, within
    :data:`~repro.poc.verifier.CYCLE_TOLERANCE_S`."""
    if not math.isfinite(t_start):
        return False
    k = round(t_start / cycle_duration_s)
    return k >= 0 and abs(t_start - k * cycle_duration_s) <= CYCLE_TOLERANCE_S


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one :class:`ReconciliationService` instance."""

    workers: int = 2
    queue_depth: int = 16
    vendor_rate_hz: float = 8.0
    vendor_burst: float = 16.0
    shard_service_time_s: float = 0.05
    poc_service_time_s: float = 0.005
    probe_service_time_s: float = 0.001
    plan_c: float = 0.5
    cycle_duration_s: float = 3600.0
    #: Process-pool size for shard simulation; 0 settles inline.
    pool_workers: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.queue_depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {self.queue_depth}")
        if self.pool_workers < 0:
            raise ValueError(
                f"pool_workers must be >= 0, got {self.pool_workers}"
            )
        # Vendors' buckets are built on first use; building one here
        # applies their bounds up front.
        TokenBucket(self.vendor_rate_hz, self.vendor_burst)
        for name in (
            "shard_service_time_s", "poc_service_time_s", "probe_service_time_s"
        ):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")


class _Backlog(deque):
    """Admitted claims waiting for a worker, oldest first."""

    def qsize(self) -> int:
        """Claims waiting (perfbench's tracer samples it after each submit)."""
        return len(self)


@dataclass(frozen=True)
class Admission:
    """Synchronous answer to one :meth:`ReconciliationService.submit`."""

    accepted: bool
    reason: str | None = None


class _CountingCache:
    """The service's shard-result lookups in an optional ``ResultCache``.

    A missing entry is a miss, and so is one that ``get_data`` drops as
    damaged because its digest does not match.  ``hits_memory``
    stays, always 0, because ``perfbench/client.py`` sums it with
    ``hits_disk`` and ``misses`` and the benchmark's files are kept
    unchanged so that runs of old and new revisions compare.
    """

    hits_memory = 0

    def __init__(self, disk: ResultCache | None, metrics: MetricsRegistry) -> None:
        self.disk = disk
        self.metrics = metrics
        self.hits_disk = 0
        self.misses = 0

    def get(self, key: str) -> dict | None:
        data = self.disk.get_data(key) if self.disk is not None else None
        if data is not None:
            self.hits_disk += 1
            self.metrics.counter("service.cache.hit", tier="disk").inc()
            return data
        self.misses += 1
        self.metrics.counter("service.cache.miss").inc()
        return None

    def put(self, key: str, data: dict) -> None:
        if self.disk is not None:
            self.disk.put_data(key, data)


def _ledger_accumulator(ledger: SettlementLedger) -> FleetAccumulator:
    """A fold that streams its shard and per-UE lines to ``ledger``.

    The sinks hold the ledger, not the service, so a service and its
    accumulator form no cycle; each looks ``ledger.write`` up per call.
    """

    def shard_line(data: dict) -> None:
        ledger.write(
            {"type": "shard", "index": int(data["shard_index"]), "ues": len(data["ues"])}
        )

    def ue_line(row: dict) -> None:
        ledger.write({"type": "ue", **row})

    return FleetAccumulator(ue_sink=ue_line, shard_sink=shard_line)


def _without_frames(error: BaseException) -> BaseException:
    """``error`` with its traceback, and those of the errors chained to
    it, dropped: a traceback holds the frames that raised, and through
    them the service that keeps the error."""
    chain = [error]
    while chain:
        link = chain.pop()
        if link is not None and link.__traceback__ is not None:
            link.__traceback__ = None
            chain += (link.__cause__, link.__context__)
    return error


def _parse_line(raw: bytes) -> tuple[str, dict]:
    """One ledger line as its text and record; ``ValueError`` unless the
    bytes are UTF-8 text holding one JSON object."""
    line = raw.decode()
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    return line, record


class SettlementLedger:
    """Durable write-ahead stream: settlement lines plus a recovery journal.

    Two record classes interleave in one append-only file:

    * **Settlement records** (``seq``-keyed, gap-free): the canonical,
      byte-comparable settlement view — ``shard`` / ``ue`` / ``poc``
      fold lines plus the trailing ``aggregate``.  ``lines`` and
      :meth:`text` expose exactly these.
    * **Journal records** (``jseq``-keyed): the write-ahead log of
      admissions and outcomes (``accepted`` / ``settled`` /
      ``unclaimed``) that :meth:`ReconciliationService.resume` replays
      to rebuild in-flight state after a crash.

    Every line is compact, key-sorted JSON, flushed to the OS as it is
    written and fsync'd on :meth:`close` — a killed process loses at
    most the final torn line, which :meth:`resume` trims.  ``write()``
    or ``journal()`` after ``close()`` raises: the memory view and the
    file are never allowed to diverge silently.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.lines: list[str] = []
        self.journal_lines: list[str] = []
        #: Journal records parsed by :meth:`resume`, held until the
        #: resumed service takes them for its replay.
        self.resumed_records: list[dict] = []
        self.path = Path(path) if path is not None else None
        self._fh = self.path.open("w") if self.path is not None else None
        self._seq = 0
        self._jseq = 0
        #: Settlement lines already durable from a previous incarnation;
        #: writes below this watermark verify against the stored line
        #: instead of appending (resume replays the whole fold).
        self._replay_until = 0
        self._closed = False

    @classmethod
    def resume(cls, path: str | Path) -> "SettlementLedger":
        """Reopen a crashed run's ledger for appending.

        Reads the file one line at a time and parses each line once:
        settlement lines fill :attr:`lines`, journal lines
        :attr:`journal_lines`, and the journal's parsed records wait in
        :attr:`resumed_records` for :meth:`ReconciliationService.resume`
        to replay.  A torn final line (the partial write of the crash) is
        cut off the file in place; a complete final record missing only
        its newline gets one.  Replay-absorb mode is armed: the resumed
        service re-emits the fold from the journal, and :meth:`write`
        verifies the already-durable prefix byte-for-byte before new
        lines start appending.

        A line anywhere but the tail that is not a UTF-8 JSON object
        raises ``ValueError`` naming its line number — a crash can only
        tear the last write.
        """
        path = Path(path)
        ledger = cls.__new__(cls)
        ledger.path = path
        ledger.lines, ledger.journal_lines, ledger.resumed_records = [], [], []
        intact = 0  # bytes of newline-terminated lines
        tail = b""
        if path.exists():
            with path.open("rb") as fh:
                for number, raw in enumerate(fh, start=1):
                    if not raw.endswith(b"\n"):
                        tail = raw
                        break
                    try:
                        ledger._keep(*_parse_line(raw[:-1]))
                    except ValueError as exc:
                        shown = raw[:80].decode(errors="replace")
                        raise ValueError(
                            f"ledger {path} corrupt at line {number}: {shown!r}"
                        ) from exc
                    intact += len(raw)
        ledger._fh = path.open("a")
        if tail:
            # A complete JSON object missing only its newline survived
            # the crash intact; anything else is the torn write.
            try:
                parsed = _parse_line(tail)
            except ValueError:
                ledger._fh.truncate(intact)
            else:
                ledger._keep(*parsed)
                ledger._fh.write("\n")
        ledger._fh.flush()
        os.fsync(ledger._fh.fileno())
        ledger._seq = 0
        ledger._jseq = len(ledger.journal_lines)
        ledger._replay_until = len(ledger.lines)
        ledger._closed = False
        return ledger

    def _keep(self, line: str, record: dict) -> None:
        """File one durable line read back by :meth:`resume`."""
        if "seq" in record:
            self.lines.append(line)
        if "jseq" in record:
            self.journal_lines.append(line)
            self.resumed_records.append(record)

    def journal_records(self) -> list[dict]:
        """Parsed journal records, oldest first."""
        return [json.loads(line) for line in self.journal_lines]

    def _append(self, line: str) -> None:
        if self._fh is not None:
            self._fh.write(line + "\n")
            self._fh.flush()

    def write(self, record: dict) -> None:
        """Append one settlement record as a canonical JSON line."""
        if self._closed:
            raise RuntimeError("settlement ledger is closed")
        line = json.dumps(
            {"seq": self._seq, **record}, sort_keys=True, separators=(",", ":")
        )
        if self._seq < self._replay_until:
            if line != self.lines[self._seq]:
                raise ValueError(
                    f"resume replay diverged at seq {self._seq}: "
                    f"regenerated {line[:80]!r} != durable "
                    f"{self.lines[self._seq][:80]!r}"
                )
            self._seq += 1
            return
        self._seq += 1
        self.lines.append(line)
        self._append(line)

    def journal_line(self, record: dict) -> str:
        """The line :meth:`journal` appends next for ``record``.

        Raises ``TypeError`` or ``ValueError`` if the record has no
        canonical JSON encoding (for example mixed ``int``/``str`` keys).
        """
        return json.dumps(
            {"jseq": self._jseq, **record}, sort_keys=True, separators=(",", ":")
        )

    def journal(self, record: dict, line: str | None = None) -> None:
        """Append one write-ahead journal record.

        ``line``, if given, is :meth:`journal_line` of ``record`` computed
        since the last append; it saves encoding the record twice.
        """
        if self._closed:
            raise RuntimeError("settlement ledger is closed")
        if line is None:
            line = self.journal_line(record)
        self._jseq += 1
        self.journal_lines.append(line)
        self._append(line)

    def text(self) -> str:
        """The settlement view as newline-terminated text."""
        return "".join(line + "\n" for line in self.lines)

    def close(self) -> None:
        """Seal the ledger: fsync + close the file mirror, refuse writes."""
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None


class ReconciliationService:
    """The reconciliation service; see the module docstring for shape.

    Drive it like any other simulated process: ``start()``, submit
    claims from event-loop callbacks, run the loop, then ``close()``
    once the loop has drained.
    """

    def __init__(
        self,
        loop: EventLoop | None = None,
        config: ServiceConfig | None = None,
        disk_cache: ResultCache | None = None,
        ledger: SettlementLedger | None = None,
        vendor_keys: dict[str, tuple[PublicKey, PublicKey]] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.loop = loop if loop is not None else EventLoop()
        self.config = config if config is not None else ServiceConfig()
        self.metrics = (
            metrics if metrics is not None else MetricsRegistry(clock=self.loop.now)
        )
        self.queue = _Backlog()
        self.cache = _CountingCache(disk_cache, self.metrics)
        self.ledger = ledger if ledger is not None else SettlementLedger()
        self.report = RunReport()
        self.verifier = PublicVerifier(
            DataPlan(
                c=self.config.plan_c, cycle_duration_s=self.config.cycle_duration_s
            ),
            metrics=self.metrics,
        )
        # vendor -> (edge public key, operator public key) for PoC claims.
        self.vendor_keys = dict(vendor_keys or {})
        self.buckets: dict[str, TokenBucket] = {}
        self.rejections: dict[str, int] = {}
        self.accumulator = _ledger_accumulator(self.ledger)
        self.pool = (
            SimProcessPool(self.config.pool_workers)
            if self.config.pool_workers
            else None
        )
        self._accepted_ids: set[str] = set()
        self._claimed_refs: set[str] = set()
        self._settled_refs: set[str] = set()
        self._folded_indices: set[int] = set()
        self._poc_receipts: list[dict] = []
        self._ingest_t: dict[str, float] = {}
        self._started = False
        #: Workers not settling a claim; 0 until :meth:`start`.
        self._idle = 0
        #: Why each lost worker died: its ``internal-error`` path raised.
        self._crashed: list[Exception] = []
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Set ``config.workers`` workers on the backlog (idempotence is
        an error)."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._idle = self.config.workers
        self._pump()

    def close(self) -> None:
        """Gracefully shut down: drain, then flush deferred lines.

        Safe to call with a backlog still queued: new submissions are
        refused and the loop is drained, so the workers settle the
        backlog first.  Only then are the PoC receipts flushed.
        """
        if self._closed:
            return
        self._closed = True
        self.drain()
        if self.pool is not None:
            self.pool.shutdown()
        # PoC receipts settle in worker-completion order, which depends on
        # the worker count; sorting by claim id at flush time restores the
        # ledger's bit-identity guarantee.
        # The ledger itself stays open: its owner may append a trailing
        # aggregate record (see loadgen) before closing the stream.
        for receipt in sorted(self._poc_receipts, key=lambda r: r["id"]):
            self.ledger.write(receipt)

    def drain(self) -> None:
        """Run the loop until both it and the settlement pool are idle.

        With ``pool_workers == 0`` this is exactly ``loop.run()``; with
        a pool, settlements waiting on in-flight simulations resume as
        results arrive and the loop re-runs until nothing is pending on
        either side.
        """
        while True:
            self.loop.run()
            if self.pool is None or not self.pool.pending():
                return
            self.pool.wait_next()

    def crashed_workers(self) -> list[Exception]:
        """One error per worker lost because its ``internal-error`` path
        itself raised (should stay empty); kept without tracebacks."""
        return list(self._crashed)

    @classmethod
    def resume(
        cls,
        ledger_path: str | Path,
        loop: EventLoop | None = None,
        config: ServiceConfig | None = None,
        disk_cache: ResultCache | None = None,
        vendor_keys: dict[str, tuple[PublicKey, PublicKey]] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> "ReconciliationService":
        """Rebuild a crashed service from its on-disk ledger journal.

        Replays the ``accepted``/``settled``/``unclaimed`` records to
        restore accepted ids, claimed/settled refs, folded shard
        indices, the accumulator fold (absorbed byte-for-byte against
        the durable settlement prefix), pending PoC receipts, and the
        queue of accepted-but-unsettled claims, in journal order.  The
        journal carries every settled shard's result, so the replay reads
        and writes no cache.

        Token buckets and the event loop start fresh — rate limiting is
        an admission policy of the live process, not recoverable state.
        Likewise latency samples: a resumed claim's ingest time died
        with the old process, so it is settled without an observation.

        Returns an unstarted service; call :meth:`start`, drive the
        loop (e.g. :meth:`drain`), then :meth:`close` as usual.
        """
        ledger = SettlementLedger.resume(ledger_path)
        service = cls(
            loop=loop,
            config=config,
            disk_cache=disk_cache,
            ledger=ledger,
            vendor_keys=vendor_keys,
            metrics=metrics,
        )
        records, ledger.resumed_records = ledger.resumed_records, []
        service._replay_journal(records)
        return service

    def _replay_journal(self, records: list[dict]) -> None:
        pending: dict[str, dict] = {}
        completed: set[str] = set()
        for record in records:
            rtype = record["type"]
            if rtype == "accepted":
                self._accepted_ids.add(record["id"])
                pending[record["id"]] = record["claim"]
            elif rtype == "settled":
                completed.add(record["id"])
                ref, kind = record["ref"], record["kind"]
                self._claimed_refs.add(ref)
                self._settled_refs.add(ref)
                self.metrics.counter("service.settled", kind=kind).inc()
                if kind == "shard":
                    self._folded_indices.add(int(record["index"]))
                    self.accumulator.add(record["data"])
                elif kind == "poc":
                    self._poc_receipts.append(record["receipt"])
            elif rtype == "unclaimed":
                completed.add(record["id"])
        # Journal order is admission order; anything accepted without a
        # recorded outcome went down with the process — requeue it.
        for claim_id, claim in pending.items():
            if claim_id not in completed:
                self.queue.append(claim)
        self.metrics.gauge("service.queue.depth").set(len(self.queue))

    # ------------------------------------------------------------ ingestion

    def _bucket(self, vendor: str) -> TokenBucket:
        bucket = self.buckets.get(vendor)
        if bucket is None:
            bucket = self.buckets[vendor] = TokenBucket(
                self.config.vendor_rate_hz, self.config.vendor_burst
            )
        return bucket

    def _reject(self, reason: str) -> Admission:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1
        self.metrics.counter("service.rejected", reason=reason).inc()
        return Admission(False, reason)

    def submit(self, claim) -> Admission:
        """Admit one claim; synchronous, safe to call from loop callbacks.

        Pipeline order matters: shape checks and duplicate detection are
        free; the ``accepted`` journal record is encoded next, once (a
        claim without a canonical JSON encoding is ``malformed``, and the
        line is the one the journal appends); the token bucket spends
        only when the claim could actually be enqueued, and a full queue
        surfaces as ``backpressure`` (the token is forfeit — a retrying
        caller pays for the pressure it adds).
        """
        if self._closed:
            return self._reject("closed")
        if not isinstance(claim, dict):
            return self._reject("malformed")
        claim_id = claim.get("id")
        vendor = claim.get("vendor")
        if not isinstance(claim_id, str) or not claim_id:
            return self._reject("malformed")
        if not isinstance(vendor, str) or not vendor:
            return self._reject("malformed")
        if claim.get("kind") not in CLAIM_KINDS:
            return self._reject("unknown-kind")
        if claim_id in self._accepted_ids:
            return self._reject("duplicate")
        record = {
            "type": "accepted",
            "id": claim_id,
            "vendor": vendor,
            "kind": claim["kind"],
            "t": self.loop.now(),
            "claim": claim,
        }
        try:
            line = self.ledger.journal_line(record)
        except (TypeError, ValueError):
            # The write-ahead journal is canonical JSON lines; a claim that
            # cannot ride it cannot be made crash-safe, so it is not admitted.
            return self._reject("malformed")
        if not self._bucket(vendor).try_acquire(self.loop.now()):
            return self._reject("rate-limited")
        if len(self.queue) >= self.config.queue_depth:
            return self._reject("backpressure")
        # Record the admission before the hand-off: an idle worker runs
        # inside _pump, and its outcome record must follow this one.
        self._accepted_ids.add(claim_id)
        self._ingest_t[claim_id] = self.loop.now()
        self.ledger.journal(record, line)
        self.metrics.counter("service.ingested", vendor=vendor).inc()
        self.queue.append(claim)
        self._pump()
        self.metrics.gauge("service.queue.depth").set(len(self.queue))
        return Admission(True)

    # ------------------------------------------------------------- workers

    def _pump(self) -> None:
        """Hand the backlog to idle workers, oldest claim first."""
        while self._idle and self.queue:
            self._idle -= 1
            self._advance(*self._take())

    def _take(self) -> tuple[dict, Steps]:
        """The oldest backlog claim and its settle generator."""
        claim = self.queue.popleft()
        self.metrics.gauge("service.queue.depth").set(len(self.queue))
        return claim, self._settle(claim)

    def _advance(
        self,
        claim: dict,
        steps: Steps,
        sent: object = None,
        error: BaseException | None = None,
    ) -> None:
        """Run one worker's settlement to its next wait.

        A service time resumes it from a loop event, a pool handle from
        :meth:`SimProcessPool.wait_next`.  When the settlement ends the
        worker takes the next backlog claim here, in a loop rather than
        by recursion, or goes idle.
        """
        while True:
            try:
                wait = steps.send(sent) if error is None else steps.throw(error)
            except StopIteration:
                pass
            except Exception as failure:
                # Degrade, never die: a poisoned claim costs one rejection.
                try:
                    self._reject("internal-error")
                    self.metrics.counter(
                        "service.errors", type=type(failure).__name__
                    ).inc()
                    self._journal_outcome(
                        claim, claim.get("ref", claim.get("id")), "internal-error"
                    )
                except Exception as crash:
                    self._crashed.append(_without_frames(crash))
                    return
            else:
                if isinstance(wait, Future):
                    self.pool.when_done(wait, self._advance, claim, steps)
                else:
                    self.loop.schedule(wait, self._advance, claim, steps)
                return
            if not self.queue:
                self._idle += 1
                return
            claim, steps = self._take()
            sent = error = None

    def _settle(self, claim: dict) -> Steps:
        kind = claim["kind"]
        ref = claim.get("ref", claim["id"])
        claimed = False
        try:
            if not isinstance(ref, str) or not ref:
                self._unclaim(claim, None, "malformed")
                return
            if ref in self._claimed_refs:
                # A retry raced its settled (or in-flight) twin, which
                # keeps the ref.
                self._unclaim(claim, ref, "duplicate")
                return
            self._claimed_refs.add(ref)
            claimed = True
            with self.metrics.span("service.settle", kind=kind):
                if kind == "shard":
                    yield from self._settle_shard(claim, ref)
                elif kind == "poc":
                    yield from self._settle_poc(claim, ref)
                else:
                    yield self.config.probe_service_time_s
                    self.ledger.journal(
                        {
                            "type": "settled",
                            "kind": "probe",
                            "id": claim["id"],
                            "ref": ref,
                        }
                    )
                    self._mark_settled(ref, "probe", claim["id"])
        finally:
            # A claim that ends unsettled, rejected or raising, gives back
            # its ingest stamp and the ref it claimed, which a resumed
            # service never holds; a raise gets here before _advance
            # journals the outcome, so a failing journal keeps neither.
            self._ingest_t.pop(claim["id"], None)
            if claimed and ref not in self._settled_refs:
                self._claimed_refs.discard(ref)

    def _mark_settled(self, ref: str, kind: str, claim_id: str) -> None:
        self._settled_refs.add(ref)
        self.metrics.counter("service.settled", kind=kind).inc()
        ingested_at = self._ingest_t.pop(claim_id, None)
        if ingested_at is not None:
            self.metrics.histogram(
                "service.latency", LATENCY_EDGES, kind=kind
            ).observe(self.loop.now() - ingested_at)

    def _journal_outcome(self, claim: dict, ref, reason: str) -> None:
        self.ledger.journal(
            {
                "type": "unclaimed",
                "id": claim.get("id"),
                "ref": ref if isinstance(ref, str) else None,
                "reason": reason,
            }
        )

    def _unclaim(self, claim: dict, ref: str | None, reason: str) -> None:
        # Failure may be transient (e.g. the payload was corrupted in
        # flight); _settle releases the ref so a clean retry can settle it.
        self._reject(reason)
        self._journal_outcome(claim, ref, reason)

    def _settle_shard(self, claim: dict, ref: str) -> Steps:
        try:
            shard = shard_from_dict(claim["shard"])
        except Exception:
            self._unclaim(claim, ref, "malformed-shard")
            return
        yield self.config.shard_service_time_s
        key = fleet_shard_key(shard)
        data = self.cache.get(key)
        if data is not None:
            self.report.cached += 1
        else:
            if self.pool is not None:
                data = yield self.pool.submit(
                    _simulate_shard_to_dict, shard_to_dict(shard)
                )
            else:
                data = _simulate_shard_to_dict(shard_to_dict(shard))
            self.cache.put(key, data)
            self.report.simulated += 1
        if shard.index in self._folded_indices:
            self._unclaim(claim, ref, "duplicate")
            return
        self._folded_indices.add(shard.index)
        # Write-ahead: the full shard result rides the journal *before*
        # any fold line hits the ledger, so a crash mid-fold resumes
        # from the journal and regenerates the missing settlement tail.
        self.ledger.journal(
            {
                "type": "settled",
                "kind": "shard",
                "id": claim["id"],
                "ref": ref,
                "index": shard.index,
                "key": key,
                "data": data,
            }
        )
        self.accumulator.add(data)
        self._mark_settled(ref, "shard", claim["id"])

    def _settle_poc(self, claim: dict, ref: str) -> Steps:
        keys = self.vendor_keys.get(claim["vendor"])
        if keys is None:
            self._unclaim(claim, ref, "unknown-vendor")
            return
        try:
            poc = Poc.decode(bytes.fromhex(claim["poc"]))
            plan_fields = claim["plan"]
            plan = PlanParams(
                float(plan_fields["t_start"]),
                float(plan_fields["t_end"]),
                float(plan_fields["c"]),
            )
        except Exception:
            self._unclaim(claim, ref, "malformed-poc")
            return
        yield self.config.poc_service_time_s
        if not _on_cycle_grid(plan.t_start, self.config.cycle_duration_s):
            self._unclaim(claim, ref, "poc-" + VerificationFailure.PLAN_MISMATCH.value)
            return
        edge_key, operator_key = keys
        report = self.verifier.verify(poc, plan, edge_key, operator_key)
        if not report.ok:
            self._unclaim(claim, ref, f"poc-{report.failure.value}")
            return
        receipt = {
            "type": "poc",
            "id": claim["id"],
            "ref": ref,
            "vendor": claim["vendor"],
            "volume": report.volume,
            "edge_claim": report.edge_claim,
            "operator_claim": report.operator_claim,
        }
        self.ledger.journal(
            {
                "type": "settled",
                "kind": "poc",
                "id": claim["id"],
                "ref": ref,
                "receipt": receipt,
            }
        )
        self._poc_receipts.append(receipt)
        self._mark_settled(ref, "poc", claim["id"])

    # ----------------------------------------------------------- settlement

    def is_settled(self, ref: str) -> bool:
        """Whether the logical claim ``ref`` has settled."""
        return ref in self._settled_refs

    def settled_count(self) -> int:
        """Logical claims settled so far."""
        return len(self._settled_refs)

    def fleet_result(self, fleet: FleetConfig) -> FleetResult:
        """Seal the shard accumulator into a batch-identical aggregate.

        Raises ``ValueError`` if any shard claim never settled — callers
        should check coverage (e.g. via retry waves) first.
        """
        return self.accumulator.finalize(fleet, self.report)
