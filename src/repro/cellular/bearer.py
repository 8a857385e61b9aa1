"""EPS bearers: the charging and QoS context for a flow.

A bearer binds (IMSI, flow) to a QCI and a charging ID.  The SPGW counts
volume per bearer; the OFCS turns per-bearer usage into CDRs.  Dedicated
bearers with QCI 3/7 model the paper's gaming-acceleration sessions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..netsim.counters import CumulativeCounter
from .identifiers import Imsi
from .qos import DEFAULT_QCI, qos_class

_bearer_ids = itertools.count(5)  # EPS bearer IDs start at 5 in 3GPP.


@dataclass
class Bearer:
    """One EPS bearer: identity, QoS class and gateway-side volume counters."""

    imsi: Imsi
    flow_id: str
    qci: int = DEFAULT_QCI
    charging_id: int = 0
    bearer_id: int = field(default_factory=lambda: next(_bearer_ids))
    active: bool = True
    uplink: CumulativeCounter = field(default_factory=CumulativeCounter)
    downlink: CumulativeCounter = field(default_factory=CumulativeCounter)
    first_usage: float | None = None
    last_usage: float | None = None

    def __post_init__(self) -> None:
        qos_class(self.qci)  # validate the QCI eagerly

    def count_uplink(self, t: float, nbytes: int) -> None:
        """Account gateway-received uplink bytes to this bearer."""
        self.uplink.add(t, nbytes)
        self._touch(t)

    def count_downlink(self, t: float, nbytes: int) -> None:
        """Account gateway-forwarded downlink bytes to this bearer."""
        self.downlink.add(t, nbytes)
        self._touch(t)

    def _touch(self, t: float) -> None:
        if self.first_usage is None:
            self.first_usage = t
        self.last_usage = t

    def deactivate(self) -> None:
        """Deactivate the bearer (on detach); traffic is no longer carried."""
        self.active = False

    def reactivate(self) -> None:
        """Reactivate after re-attach; counters continue accumulating."""
        self.active = True


class BearerTable:
    """Lookup of bearers by flow and by IMSI."""

    def __init__(self) -> None:
        self._by_flow: dict[str, Bearer] = {}
        self._by_imsi: dict[str, list[Bearer]] = {}

    def add(self, bearer: Bearer) -> None:
        """Register a bearer; flow IDs must be unique."""
        if bearer.flow_id in self._by_flow:
            raise ValueError(f"flow {bearer.flow_id!r} already has a bearer")
        self._by_flow[bearer.flow_id] = bearer
        self._by_imsi.setdefault(str(bearer.imsi), []).append(bearer)

    def by_flow(self, flow_id: str) -> Bearer | None:
        """Bearer carrying ``flow_id``, or None."""
        return self._by_flow.get(flow_id)

    def by_imsi(self, imsi: Imsi) -> list[Bearer]:
        """All bearers of one subscriber."""
        return list(self._by_imsi.get(str(imsi), []))

    def __len__(self) -> int:
        return len(self._by_flow)
