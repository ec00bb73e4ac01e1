"""Transparent process migration — the paper's primary contribution.

:mod:`.mechanism` implements the source side of the transfer protocol
(negotiation with version numbers, safe-point freezing, per-module state
packaging, open-stream hand-off, home-shadow maintenance) as a crash-
consistent transaction, :mod:`.lease` the target side (leased tickets,
inactive installs, activation at the commit point); :mod:`.txn` holds
the journal and step ladder behind that single commit point.
:mod:`.vm` provides the four virtual-memory transfer policies of
§4.2.1.  :mod:`.eviction` reclaims workstations for returning users.
:mod:`.stats` aggregates telemetry.
"""

from .eviction import EvictionDaemon, EvictionEvent
from .lease import LeaseService, TicketLease
from .mechanism import (
    MigrationAbandoned,
    MigrationManager,
    MigrationRecord,
    MigrationRefused,
)
from .stats import (
    collect_records,
    records_by_reason,
    refusal_reasons,
    rollback_stats,
    summarize_records,
)
from .txn import (
    TXN_STEPS,
    MigrationJournal,
    MigrationTxn,
    UndoEntry,
)
from .vm import (
    POLICIES,
    CopyOnReference,
    FlushToServer,
    FullCopy,
    PreCopy,
    VmOutcome,
    VmPolicy,
    make_policy,
)

__all__ = [
    "CopyOnReference",
    "EvictionDaemon",
    "EvictionEvent",
    "FlushToServer",
    "FullCopy",
    "LeaseService",
    "MigrationAbandoned",
    "MigrationJournal",
    "MigrationManager",
    "MigrationRecord",
    "MigrationRefused",
    "MigrationTxn",
    "POLICIES",
    "PreCopy",
    "TXN_STEPS",
    "TicketLease",
    "UndoEntry",
    "VmOutcome",
    "VmPolicy",
    "collect_records",
    "make_policy",
    "records_by_reason",
    "refusal_reasons",
    "rollback_stats",
    "summarize_records",
]
