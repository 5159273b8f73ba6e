"""repro.workload: deterministic multi-query workload engine.

Multiplexes many concurrent Edgelet queries over one shared device
population on the virtual clock — seeded open/closed-loop load
generation (:mod:`.spec`), the one multi-query lifecycle — admission,
device-role leasing, launch and conclusion — that the workload and
standing-query engines share (:mod:`.engine`), and canonical report
fingerprints for serial-equivalence auditing (:mod:`.fingerprint`).
"""

from repro.workload.engine import (
    MultiQueryEngine,
    QueryRecord,
    WorkloadEngine,
    WorkloadResult,
    serial_fingerprints,
)
from repro.workload.fingerprint import (
    canonical_report,
    report_fingerprint,
    window_fingerprint,
    window_lineage,
)
from repro.workload.spec import (
    ARRIVAL_PROCESSES,
    QueryArrival,
    QueryShape,
    WorkloadSpec,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "MultiQueryEngine",
    "QueryArrival",
    "QueryRecord",
    "QueryShape",
    "WorkloadEngine",
    "WorkloadResult",
    "WorkloadSpec",
    "canonical_report",
    "report_fingerprint",
    "serial_fingerprints",
    "window_fingerprint",
    "window_lineage",
]
