"""Golden event-order digests of the simulation kernel.

Every claim the repo checks against the paper -- fault-free results
under faults (Theorems 1-2), the auditor's invariants, exact MTTR
reconciliation -- rests on one deterministic event order.  This test
pins that order on a fixed corpus of random MPI programs built from the
``test_random_programs`` step vocabulary: 8 fault-free v2 runs, 6 p4
runs and 6 v2 runs with one ``ExplicitFaults`` kill each.  Each run is
pinned by one SHA-256 over its rank results, elapsed simulated time,
the ``(time, kind, fields)`` sequence of its trace and the
``(sim.now, process name)`` of every process resume, so a change that
moves a single event -- a different heap tie-break, one extra or one
missing scheduling call, a resume reordered inside one timestamp --
moves a digest.

One schedule of each group is re-run under the kernel profiler: the
probed run loops must dispatch the same events in the same order as
the unprobed ones, so they must land on the same digest.
"""

import contextlib
import hashlib
import json

import pytest

from repro.ft.failure import ExplicitFaults
from repro.runtime.mpirun import run_job
from repro.simnet.kernel import Process
from tests.test_random_programs import NPROCS, make_program

#: fault-free v2 schedules
V2 = [
    [("compute", 18, 0), ("compute", 8, 0)],
    [("allreduce", 0, 8), ("compute", 13, 0), ("scan", 0, 8),
     ("compute", 26, 0)],
    [("scan", 0, 8), ("compute", 26, 0), ("shift", 3, 698),
     ("allreduce", 0, 8), ("allreduce", 0, 8), ("shift", 2, 1596),
     ("gather_any", 1, 8), ("gather_any", 3, 8)],
    [("bcast", 2, 75), ("shift", 2, 2693), ("bcast", 2, 292),
     ("bcast", 0, 525), ("scan", 0, 8), ("allreduce", 0, 8)],
    [("gather_any", 0, 8), ("shift", 2, 1082), ("bcast", 0, 113),
     ("pair", 0, 1648), ("allreduce", 0, 8)],
    [("bcast", 0, 539), ("gather_any", 1, 8), ("compute", 2, 0)],
    [("allreduce", 0, 8), ("bcast", 0, 47), ("scan", 0, 8),
     ("gather_any", 3, 8), ("scan", 0, 8), ("bcast", 0, 131),
     ("scan", 0, 8)],
    [("compute", 28, 0), ("compute", 12, 0), ("compute", 14, 0),
     ("scan", 0, 8), ("shift", 2, 2595)],
]

#: p4 schedules
P4 = [
    [("shift", 1, 135), ("compute", 13, 0)],
    [("pair", 1, 471), ("gather_any", 2, 8), ("gather_any", 0, 8),
     ("compute", 27, 0)],
    [("pair", 0, 1337), ("pair", 0, 441), ("shift", 1, 2835),
     ("compute", 6, 0), ("scan", 0, 8), ("compute", 17, 0),
     ("allreduce", 0, 8)],
    [("bcast", 2, 249), ("allreduce", 0, 8), ("gather_any", 1, 8),
     ("bcast", 0, 562), ("shift", 2, 2825)],
    [("pair", 1, 1152), ("bcast", 2, 956), ("pair", 1, 923),
     ("compute", 8, 0), ("allreduce", 0, 8), ("allreduce", 0, 8),
     ("bcast", 2, 509), ("shift", 3, 3459)],
    [("allreduce", 0, 8), ("scan", 0, 8), ("gather_any", 0, 8),
     ("pair", 0, 976), ("gather_any", 1, 8), ("shift", 3, 533),
     ("allreduce", 0, 8), ("gather_any", 3, 8)],
]

#: v2 schedules with one kill: (schedule, kill time, victim rank); each
#: kill lands before the run ends, so every one restarts a rank
V2_KILL = [
    ([("scan", 0, 8), ("scan", 0, 8), ("compute", 25, 0), ("scan", 0, 8),
      ("scan", 0, 8), ("scan", 0, 8), ("pair", 0, 736), ("scan", 0, 8)],
     0.0093, 0),
    ([("allreduce", 0, 8), ("scan", 0, 8), ("allreduce", 0, 8),
      ("pair", 0, 1463), ("compute", 17, 0), ("bcast", 1, 496),
      ("pair", 1, 1480), ("compute", 24, 0)],
     0.0135, 1),
    ([("shift", 3, 2359), ("compute", 20, 0), ("compute", 19, 0),
      ("pair", 0, 81), ("allreduce", 0, 8), ("shift", 3, 1401),
      ("pair", 1, 1511)],
     0.0074, 0),
    ([("scan", 0, 8), ("shift", 1, 3099), ("pair", 0, 608),
      ("pair", 0, 1250), ("compute", 16, 0), ("gather_any", 2, 8),
      ("allreduce", 0, 8)],
     0.0012, 2),
    ([("compute", 19, 0), ("allreduce", 0, 8), ("shift", 3, 2698),
      ("pair", 1, 1711), ("allreduce", 0, 8), ("gather_any", 2, 8),
      ("compute", 8, 0), ("scan", 0, 8)],
     0.0246, 1),
    ([("compute", 30, 0), ("compute", 6, 0), ("allreduce", 0, 8),
      ("bcast", 1, 342), ("scan", 0, 8), ("allreduce", 0, 8),
      ("bcast", 3, 266), ("bcast", 0, 177)],
     0.0294, 3),
]

CASES = (
    [f"v2-{i}" for i in range(len(V2))]
    + [f"p4-{i}" for i in range(len(P4))]
    + [f"v2_kill-{i}" for i in range(len(V2_KILL))]
)


@contextlib.contextmanager
def _resumes():
    """Record ``(now, name)`` of every process resume inside the block."""
    seen = []
    step_inner = Process._step_inner

    def recording(proc, value, exc):
        if proc.alive:
            seen.append((proc.sim.now, proc.name))
        step_inner(proc, value, exc)

    Process._step_inner = recording
    try:
        yield seen
    finally:
        Process._step_inner = step_inner


def _run(case: str, profile: bool = False):
    group, i = case.rsplit("-", 1)
    kw = {}
    if group == "v2":
        schedule, device = V2[int(i)], "v2"
    elif group == "p4":
        schedule, device = P4[int(i)], "p4"
    else:
        schedule, t_kill, victim = V2_KILL[int(i)]
        device, kw["faults"] = "v2", ExplicitFaults([(t_kill, victim)])
    return run_job(make_program(schedule), NPROCS, device=device,
                   trace=True, limit=3600.0, profile=profile, **kw)


def _digest(res, resumes) -> str:
    trace = [
        [rec.time, rec.kind, sorted((k, repr(v)) for k, v in rec.fields.items())]
        for rec in res.tracer.records
    ]
    blob = json.dumps([repr(res.results), res.elapsed, trace, resumes],
                      default=repr, allow_nan=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: digests generated with the flat and the closure dispatch paths (they
#: agreed on every case) before the closure path was removed
GOLDEN = {
    "v2-0": (
        "f63e24ada1185f366bda722a8544ee29"
        "eed5e891767cfb39b01dc1895f7fe87f"
    ),
    "v2-1": (
        "4168dbf4c51f1760b4195c53851ff900"
        "19ea3b5f2b4f306111ae8cdc88a9feef"
    ),
    "v2-2": (
        "58777f3a85e8eca2c93b603cf5d9f4ad"
        "82420c31179d704c54a0bc9275fb154b"
    ),
    "v2-3": (
        "e1fd8cfdf864f16247c0bb9356174f5b"
        "559e9de176d6fee170eb6589200d159a"
    ),
    "v2-4": (
        "5c81d7144df901574fdd70d93db2cc5e"
        "2b4cf6adac43038dc50395364b7753de"
    ),
    "v2-5": (
        "e5cd94bd03a9195af8b4ab1c3361ea5c"
        "d6f263aaf0c635889e4b0adc6a890dda"
    ),
    "v2-6": (
        "73b3fa481a183ca6f2887ca2e27909c9"
        "86732df8447e0f5d9bb6198b5c3f2273"
    ),
    "v2-7": (
        "266076821b8cd1ba746b33a3e556156f"
        "823eb1c5c37b91dfe191229d75c020f6"
    ),
    "p4-0": (
        "750feb702be2a5f2fe32ed474cd2e166"
        "5fdc68ecbcc3c45a857761997ff16080"
    ),
    "p4-1": (
        "6dc50e2b2feba785f477d46b8fd78d20"
        "755d4675492c6bd47d80abfa846980d9"
    ),
    "p4-2": (
        "3f4585e8e45cf27924eae9af7e55b3d4"
        "3c163bdea08ddb3a572622017a61aa3f"
    ),
    "p4-3": (
        "6a7e5810b15a73ec32120ab97297765b"
        "4b8a837f2341a985f9216e90c9a35cd0"
    ),
    "p4-4": (
        "d0ad1953fc57daf74c863478440624d0"
        "dd6799bcdeed2b568b9780b25738db92"
    ),
    "p4-5": (
        "2024a97255ce2fad38a54d49b18d9776"
        "b2fa9237d559ee0d00e3c50ef7e1a1e0"
    ),
    "v2_kill-0": (
        "08e55f76f4b0e6daaadd580922524ea3"
        "be928dafb371e4debe22fbca7b1b78cd"
    ),
    "v2_kill-1": (
        "678d5da5ce07bb8b17e7759ed664a145"
        "e5156583f9440e43a10597bbe6d8f5d9"
    ),
    "v2_kill-2": (
        "b86c473fc69917d0df98ae19b0ffee41"
        "b4250a5d509cdc5a3aa50fc727ff8004"
    ),
    "v2_kill-3": (
        "b025c158c6236b133c6492abecdd1397"
        "36163fad6107e8f7552fdf2f4a17092a"
    ),
    "v2_kill-4": (
        "ae02a7cf68499547f380a40804a13077"
        "ca1129fcaac99ede87d08d5ac2cb6e76"
    ),
    "v2_kill-5": (
        "9987b8d7f0d9bebff15e395fdfdd042b"
        "e34040f8c3f6380357c1e4f832de08f1"
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_event_order_is_bit_identical(case):
    with _resumes() as resumes:
        res = _run(case)
    if case.startswith("v2_kill"):
        assert res.restarts == 1
    assert _digest(res, resumes) == GOLDEN[case]


@pytest.mark.parametrize("case", ["v2-3", "p4-2", "v2_kill-1"])
def test_probed_loops_keep_the_event_order(case):
    with _resumes() as resumes:
        res = _run(case, profile=True)
    assert res.profile.events > 0
    assert _digest(res, resumes) == GOLDEN[case]
