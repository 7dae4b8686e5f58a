"""Span tracing from outside the program, for the per-layer ledger.

:class:`SpanRecorder` wraps the public entry points of each layer (the
``TARGETS`` table) and records one span per call: name, start, end, the
enclosing span and the job it ran for.  Generator functions -- most of the
message path is simulated processes written as generators -- are timed
per resume (each ``send``/``throw``), not at creation, through a proxy
that speaks the generator protocol ``yield from`` and the kernel use.

Self time is a span's duration minus the time its child spans cover, so
the self times of all spans plus ``ledger.unattributed_s`` add up to the
traced window exactly.  Three frames need no wrapper of their own:

* ``runtime.setup`` opens with the window and closes at the first
  ``Simulator.run_until`` call: everything before the first kernel
  dispatch (cluster, services, devices, spawns, plane, submits);
* ``simnet.kernel`` is the ``run_until`` call itself, so its self time is
  the run loop plus every handler that no other span covers.  That
  includes the handlers the kernel binds at import time through
  ``register_slot`` (their function objects sit in the slot table, so a
  class-attribute wrapper installed later never sees those calls) --
  :func:`slot_handlers` lists them in the ledger;
* ``runtime.finalize`` runs from the end of ``run_until`` to the end of
  the window (result collection, fold, teardown).

Process resumes (``Process._step_inner``) are spans too, named after the
service that owns the process (``proc.app``, ``proc.daemon``, ...): their
self time is simulated-process code that no layer wrapper covers, such as
the application program or the EL server loop.  Python's cyclic GC is a
``runtime.gc`` span, opened and closed from ``gc.callbacks``, so pauses
are charged to GC rather than to whatever span they interrupted.

Spans live in memory and are written once, when the window ends.  The
aggregates are exact; the raw span list keeps the first
``RETAINED_SPANS`` spans of the run (a CG class A run makes millions)
and says how many it kept.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import pathlib
import re
import sys
from time import perf_counter
from typing import Any, Callable, Optional

#: raw spans kept for the spans file; the aggregates count every span
RETAINED_SPANS = 100_000

#: (module, attribute path, layer) -- each layer's public entry points
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.simnet.network", "Network.transfer", "simnet.streams"),
    ("repro.simnet.streams", "StreamEnd.write", "simnet.streams"),
    ("repro.simnet.streams", "StreamEnd.write_frame", "simnet.streams"),
    ("repro.simnet.streams", "StreamEnd.read", "simnet.streams"),
    ("repro.simnet.streams", "StreamEnd.try_read", "simnet.streams"),
    ("repro.runtime.session", "Session.write", "runtime.session"),
    ("repro.runtime.session", "Session.write_frame", "runtime.session"),
    ("repro.runtime.session", "Session.read_record", "runtime.session"),
    ("repro.runtime.cluster", "Cluster.__init__", "runtime.setup"),
    ("repro.runtime.cluster", "Cluster.add_cn", "runtime.setup"),
    ("repro.runtime.cluster", "Cluster.add_aux", "runtime.setup"),
    ("repro.runtime.cluster", "Cluster.connect", "runtime.setup"),
    ("repro.runtime.fabric", "Fabric.__init__", "runtime.setup"),
    ("repro.ft.deploy", "deploy_el_groups", "runtime.setup"),
    ("repro.ft.deploy", "deploy_store", "runtime.setup"),
    ("repro.simnet.kernel", "Simulator.spawn", "runtime.setup"),
    ("repro.core.v2_device", "V2Device.pibsend", "core.daemon"),
    ("repro.core.v2_device", "V2Device.on_app_deliver", "core.daemon"),
    ("repro.core.el_client", "EventLogClient.log_event", "core.daemon"),
    ("repro.core.el_client", "EventLogClient.wait_sendable", "core.daemon"),
    ("repro.core.sender_log", "SenderLog.append", "core.senderlog"),
    ("repro.core.sender_log", "SenderLog.collect", "core.senderlog"),
    ("repro.mpi.matching", "MatchEngine.arrived", "mpi.matching"),
    ("repro.mpi.matching", "MatchEngine.post", "mpi.matching"),
    ("repro.mpi.matching", "MatchEngine.probe", "mpi.matching"),
    *(
        ("repro.mpi.collectives", fn, "mpi.collectives")
        for fn in ("barrier", "bcast", "reduce", "allreduce", "gather",
                   "allgather", "scatter", "alltoall", "scan")
    ),
    ("repro.store.chunks", "chunk_image", "store.chunk"),
    ("repro.store.chunks", "assemble_image", "store.chunk"),
    ("repro.obs.audit", "ProtocolAuditor.observe", "obs.audit"),
    ("repro.serve.plane", "ControlPlane.submit", "serve.submit"),
    ("repro.core.event_logger", "EventLoggerServer.evict", "serve.evict"),
    ("repro.store.replica", "StoreReplica.evict", "serve.evict"),
)

#: bytes a call moves, for the layers reported as a rate
BYTES_OF: dict[str, Callable[[tuple, Any], int]] = {
    "chunk_image": lambda args, _res: args[0].image_bytes,
    "assemble_image": lambda _args, res: res.image_bytes,
}

#: services a simulated process can run under (``proc.<service>`` spans)
PROC_LAYERS = ("app", "daemon", "el", "store", "ft", "serve", "infra")

_JOB = re.compile(r"^(?:serve\.job|j)(\d+)(?:\.|$)")


def _service(name: str) -> tuple[str, Optional[int]]:
    """``(layer, job)`` of a simulated process, from its name."""
    from repro.obs.profile import classify_service

    m = _JOB.match(name)
    job = int(m.group(1)) if m else None
    if name.startswith("serve.job"):
        return "proc.serve", job
    if m:
        name = name[m.end():]
    svc = classify_service(name)
    if svc in ("scheduler", "dispatcher"):
        svc = "ft"
    elif svc not in PROC_LAYERS:
        svc = "infra"
    return f"proc.{svc}", job


def slot_handlers() -> list[str]:
    """Kernel slot-table handlers: their time stays in simnet.kernel."""
    from repro.simnet.kernel import SLOT_NAMES

    return sorted(name for slot, name in SLOT_NAMES.items() if slot > 3)


class _TimedGen:
    """Generator proxy that opens one span per resume."""

    __slots__ = ("_gen", "_nid", "_rec")

    def __init__(self, gen: Any, nid: int, rec: "SpanRecorder") -> None:
        self._gen = gen
        self._nid = nid
        self._rec = rec

    def __iter__(self) -> "_TimedGen":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        rec = self._rec
        frame = rec.enter(self._nid)
        try:
            return self._gen.send(value)
        finally:
            rec.exit(frame)

    def throw(self, *exc: Any) -> Any:
        rec = self._rec
        frame = rec.enter(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            rec.exit(frame)

    def close(self) -> None:
        self._gen.close()


class SpanRecorder:
    """In-memory span recorder over a patched set of entry points."""

    def __init__(self, job: Optional[int] = 0) -> None:
        self.job = job
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.resumes: list[int] = []
        self.self_s: list[float] = []
        self.nbytes: list[int] = []
        self._ids: dict[str, int] = {}
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.n_spans = 0
        self.gc_collections = 0
        self._gc_frame: Optional[list] = None
        self._patched: list[tuple[Any, str, Any]] = []
        self._proc_cache: dict[str, tuple[int, Optional[int]]] = {}
        self._setup: Optional[list] = None
        self._finalize: Optional[list] = None
        self.t0 = 0.0
        self.t1 = 0.0

    # -- span bookkeeping ----------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
            self.resumes.append(0)
            self.self_s.append(0.0)
            self.nbytes.append(0)
        return nid

    def enter(self, nid: int, job: Optional[int] = None) -> list:
        stack = self.stack
        idx = self.n_spans
        self.n_spans = idx + 1
        self.resumes[nid] += 1
        if stack:
            parent = stack[-1]
            pidx = parent[3]
            if job is None:
                job = parent[4]
        else:
            pidx = -1
            if job is None:
                job = self.job
        frame = [nid, 0.0, 0.0, idx, job, pidx]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        t1 = perf_counter()
        stack = self.stack
        stack.pop()
        dur = t1 - frame[1]
        self.self_s[frame[0]] += dur - frame[2]
        if stack:
            stack[-1][2] += dur
        if frame[3] < RETAINED_SPANS:
            self.spans.append((
                frame[3], frame[5], frame[0],
                frame[1] - self.t0, t1 - self.t0, frame[4],
            ))

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        nid = self.name_id(name, layer)
        rec = self
        calls = self.calls
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args: Any, **kw: Any) -> _TimedGen:
                calls[nid] += 1
                return _TimedGen(fn(*args, **kw), nid, rec)

            wrapper = gen_wrapper
        else:
            count_bytes = BYTES_OF.get(fn.__name__)

            def wrapper(*args: Any, **kw: Any) -> Any:
                calls[nid] += 1
                frame = rec.enter(nid)
                try:
                    res = fn(*args, **kw)
                finally:
                    rec.exit(frame)
                if count_bytes is not None:
                    rec.nbytes[nid] += count_bytes(args, res)
                return res

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target, the kernel's run loop, resumes and the GC."""
        for mod_name, path, layer in TARGETS:
            mod = importlib.import_module(mod_name)
            name = f"{mod_name.removeprefix('repro.')}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, attr, self._wrap(getattr(cls, attr), name,
                                                  layer))
                continue
            orig = getattr(mod, path)
            new = self._wrap(orig, name, layer)
            # the function may also be bound by ``from ... import`` into
            # other modules' namespaces: rebind every such name
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro"):
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._patch(other, key, new)

        from repro.simnet.kernel import Process, Simulator

        kernel = self.name_id("simnet.kernel.run_until", "simnet.kernel")
        self.name_id("runtime.setup.window", "runtime.setup")
        self.name_id("runtime.finalize.window", "runtime.finalize")
        run_until = Simulator.run_until
        rec = self

        def traced_run_until(sim: Any, fut: Any, limit: Any = None) -> Any:
            rec.close_setup()
            rec.calls[kernel] += 1
            frame = rec.enter(kernel)
            try:
                return run_until(sim, fut, limit)
            finally:
                rec.exit(frame)
                if rec._finalize is None:
                    rec._finalize = rec.enter(
                        rec._ids["runtime.finalize.window"]
                    )

        self._patch(Simulator, "run_until", traced_run_until)

        step_inner = Process._step_inner
        cache = self._proc_cache

        def traced_step(proc: Any, value: Any, exc: Any) -> None:
            info = cache.get(proc.name)
            if info is None:
                layer, job = _service(proc.name)
                info = cache[proc.name] = (rec.name_id(layer, layer), job)
            frame = rec.enter(info[0], info[1])
            try:
                step_inner(proc, value, exc)
            finally:
                rec.exit(frame)

        self._patch(Process, "_step_inner", traced_step)
        self._gc_nid = self.name_id("runtime.gc", "runtime.gc")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_frame = self.enter(self._gc_nid)
        elif self._gc_frame is not None:
            self.exit(self._gc_frame)
            self._gc_frame = None
            self.gc_collections += 1

    # -- the traced window ---------------------------------------------------
    def start(self) -> None:
        """Open the window; everything until ``run_until`` is set-up."""
        self.t0 = perf_counter()
        self._setup = self.enter(self._ids["runtime.setup.window"])

    def close_setup(self) -> None:
        if self._setup is not None:
            self.exit(self._setup)
            self._setup = None

    def stop(self) -> None:
        """Close the window (call right after the run returns) and
        restore every wrapped entry point."""
        self.close_setup()
        if self._finalize is not None:
            self.exit(self._finalize)
            self._finalize = None
        self.t1 = perf_counter()
        self.uninstall()

    # -- results -------------------------------------------------------------
    def ledger(self) -> dict[str, Any]:
        """Self time per layer and per span name, over the window."""
        window = self.t1 - self.t0
        layers: dict[str, float] = {}
        for nid, layer in enumerate(self.layer_of):
            layers[layer] = layers.get(layer, 0.0) + self.self_s[nid]
        spans = {
            name: {
                "layer": self.layer_of[nid],
                "calls": self.calls[nid],
                "resumes": self.resumes[nid],
                "self_s": self.self_s[nid],
                "bytes": self.nbytes[nid],
            }
            for nid, name in enumerate(self.names)
        }
        return {
            "window_s": window,
            "layers": layers,
            "unattributed_s": window - sum(self.self_s),
            "spans": spans,
            "gc_collections": self.gc_collections,
            "n_spans": self.n_spans,
            "slot_handlers": slot_handlers(),
        }

    def layer_calls(self, layer: str) -> int:
        return sum(
            c for c, lay in zip(self.calls, self.layer_of) if lay == layer
        )

    def layer_bytes(self, layer: str) -> int:
        return sum(
            b for b, lay in zip(self.nbytes, self.layer_of) if lay == layer
        )

    def write(self, path: pathlib.Path) -> None:
        """Write the retained spans (once, at the end of the run)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "names": self.names,
            "layers": self.layer_of,
            "fields": ["id", "parent", "name", "start_s", "end_s", "job"],
            "total_spans": self.n_spans,
            "retained_spans": len(self.spans),
            "spans": self.spans,
        }))
