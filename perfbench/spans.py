"""Outside-in tracing: span-recording wrappers on the program's public functions.

The benchmark does not change the program.  In a traced run it replaces a
few public functions with wrappers that record a span around each call:
name, start, end, parent span, trace id (the estimate the call belongs to)
and a few attributes.  Each wrapper patches the name its caller looks up,
so a function imported by name into another module is patched there too.

Spans of the benchmark process stay in memory until :meth:`Tracer.write`.
Campaign pools fork from the benchmark process after the wrappers are in
place, so workers run the wrappers too; a worker appends each span to its
own ``spans-<pid>.jsonl`` file, because a pool worker exits without
running ``atexit`` handlers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List

#: Fields of :class:`TrialResult` summed into the case-study work counts.
WORK_COUNT_FIELDS = ("surgeon_requests", "laser_emissions", "ventilator_pauses")


class Tracer:
    """Collects spans from wrappers installed on the program's functions."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.active = False
        self.trace_id = "setup"
        self.spans: List[Dict[str, Any]] = []
        self._owner = os.getpid()
        self._local = threading.local()
        self._ids = 0

    # -- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, span: Dict[str, Any]) -> None:
        if os.getpid() == self._owner:
            self.spans.append(span)
            return
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(span) + "\n")

    def span(self, name: str) -> "_Span":
        """Context manager recording one span (a no-op while inactive)."""
        return _Span(self, name, {})

    def wrap(self, func: Callable, name: str,
             attrs: Callable[..., Dict[str, Any]] | None = None) -> Callable:
        """Wrap ``func`` so every call records a span named ``name``.

        ``attrs(args, kwargs, result)`` adds attributes once the call
        returns.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            with _Span(tracer, name, {}) as span:
                result = func(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(args, kwargs, result))
                return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- installation -----------------------------------------------------

    def patch(self, target: str, name: str,
              attrs: Callable[..., Dict[str, Any]] | None = None) -> None:
        """Replace ``module:attr`` or ``module:Class.attr`` with a wrapper."""
        module_name, _, path = target.partition(":")
        owner: object = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if getattr(original, "__wrapped_by_perfbench__", False):
            raise RuntimeError(f"{target} is already wrapped")
        setattr(owner, attr, self.wrap(original, name, attrs))

    # -- output -----------------------------------------------------------

    def write(self) -> List[Dict[str, Any]]:
        """Write this process's spans out and return every span recorded.

        Worker spans are read back from their per-pid files.
        """
        with open(os.path.join(self.directory, "spans-parent.jsonl"), "w",
                  encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        spans = list(self.spans)
        for entry in sorted(os.listdir(self.directory)):
            if entry.startswith("spans-") and entry != "spans-parent.jsonl":
                with open(os.path.join(self.directory, entry),
                          encoding="utf-8") as handle:
                    spans.extend(json.loads(line) for line in handle)
        return spans


class _Span:
    """One open span; records itself on exit."""

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.record = tracer.active

    def __enter__(self) -> "_Span":
        if not self.record:
            return self
        tracer = self.tracer
        tracer._ids += 1
        self.id = f"{os.getpid()}:{tracer._ids}"
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if not self.record:
            return
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer._emit({
            "name": self.name, "start": self.start, "end": end,
            "id": self.id, "parent": self.parent,
            "trace": self.tracer.trace_id, "pid": os.getpid(),
            "attrs": self.attrs})


def _lanes(args, kwargs, result) -> Dict[str, Any]:
    engine, horizon = args[0], (args[1] if len(args) > 1 else kwargs["horizon"])
    return {"lanes": int(getattr(engine, "batch", 1)), "horizon": float(horizon)}


def _work_counts(results) -> Dict[str, Any]:
    return {name: sum(int(getattr(r, name)) for r in results)
            for name in WORK_COUNT_FIELDS} | {"trials": len(results)}


def _trial_counts(args, kwargs, result) -> Dict[str, Any]:
    return _work_counts([result])


def _batch_counts(args, kwargs, result) -> Dict[str, Any]:
    return _work_counts(result)


def _commit_rows(args, kwargs, result) -> Dict[str, Any]:
    records = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    return {"rows": len(records)}


#: Every wrapped name, with the span it records and its attribute reader.
TARGETS = (
    ("repro.casestudy.emulation:compile_system", "simulate.lower", None),
    ("repro.hybrid.simulate.batched:build_batched_tables", "simulate.lower",
     None),
    ("repro.campaign.executor:build_batched_tables", "simulate.lower", None),
    ("repro.hybrid.simulate.batched:BatchedEngine.run", "simulate.run", _lanes),
    ("repro.hybrid.simulate.compiled:CompiledEngine.run", "simulate.run",
     _lanes),
    ("repro.casestudy.emulation:run_trial", "casestudy.trial", _trial_counts),
    ("repro.campaign.executor:run_trial", "casestudy.trial", _trial_counts),
    ("repro.verify.rare:run_trial", "casestudy.trial", _trial_counts),
    ("repro.casestudy.emulation:run_trial_batch", "casestudy.batch",
     _batch_counts),
    ("repro.campaign.executor:run_trial_batch", "casestudy.batch",
     _batch_counts),
    ("repro.campaign.executor:execute_batch", "campaign.batch", None),
    ("repro.campaign.store:CampaignStore.checkpoint_batch", "store.commit",
     _commit_rows),
    ("repro.campaign.store:CampaignStore.checkpoint_ring", "store.commit",
     _commit_rows),
    ("repro.campaign.aggregate:CampaignResult.groups", "aggregate", None),
    ("repro.campaign.aggregate:CampaignResult.to_json", "aggregate", None),
)


def install(tracer: Tracer) -> None:
    """Install the wrappers on every layer the benchmark measures.

    Every module is imported before the first patch, so no module binds a
    wrapper by importing a name from an already patched one.
    """
    os.makedirs(tracer.directory, exist_ok=True)
    for target, _, _ in TARGETS:
        importlib.import_module(target.partition(":")[0])
    for target, name, attrs in TARGETS:
        tracer.patch(target, name, attrs)
