"""The benchmark workloads: the paths a user waits on for a PTE estimate.

Each workload builds its inputs from the run's seed, sets itself up
(imports, model lowering, pool or daemon start, one discarded warm-up
call), runs one timed operation at a time, checks every output exactly and
cleans up after itself.  ``README.md`` in this directory says why each
workload exists and which metrics it moves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from stats import samples_needed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(HERE, "goldens.json")

#: The seed the committed goldens were produced with.
GOLDEN_SEED = 1


@dataclass
class Op:
    """One timed operation: an estimate, or one service job."""

    seconds: float
    trials: int
    failed: int = 0
    output: str = ""
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)


def canonical(payload: Any) -> str:
    """Canonical JSON text of an output (NaN and infinities allowed)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: Any) -> str:
    """sha256 of :func:`canonical`."""
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def load_goldens() -> Dict[str, Any]:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def lease_failures(summaries) -> int:
    """Lease-arm trials that broke a PTE rule (the paper says: none)."""
    return sum(1 for s in summaries if s.with_lease and s.failures)


def campaign_problems(payload: Dict[str, Any], summaries, *,
                      expected_trials: int, golden: str | None) -> List[str]:
    """Exact checks on one campaign estimate.

    ``payload`` is ``CampaignResult.to_json()``; its ``"campaign"`` section
    is compared by sha256 with the committed golden when one applies.
    """
    problems = []
    section = payload["campaign"]
    if section["total_trials"] != expected_trials:
        problems.append(f"{section['total_trials']} of {expected_trials} "
                        f"trials reported")
    if golden is not None and digest(section) != golden:
        problems.append(f"campaign digest {digest(section)} != golden {golden}")
    bad = lease_failures(summaries)
    if bad:
        problems.append(f"{bad} lease-arm trial(s) violated a PTE rule")
    return problems


class CpuRotation:
    """Move the calling thread across its allowed CPUs every ``period`` s.

    Co-tenants slow each CPU of a small VM independently, for seconds at a
    time.  A single-threaded measurement left on one CPU inherits that
    CPU's state; rotating makes every operation sample all of them, as the
    processes of a pooled workload do.  Never wrap code that forks: a child
    would inherit the one-CPU mask of the moment.
    """

    def __init__(self, period: float = 0.25) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tid = threading.get_native_id()
        self.period = period
        self.stop = threading.Event()
        self.thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self) -> None:
        turn = 0
        while not self.stop.wait(self.period):
            turn += 1
            os.sched_setaffinity(self.tid, {self.cpus[turn % len(self.cpus)]})

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            self.thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop.set()
        if self.thread.is_alive():
            self.thread.join()
        os.sched_setaffinity(self.tid, set(self.cpus))


class Workload:
    """Common driver: setup, one operation at a time, checks, cleanup."""

    name = ""
    workers = 1
    #: Operations a measured section holds at least, however slow the host.
    min_ops = 3
    #: Whether every operation repeats the same inputs (and so must repeat
    #: the same output).
    repeats_inputs = True

    def __init__(self, seed: int, workdir: str, tracer) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.golden = (load_goldens().get(self.name)
                       if seed == GOLDEN_SEED else None)

    def setup(self) -> None:
        raise NotImplementedError

    def run_once(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, ops: List[Op]) -> List[str]:
        """Problems with the outputs of ``ops`` (empty when all are right)."""
        problems = [problem for op in ops for problem in op.problems]
        outputs = {op.output for op in ops}
        if self.repeats_inputs and len(outputs) > 1:
            problems.append(f"{len(outputs)} different outputs from identical "
                            f"inputs")
        return problems

    def teardown(self) -> List[str]:
        """Release everything; return what was left behind."""
        return []


# -- pooled campaign sweep ----------------------------------------------------

class SweepPooled(Workload):
    """The loss sweep on a 2-worker pool with a durable sqlite store.

    An estimate is one ``run_campaign`` call plus its aggregation.
    """

    name = "sweep-pooled"
    workers = 2
    horizon = 30.0
    warm_horizon = 5.0
    replicates = 32
    #: Trials re-run one by one on the compiled tier as a cross-check.
    cross_check = (0, 5 * 32 + 1, 10 * 32 + 2, 11 * 32 + 3)

    def build_spec(self, duration: float):
        from repro.campaign import loss_sweep_spec

        return loss_sweep_spec(duration=duration, replicates=self.replicates)

    def store_path(self, index: int) -> str:
        return os.path.join(self.workdir, f"store-{index}.db")

    def run_kwargs(self, index: int) -> Dict[str, Any]:
        # batch_size=None is the auto rule: 32 replicates over 2 workers
        # gives 16 lanes per batch, which turns the shared-memory ring on.
        return {"max_workers": self.workers, "engine": "batched",
                "batch_size": None, "store": self.store_path(index)}

    def setup(self) -> None:
        from repro.campaign import run_campaign

        self.run_campaign = run_campaign
        self.spec = self.build_spec(self.horizon)
        self.expected = self.spec.total_trials
        self.first = None
        # Warm-up: the same cells over a short horizon.  It lowers the
        # model and starts a pool, as every estimate does; the result is
        # discarded.
        self.run_campaign(self.build_spec(self.warm_horizon), seed=self.seed,
                          **self.run_kwargs(-1))
        self.after_run(-1, {})

    def after_run(self, index: int, extra: Dict[str, Any]) -> List[str]:
        """Measure and delete an estimate's store (outside the timed section).

        Fills ``extra`` and returns any problem found.
        """
        from repro.campaign import CampaignStore

        path = self.store_path(index)
        extra["store_bytes"] = sum(os.path.getsize(path + suffix)
                                   for suffix in ("", "-wal")
                                   if os.path.exists(path + suffix))
        with CampaignStore(path, read_only=True) as store:
            status = store.status()
        for suffix in ("", "-wal", "-shm", "-journal"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        if status is None or not status.complete:
            return ["store not marked complete"]
        return []

    def run_once(self, index: int) -> Op:
        first_result: List[float] = []
        kwargs = self.run_kwargs(index)
        if self.tracer.active:
            kwargs["on_result"] = (lambda _summary: first_result.append(
                time.perf_counter()) if not first_result else None)
        started = time.perf_counter()
        with self.tracer.span("campaign.run") as span:
            result = self.run_campaign(self.spec, seed=self.seed, **kwargs)
            payload = result.to_json()
        seconds = time.perf_counter() - started
        if first_result:
            span.attrs["first_result_s"] = first_result[0] - span.start
        if self.first is None:
            self.first = result
        events = [kind for kind, _ in result.recovery_events]
        extra = {"recovery_events": len(events),
                 "quarantined": len(result.quarantined),
                 "shm_fallbacks": events.count("shm-fallback")}
        problems = campaign_problems(payload, result.summaries,
                                     expected_trials=self.expected,
                                     golden=self.golden)
        problems += self.after_run(index, extra)
        failed = result.total_trials if problems else len(result.quarantined)
        return Op(seconds=seconds, trials=self.expected, failed=failed,
                  output=digest(payload["campaign"]), problems=problems,
                  extra=extra)

    def check(self, ops: List[Op]) -> List[str]:
        from repro.campaign import execute_trial

        problems = super().check(ops)
        # Cross-check against the compiled tier, one trial at a time: every
        # tier must give the same trial bit for bit.
        runs = self.spec.expand(self.seed)
        by_index = {(s.spec_index, s.replicate): s for s in self.first.summaries}
        for index in self.cross_check:
            run = runs[index]
            _, summary, _ = execute_trial(self.spec.config, self.spec.duration,
                                          run, engine="compiled")
            if by_index.get((run.spec_index, run.replicate)) != summary:
                problems.append(f"trial {index} differs from the compiled tier")
        return problems


# -- rare-event splitting -----------------------------------------------------

class RareSplit(Workload):
    """Fixed-effort splitting on the low-loss, fast-surgeon Table I cell."""

    name = "rare-split"
    horizon = 120.0
    warm_horizon = 5.0
    trials_per_level = 24
    #: A fixed, low ladder: at this effort every level keeps survivors (no
    #: saturation over seeds 1-25), so each estimate runs the same number
    #: of trials.  An adaptive ladder runs 3 to 7 levels depending on the
    #: seed.
    levels = (0.25, 0.35)

    def setup(self) -> None:
        from repro.campaign.spec import ChannelSpec
        from repro.casestudy.config import CaseStudyConfig, SurgeonModel
        from repro.verify.rare import (CellTemplate, SplitSettings,
                                       fixed_effort_splitting,
                                       scored_case_trial)

        self.split = fixed_effort_splitting
        self.scored_case_trial = scored_case_trial
        config = dataclasses.replace(
            CaseStudyConfig(),
            surgeon=SurgeonModel(mean_toff=6.0, resample_quantum=2.0))
        self.template = CellTemplate(
            config=config, with_lease=False, duration=self.horizon,
            channel=ChannelSpec(kind="bernoulli", loss=1e-4),
            engine="compiled", event="dwell")
        self.settings = SplitSettings(trials_per_level=self.trials_per_level,
                                      levels=self.levels)
        self.first_trial = None
        self.estimate(dataclasses.replace(self.template,
                                          duration=self.warm_horizon),
                      SplitSettings(trials_per_level=2, levels=(0.1,)))

    def trial(self, template, plan):
        with self.tracer.span("rare.trial"):
            scored = self.scored_case_trial(template, plan)
        if self.first_trial is None and template is self.template:
            self.first_trial = scored
        return scored

    def map_level(self, trial_fn, plans):
        with self.tracer.span("rare.level"):
            return [trial_fn(plan) for plan in plans]

    def estimate(self, template, settings):
        with self.tracer.span("rare.estimate"):
            return self.split(lambda plan: self.trial(template, plan),
                              master_seed=self.seed, settings=settings,
                              name="perfbench-split", map_fn=self.map_level)

    def run_once(self, index: int) -> Op:
        # Serial and in-process, so the estimate runs on one thread.
        with CpuRotation():
            started = time.perf_counter()
            estimate = self.estimate(self.template, self.settings)
            seconds = time.perf_counter() - started
        payload = estimate.to_json()
        problems = []
        if self.golden is not None and canonical(payload) != canonical(self.golden):
            problems.append(f"estimate {canonical(payload)} != golden")
        return Op(seconds=seconds, trials=estimate.trials_used,
                  failed=estimate.trials_used if problems else 0,
                  output=canonical(payload), problems=problems,
                  extra={"levels": len(estimate.factors)})

    def check(self, ops: List[Op]) -> List[str]:
        problems = super().check(ops)
        # The same fork plan on the reference tier must score identically.
        first = self.first_trial
        reference = self.scored_case_trial(
            dataclasses.replace(self.template, engine="reference"), first.plan)
        if (reference.score, reference.violation, reference.staircase) != (
                first.score, first.violation, first.staircase):
            problems.append("first splitting trial differs on the reference tier")
        return problems


# -- campaign service ---------------------------------------------------------

def job_cells(seed: int) -> Dict[str, Any]:
    """In-process ``run_campaign`` of one service job (check side)."""
    from repro.campaign import run_campaign

    result = run_campaign(ServiceJobs.job_spec(), seed=seed)
    return {"cells": [dataclasses.asdict(group) for group in result.groups()],
            "lease_failures": lease_failures(result.summaries)}


class ServiceJobs(Workload):
    """A closed-loop client submitting tiny jobs to a 2-worker daemon."""

    name = "service-jobs"
    workers = 2
    repeats_inputs = False
    #: Enough jobs that the p90 latency has ten samples beyond it.
    min_ops = samples_needed(90.0)

    @staticmethod
    def job_spec():
        from repro.campaign import table1_spec

        # 2 cells (lease, no lease) x 2 replicates = 4 trials of 30 s.
        return table1_spec(mean_toffs=(18.0,), replicates=2, duration=30.0)

    def job_seed(self, index: int) -> int:
        from repro.util.seeding import derive_seed

        return derive_seed(self.seed, f"perfbench:job:{index}")

    def setup(self) -> None:
        from repro.campaign.service.client import ServiceClient

        self.spec = self.job_spec()
        self.worker_pids: set = set()
        # Relative paths keep the socket under the unix-socket length limit
        # wherever the checkout lives; the daemon runs from the same cwd.
        rel = os.path.relpath(self.workdir, ROOT)
        self.socket = os.path.join(rel, "service.sock")
        self.stores = os.path.join(rel, "stores")
        env = dict(os.environ, PYTHONPATH=SRC)
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.campaign", "serve",
             "--socket", self.socket, "--stores-dir", self.stores,
             "--workers", str(self.workers)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
        self.client = ServiceClient(self.socket)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.status()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.daemon.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("campaign service did not start")
                time.sleep(0.005)
        self.submit_and_watch(-1)

    def submit_and_watch(self, index: int):
        seed = self.job_seed(index)
        with self.tracer.span("service.submit"):
            response = self.client.submit(self.spec, seed)
        with self.tracer.span("service.watch") as span:
            events = list(self.client.watch(response["job"]))
        span.attrs["events"] = len(events)
        return seed, response, events

    def run_once(self, index: int) -> Op:
        started = time.perf_counter()
        seed, response, events = self.submit_and_watch(index)
        seconds = time.perf_counter() - started
        cells = {}
        for event in events:
            if event.get("event") == "trial":
                cells[event["cell"]["spec_index"]] = event["cell"]
        final = [cells[key] for key in sorted(cells)]
        state = events[-1].get("state") if events else None
        problems = []
        if response.get("duplicate"):
            problems.append(f"job {index} was deduplicated")
        if state != "complete":
            problems.append(f"job {index} ended {state!r}")
        return Op(seconds=seconds, trials=self.spec.total_trials,
                  failed=1 if problems else 0, output=canonical(final),
                  problems=problems, extra={"seed": seed})

    def check(self, ops: List[Op]) -> List[str]:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        problems = super().check(ops)
        seeds = [op.extra["seed"] for op in ops]
        if len(set(seeds)) != len(seeds):
            problems.append("two jobs share a master seed")
        # Every job against an in-process run of its seed, on a pool of
        # the workload's own width (the daemon is gone by now).
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(self.workers, mp_context=context) as pool:
            expected = list(pool.map(job_cells, seeds, chunksize=8))
        for index, (op, want) in enumerate(zip(ops, expected)):
            if op.output != canonical(want["cells"]):
                problems.append(f"job {index}: streamed aggregates differ "
                                f"from run_campaign")
                op.failed = 1
            if want["lease_failures"]:
                problems.append(f"job {index}: lease-arm PTE violation")
                op.failed = 1
        head = samples_needed(90.0)
        if self.golden is not None and len(ops) >= head:
            got = digest([op.output for op in ops[:head]])
            if got != self.golden:
                problems.append(f"first {head} jobs digest {got} != golden")
        return problems

    def collect_pids(self) -> None:
        """Record the worker pids every job ran on (before shutdown)."""
        status = self.client.status()
        for job in status["jobs"]:
            self.worker_pids.update(job.get("pool_pids", ()))

    def teardown(self) -> List[str]:
        problems = []
        daemon = getattr(self, "daemon", None)
        if daemon is None:
            return problems
        try:
            if daemon.poll() is None:
                self.collect_pids()
                self.client.shutdown()
            daemon.wait(timeout=60.0)
        except Exception as exc:  # noqa: BLE001 - the daemon must still die
            problems.append(f"service shutdown failed: {exc!r}")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
                problems.append("daemon had to be killed")
        if os.path.exists(os.path.join(ROOT, self.socket)):
            problems.append("service socket left behind")
        deadline = time.monotonic() + 10.0
        alive = set(self.worker_pids)
        while alive and time.monotonic() < deadline:
            alive = {pid for pid in alive if _alive(pid)}
            time.sleep(0.05)
        if alive:
            problems.append(f"service workers still alive: {sorted(alive)}")
        shutil.rmtree(os.path.join(ROOT, self.stores), ignore_errors=True)
        return problems


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (non-zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


WORKLOADS = {cls.name: cls for cls in (SweepPooled, RareSplit, ServiceJobs)}
