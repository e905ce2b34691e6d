"""Benchmark entry point: time to a PTE-violation estimate, on three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-pooled --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds every per-layer metric
instead.  Each run also appends a record (metrics, every operation's time,
set-up samples and the host-speed probe) to ``.perfbench/runs.jsonl``.
The program is used from ``src/`` as it is; nothing under ``src/`` is
changed.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback

from stats import median, percentile
from workloads import ROOT, SRC, WORKLOADS

STATE_DIR = os.path.join(ROOT, ".perfbench")
STARTED = time.monotonic()

#: Set-up samples per run in fresh subprocesses, before and after the
#: measured section (so they meet the host at different moments); this
#: process adds one more.
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2

#: Iterations of the host-speed probe loop.
PROBE_LOOPS = 100_000

END_TO_END_UNITS = {"time_to_estimate_s": "s", "time_to_estimate_p90_s": "s",
                    "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def host_probe() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        times.append(time.perf_counter() - started)
    return median(times)


#: prctl option that makes orphaned descendants re-parent to this process.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the child subreaper of every process this run starts.

    A descendant whose parent exits (the resource tracker of a set-up probe
    or of the service daemon) is then re-parented here instead of to init,
    so :func:`stop_children` can wait for it.  Linux only; elsewhere a
    no-op.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (AttributeError, OSError):
        pass


def child_pids() -> list:
    """Pids of this process's children, zombies included (from ``/proc``)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    The multiprocessing resource tracker is started by shared memory and
    spawn-context pools and outlives its parent by design; it is stopped
    first, the way its own tests do.  Anything still left (an adopted
    orphan) gets ``grace`` seconds to end, then SIGKILL, and is reaped.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker._resource_tracker._stop()
    except (AttributeError, ChildProcessError, OSError):
        pass
    deadline = time.monotonic() + grace
    while True:
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                break
        pids = child_pids()
        if not pids:
            return
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def prepare_environment(workdir: str) -> None:
    """Pin what the program reads from the environment, inside the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, seconds: float, tracer, prefix: str,
            first: int = 0) -> list:
    """Run operations until ``seconds`` have passed (and ``min_ops`` ran).

    Operations are numbered from ``first`` so that a second measured
    section never repeats the inputs of the first.
    """
    ops = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(ops) < workload.min_ops):
        tracer.trace_id = f"{prefix}{len(ops)}"
        ops.append(workload.run_once(first + len(ops)))
    return ops


def end_to_end(workload, ops: list, setup_samples: list) -> dict:
    times = [op.seconds for op in ops]
    if workload.name == "service-jobs":
        tail = percentile(times, 90.0)
    else:
        # An estimate run holds only a few estimates: report the slowest.
        tail = max(times)
    done = sum(op.trials for op in ops if not op.failed)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"time_to_estimate_s": median(times),
            "time_to_estimate_p90_s": tail,
            "trials_per_s": done / sum(times),
            "setup_s": median(setup_samples),
            "peak_rss_mb": max(own, children) / 1024.0}


def shm_segments() -> set:
    """The program's shared-memory segments (``repro.campaign.shm`` names
    them with a ``repro-`` prefix); read without importing the program, so
    the imports stay inside the timed set-up."""
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith("repro-")}
    except OSError:
        return set()


def leftovers(workdir: str, shm_before: set) -> list:
    """What a finished workload left behind: processes, segments, files."""
    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"live child processes: {[p.pid for p in children]}")
    new_segments = shm_segments() - shm_before
    if new_segments:
        problems.append(f"/dev/shm segments left: {sorted(new_segments)}")
    for dirpath, _, files in os.walk(workdir):
        if files:
            problems.append(f"files left in {dirpath}: {sorted(files)[:5]}")
    return problems


def run(args) -> dict:
    workdir = os.path.join(STATE_DIR, f"run-{os.getpid()}")
    prepare_environment(workdir)
    try:
        if args.setup_probe:
            return {"setup_s": setup_once(args, workdir)}
        return measure_and_check(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_once(args, workdir: str) -> float:
    """Set the workload up and tear it down again; return the set-up time."""
    from spans import Tracer

    workload = WORKLOADS[args.workload](args.seed, workdir, Tracer(workdir))
    try:
        started = time.perf_counter()
        workload.setup()
        return time.perf_counter() - started
    finally:
        workload.teardown()


def measure_and_check(args, workdir: str) -> dict:
    # Bytecode is compiled once here, never inside a timed section.
    compileall.compile_dir(SRC, quiet=1)
    from spans import Tracer, install

    shm_before = shm_segments()
    tracer = Tracer(os.path.join(STATE_DIR, f"trace-{os.getpid()}"))
    workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
    problems: list = []
    try:
        setup_samples = ([] if args.trace else
                         [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES_BEFORE)])
        if args.trace:
            install(tracer)
            tracer.active = True
        started = time.perf_counter()
        workload.setup()
        setup_samples.append(time.perf_counter() - started)
        tracer.active = False
        probe_before = host_probe()
        if args.trace:
            plain = measure(workload, args.seconds / 2, tracer, "u")
            tracer.active = True
            traced = measure(workload, args.seconds / 2, tracer, "t",
                             first=len(plain))
            tracer.active = False
            ops = plain + traced
        else:
            ops = measure(workload, args.seconds, tracer, "m")
        probe_after = host_probe()
        problems.extend(workload.check(ops))
    finally:
        problems.extend(workload.teardown())
    problems.extend(leftovers(workdir, shm_before))
    if not args.trace:
        setup_samples += [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES_AFTER)]

    if args.trace:
        from layers import layer_metrics

        metrics = layer_metrics(workload, plain, traced, tracer.write())
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        values = end_to_end(workload, ops, setup_samples)
        units = END_TO_END_UNITS
    failed = sum(op.failed for op in ops)
    attempted = (len(ops) if args.workload == "service-jobs"
                 else sum(op.trials for op in ops))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": {"python": platform.python_version(),
                       "machine": platform.machine(),
                       "cpus": os.cpu_count()},
              "metrics": values, "setup_samples": setup_samples,
              "op_seconds": [op.seconds for op in ops],
              "probe_s": [probe_before, probe_after],
              "output": ops[0].output[:200], "problems": problems,
              "wall_s": time.monotonic() - STARTED}
    with open(os.path.join(STATE_DIR, "runs.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    for problem in dict.fromkeys(problems):
        print(f"perfbench: {problem}", file=sys.stderr)
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in values}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    adopt_orphans()
    try:
        result = run(args)
    except Exception:  # noqa: BLE001 - report, print no result, fail
        traceback.print_exc()
        return 1
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
