"""Per-layer metrics of a traced run, computed from its spans.

A traced run measures half its time untraced and half traced; each traced
estimate has its own trace id.  Most metrics are the median over the
traced estimates of a per-estimate sum, so exact counts (``simulate.runs``,
``store.commits``, ``casestudy.*``) repeat identically across runs with
the same seed.  A layer the workload does not enter reports 0.
"""

from __future__ import annotations

import resource
from collections import defaultdict
from typing import Dict, List, Tuple

from spans import WORK_COUNT_FIELDS
from stats import median, percentile, self_time

Metrics = Dict[str, Tuple[float, str]]


def _dur(span) -> float:
    return span["end"] - span["start"]


def _p90(values: List[float]) -> float:
    return percentile(values, 90.0) if values else 0.0


def layer_metrics(workload, plain, traced, spans) -> Metrics:
    by_trace = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_trace[span["trace"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    ids = [f"t{i}" for i in range(len(traced))]

    def named(group, name):
        return [s for s in group if s["name"] == name]

    def total(group, name):
        return sum(_dur(s) for s in named(group, name))

    def per(fn) -> float:
        """Median over traced estimates of a per-estimate value."""
        return median(fn(by_trace[t]) for t in ids)

    def durations(name) -> List[float]:
        return [_dur(s) for t in ids for s in named(by_trace[t], name)]

    def extra(key) -> float:
        return median(op.extra.get(key, 0) for op in traced)

    def lane_rate(group):
        runs = named(group, "simulate.run")
        host = sum(_dur(s) for s in runs)
        lane_s = sum(s["attrs"]["lanes"] * s["attrs"]["horizon"] for s in runs)
        return lane_s / host if host else 0.0

    def lanes_per_run(group):
        runs = named(group, "simulate.run")
        return (sum(s["attrs"]["lanes"] for s in runs) / len(runs)
                if runs else 0.0)

    def case_spans(group):
        return named(group, "casestudy.trial") + named(group, "casestudy.batch")

    def case_self(group):
        return sum(self_time((s["start"], s["end"]),
                             [(c["start"], c["end"]) for c in children[s["id"]]
                              if c["name"] == "simulate.run"])
                   for s in case_spans(group))

    def work(field):
        return per(lambda g: sum(s["attrs"][field] for s in case_spans(g)))

    workers = workload.workers

    def busy_ratio(group):
        run_s = total(group, "campaign.run")
        return total(group, "campaign.batch") / (workers * run_s) if run_s else 0.0

    def parent_overhead(group):
        run_s = total(group, "campaign.run")
        return run_s - total(group, "campaign.batch") / workers if run_s else 0.0

    def first_result(group):
        return sum(s["attrs"].get("first_result_s", 0.0)
                   for s in named(group, "campaign.run"))

    def aggregate(group):
        ids_agg = {s["id"] for s in named(group, "aggregate")}
        return sum(_dur(s) for s in named(group, "aggregate")
                   if s["parent"] not in ids_agg)

    rare = workload.name == "rare-split"
    service = workload.name == "service-jobs"
    store_bytes = [op.extra["store_bytes"] / op.trials for op in traced
                   if "store_bytes" in op.extra]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    metrics: Metrics = {
        "simulate.lower_s": (total(by_trace["setup"], "simulate.lower")
                             + per(lambda g: total(g, "simulate.lower")), "s"),
        "simulate.run_s": (per(lambda g: total(g, "simulate.run")), "s"),
        "simulate.runs": (per(lambda g: len(named(g, "simulate.run"))), "count"),
        "simulate.lanes_per_run": (per(lanes_per_run), "count"),
        "simulate.lane_sim_s_per_host_s": (per(lane_rate), "s/s"),
        "casestudy.trial_s": (per(lambda g: total(g, "casestudy.trial")), "s"),
        "casestudy.batch_s": (per(lambda g: total(g, "casestudy.batch")), "s"),
        "casestudy.self_s": (per(case_self), "s"),
    }
    for field in WORK_COUNT_FIELDS:
        metrics[f"casestudy.{field}"] = (work(field), "count")
    batch_times = durations("campaign.batch")
    commit_times = durations("store.commit")
    trial_times = durations("rare.trial")
    metrics.update({
        "campaign.run_s": (per(lambda g: total(g, "campaign.run")), "s"),
        "campaign.first_result_s": (per(first_result), "s"),
        "campaign.batches": (per(lambda g: len(named(g, "campaign.batch"))),
                             "count"),
        "campaign.batch_s": (median(batch_times), "s"),
        "campaign.batch_p90_s": (_p90(batch_times), "s"),
        "campaign.worker_busy_ratio": (per(busy_ratio), "ratio"),
        "campaign.parent_overhead_s": (per(parent_overhead), "s"),
        "campaign.recovery_events": (extra("recovery_events"), "count"),
        "campaign.quarantined": (extra("quarantined"), "count"),
        "store.commits": (per(lambda g: len(named(g, "store.commit"))), "count"),
        "store.rows": (per(lambda g: sum(s["attrs"]["rows"] for s in
                                         named(g, "store.commit"))), "count"),
        "store.commit_s": (median(commit_times), "s"),
        "store.commit_p90_s": (_p90(commit_times), "s"),
        "store.bytes_per_trial": (median(store_bytes), "B"),
        "shm.fallbacks": (extra("shm_fallbacks"), "count"),
        "aggregate.s": (per(aggregate), "s"),
        "rare.levels": (extra("levels"), "count"),
        "rare.trials": (median(op.trials for op in traced) if rare else 0,
                        "count"),
        "rare.level_s": (median(durations("rare.level")), "s"),
        "rare.trial_s": (median(trial_times), "s"),
        "rare.trial_p90_s": (_p90(trial_times), "s"),
        "rare.self_s": (per(lambda g: total(g, "rare.estimate")
                            - total(g, "rare.level")), "s"),
        "service.submit_s": (median(durations("service.submit")), "s"),
        "service.watch_s": (median(durations("service.watch")), "s"),
        "service.events_per_job": (median(s["attrs"]["events"]
                                          for t in ids for s in
                                          named(by_trace[t], "service.watch")),
                                   "count"),
        "service.worker_pids": (len(workload.worker_pids) if service else 0,
                                "count"),
        "rss.parent_mb": (own, "MB"),
        "rss.children_mb": (kids, "MB"),
        "trace.overhead_s": (median(op.seconds for op in traced)
                             - median(op.seconds for op in plain), "s"),
    })
    return metrics
