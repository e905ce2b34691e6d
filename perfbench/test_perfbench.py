"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import dataclasses
import os
import subprocess
import sys

import pytest

from stats import highest_tail_percentile, samples_needed, self_time, spread
from workloads import campaign_problems, digest


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (10000, 99.9)])
def test_highest_percentile_leaves_ten_samples_beyond(count, expected):
    assert highest_tail_percentile(count) == expected


def test_samples_needed_matches_the_rule():
    assert samples_needed(90.0) == 100
    assert samples_needed(99.0) == 1000
    assert highest_tail_percentile(samples_needed(90.0) - 1) == 50.0


def test_self_time_with_nested_and_overlapping_children():
    parent = (0.0, 10.0)
    assert self_time(parent, []) == pytest.approx(10.0)
    # Overlapping siblings cover [1, 5] once, not 2 + 3 seconds.
    assert self_time(parent, [(1.0, 3.0), (2.0, 5.0)]) == pytest.approx(6.0)
    # A grandchild nested in a child adds nothing.
    assert self_time(parent, [(6.0, 9.0), (7.0, 8.0)]) == pytest.approx(7.0)
    # A child sticking out of its parent is clipped to it.
    assert self_time(parent, [(9.0, 12.0), (-1.0, 0.5)]) == pytest.approx(8.5)
    assert self_time(parent, [(1.0, 3.0), (2.0, 5.0), (6.0, 9.0), (7.0, 8.0),
                              (9.0, 12.0)]) == pytest.approx(2.0)


def test_spread_is_interquartile_distance_over_median():
    assert spread([1.0] * 10) == 0.0
    assert spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


def _campaign(summaries):
    from repro.campaign import CampaignResult, table1_spec

    spec = table1_spec(mean_toffs=(18.0,), replicates=1, duration=30.0)
    return CampaignResult(spec=spec, master_seed=1, workers=1, wall_time=1.0,
                          summaries=tuple(summaries))


def _summary(with_lease, **fields):
    from repro.campaign import TrialSummary

    values = dict(label="cell", spec_index=0 if with_lease else 1,
                  replicate=0, seed=7, with_lease=with_lease, mean_toff=18.0,
                  duration=30.0, laser_emissions=3, failures=0, evt_to_stop=1,
                  ventilator_pauses=3, max_emission_duration=12.5,
                  max_pause_duration=14.0, min_spo2=96.25,
                  supervisor_aborts=0, surgeon_requests=4, surgeon_cancels=1,
                  observed_loss_ratio=0.125)
    values.update(fields)
    return TrialSummary(**values)


def test_golden_check_fails_on_one_perturbed_summary_field():
    summaries = [_summary(True), _summary(False, failures=2)]
    result = _campaign(summaries)
    golden = digest(result.to_json()["campaign"])
    assert campaign_problems(result.to_json(), result.summaries,
                             expected_trials=2, golden=golden) == []
    for field in ("laser_emissions", "min_spo2", "observed_loss_ratio"):
        value = getattr(summaries[1], field)
        bumped = dataclasses.replace(summaries[1], **{field: value + 1})
        perturbed = _campaign([summaries[0], bumped])
        problems = campaign_problems(perturbed.to_json(), perturbed.summaries,
                                     expected_trials=2, golden=golden)
        assert problems and "golden" in problems[0], field


def test_lease_arm_violation_is_a_problem_on_any_seed():
    result = _campaign([_summary(True, failures=1), _summary(False)])
    problems = campaign_problems(result.to_json(), result.summaries,
                                 expected_trials=2, golden=None)
    assert problems == ["1 lease-arm trial(s) violated a PTE rule"]


ORPHAN_SCRIPT = """
import os, subprocess, sys
from run import adopt_orphans, child_pids, stop_children
adopt_orphans()
# A child that starts a grandchild and exits at once, orphaning it.
out = subprocess.run([sys.executable, "-c",
    "import subprocess, sys; "
    "print(subprocess.Popen([sys.executable, '-c', "
    "'import time; time.sleep(0.3)']).pid)"],
    capture_output=True, text=True, check=True).stdout
grandchild = int(out)
assert grandchild in child_pids(), "orphan was not adopted"
stop_children()
assert child_pids() == []
assert not os.path.exists(f"/proc/{grandchild}")
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="child subreaper is Linux only")
def test_stop_children_reaps_adopted_orphans():
    subprocess.run([sys.executable, "-c", ORPHAN_SCRIPT], check=True,
                   cwd=os.path.dirname(os.path.abspath(__file__)),
                   timeout=60)
