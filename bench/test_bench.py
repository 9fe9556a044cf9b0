"""Tests of the benchmark itself: seeded inputs, span arithmetic, checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checker  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import call  # noqa: E402


def _job_bytes(name: str, seed: int) -> bytes:
    if name == "batch":
        lines, planted = workloads.batch_file(seed)
        return json.dumps([lines, planted]).encode()
    return json.dumps([job.argv for job in workloads.ordered_pool(name, seed)]).encode()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_jobs(name):
    assert _job_bytes(name, 7) == _job_bytes(name, 7)
    assert _job_bytes(name, 7) != _job_bytes(name, 8)


def test_pool_order_is_stratified_by_size():
    order = workloads.ordered_pool("report", 3)
    cut = sorted(job.size for job in order)[len(order) // 2]
    first_round = order[: workloads.STRATA]
    small = sum(job.size < cut for job in first_round)
    assert abs(small - workloads.STRATA / 2) <= 1


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 8].
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("report.build_invariant_report", 1.0, 4.0, 0, 0),
        ("symmetry.classify", 5.0, 9.0, 0, 0),
        ("apery.apery_set", 6.0, 8.0, 2, 0),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 2.0, 6.0, 0, 0), ("c", 4.0, 8.0, 0, 0)]
    assert tracer.self_times(spans)[0] == 4.0


def test_host_speed_scaling_uses_kernel_samples_near_each_job():
    ref = hostspeed.REFERENCE_S
    # Kernel twice as slow as the reference around t=10, at reference speed around t=20.
    samples = [(9.8, 2 * ref), (10.1, 2 * ref), (10.2, 2 * ref), (19.9, ref), (20.3, ref)]
    assert hostspeed.scaled([10.0, 20.0, 40.0], [0.5, 0.5, 0.5], samples) == [0.25, 0.5, 0.5]


def test_tracer_catches_calls_through_imported_names_and_restores_them():
    from psemigroups import cli, report

    original = report.build_psemigroup
    trace = tracer.Tracer()
    trace.install()
    try:
        code, _, _, _ = call(["invariants", "--gens", "3,5,7", "-p", "1", "--json"])
    finally:
        trace.uninstall()
    assert code == 0
    assert report.build_psemigroup is original and cli.main.__name__ == "main"
    names = [span[0] for span in trace.spans]
    parent = {span[0]: trace.spans[span[3]][0] for span in trace.spans if span[3] >= 0}
    assert names[0] == "cli.main"
    assert parent["report.build_invariant_report"] == "cli.main"
    assert parent["enumeration.build_psemigroup"] == "report.build_invariant_report"
    assert names.count("apery.apery_set") >= 4
    metrics = tracer.layer_metrics(trace, jobs=1, output_bytes=0)
    assert metrics["enumeration.build_psemigroup.calls"] == (1, "count")


def test_batch_checker_flags_a_corrupted_answer_line():
    reference = ['{"gens":[3,5],"n":7,"denumerant":"0"}', '{"error":"gcd","exit":2}']
    good = "\n".join(reference) + "\n"
    assert checker.batch_failures(good, 2, {1}, reference) == []
    corrupted = good.replace('"denumerant":"0"', '"denumerant":"1"')
    assert checker.batch_failures(corrupted, 2, {1}, reference) == [
        "line 1 differs from its --verify reference"
    ]
    assert checker.batch_failures(reference[0] + "\n", 2, {1}, reference) == [
        "1 output lines for 2 jobs"
    ]
    unplanted = good.replace('"exit":2', '"exit":0')
    assert checker.batch_failures(unplanted, 2, {1}, reference) == [
        "line 2 should be an exit-2 rejection"
    ]


DECOMPOSE = ["decompose", "--gens", "4,9,11", "-p", "1", "--json", "--quiet"]


def _decomposition() -> dict:
    code, _, _, out = call(DECOMPOSE)
    assert code == 0
    data = json.loads(out.getvalue())
    assert data["count"] >= 2
    return data


def test_decomposition_checker_accepts_the_real_answer():
    assert checker.check_decomposition(DECOMPOSE, json.dumps(_decomposition())) is None


def test_decomposition_checker_flags_a_corrupted_component():
    data = _decomposition()
    dropped = dict(data, components=data["components"][1:], count=data["count"] - 1)
    assert checker.check_decomposition(DECOMPOSE, json.dumps(dropped)) is not None
    component = data["components"][0]
    swapped = dict(component, generators=[2, 2 * component["frobenius"] + 3])
    swapped["frobenius"], swapped["genus"] = 2 * component["frobenius"] + 1, component["frobenius"] + 1
    changed = dict(data, components=[swapped, *data["components"][1:]])
    assert checker.check_decomposition(DECOMPOSE, json.dumps(changed)) is not None
    reprinted = dict(data, components=[dict(component, genus=component["genus"] + 1),
                                       *data["components"][1:]])
    assert checker.check_decomposition(DECOMPOSE, json.dumps(reprinted)) is not None


def test_answer_checker_flags_a_corrupted_answer():
    from worker import Workload

    workload = Workload("report", 1)
    job = workloads.Job(("invariants", "--gens", "3,5,7", "-p", "2", "--json", "--quiet"), 0)
    code, _, _, out = call(job.argv)
    text = out.getvalue()
    corrupted = text.replace('"genus":', '"genus":1')
    assert code == 0 and corrupted != text
    # No pinned reference: the job is run again with --verify.
    assert workload._verdict(job, checker.digest(text), text) is None
    assert workload._verdict(job, checker.digest(corrupted), corrupted) is not None
    # Pinned reference.
    workload.references = {job.key: checker.digest(text)}
    assert workload._verdict(job, checker.digest(corrupted), corrupted) is not None
