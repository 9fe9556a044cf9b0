"""The summary of ``tools/ab.py``, on synthetic ``bench/run.py`` result lines, and
the comparison of ``tools/same_output.py``, on synthetic digests."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = _tool("ab")
same_output = _tool("same_output")

METRICS = [
    {"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.2},
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
]


def _line(jobs_per_s, p50_ms):
    """One run's last line, as ``bench/run.py`` prints it."""
    return {
        "correct": True,
        "attempted": 1000,
        "failed": 0,
        "metrics": {
            "jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
            "job_p50_ms": {"value": p50_ms, "unit": "ms"},
        },
    }


def _rows(parent, change):
    """Summary rows by name for pairs of (jobs_per_s, p50) runs."""
    pairs = [(_line(*p), _line(*c)) for p, c in zip(parent, change)]
    return {row["name"]: row for row in ab.summarize(pairs, METRICS)}


def test_quartiles_are_inclusive_and_one_run_is_all_three():
    assert ab.quartiles([5, 1, 4, 2, 3]) == (2, 3, 4)
    assert ab.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_iqr():
    parent = [(100 + i, 1.0 + i / 100) for i in range(10)]
    rows = _rows(parent, [(120 + i, 0.8 + i / 100) for i in range(10)])
    for name in ("jobs_per_s", "job_p50_ms"):
        assert rows[name]["wins"] == 10 and rows[name]["verdict"] == "gain"
    assert rows["jobs_per_s"]["parent"] == (102.25, 104.5, 106.75)
    assert rows["jobs_per_s"]["change"] == (122.25, 124.5, 126.75)
    # wins every pair, but by less than the parent's interquartile range (4.5)
    assert _rows(parent, [(101 + i, 1.0) for i in range(10)])["jobs_per_s"]["verdict"] == "no gain"
    # far ahead on the median, but wins only 8 of 10 pairs
    change = [(90, 1.0), (90, 1.0)] + [(200, 1.0)] * 8
    row = _rows(parent, change)["jobs_per_s"]
    assert row["wins"] == 8 and row["verdict"] == "no gain"
    # 9 of 10 is enough
    assert _rows(parent, change[1:] + [(200, 1.0)])["jobs_per_s"]["verdict"] == "gain"


def test_ties_count_for_neither_side():
    same = [(100, 1.0)] * 10
    for row in _rows(same, same).values():
        assert row["wins"] == 0 and row["verdict"] == "no gain"


@pytest.mark.parametrize(
    "change, verdicts",
    [
        ((79, 1.0), ("worse than bound", "no gain")),  # 21 % fewer jobs/s
        ((81, 1.25), ("no gain", "worse than bound")),  # 25 % slower p50
        ((81, 1.23), ("no gain", "no gain")),  # both within their bounds
    ],
)
def test_a_median_worse_than_the_bound_is_named(change, verdicts):
    rows = _rows([(100, 1.0)] * 10, [change] * 10)
    assert (rows["jobs_per_s"]["verdict"], rows["job_p50_ms"]["verdict"]) == verdicts


def test_same_output_counts_every_differing_or_missing_digest():
    assert same_output.differing(["a", "b", "c"], ["a", "b", "c"]) == []
    assert same_output.differing(["a", "b", "c", "d"], ["a", "x", "c", "y"]) == [1, 3]
    # a child that stopped early leaves its last jobs without a digest
    assert same_output.differing(["a", "b", "c"], ["a"]) == [1, 2]
    assert same_output.differing([], ["a"]) == [0]


@pytest.mark.parametrize(
    "change, code, lines",
    [
        (["1", "2", "3"], 0, ["jobs 3  differences 0"]),
        (["1", "x", "y"], 1, ["jobs 3  differences 2", "first difference: hilbert --gens 3,5"]),
        (["1", "2"], 1, ["jobs 3  differences 1", "first difference: batch -"]),
    ],
)
def test_same_output_names_the_first_differing_argv(
    capsys, monkeypatch, tmp_path, change, code, lines
):
    jobs = [["denumerant", "--gens", "3,5", "-n", "7"], ["hilbert", "--gens", "3,5"]]
    jobs.append(["batch", "-"])
    monkeypatch.setattr(same_output, "job_list", lambda tmp: jobs)
    sides = {tmp_path / "parent": ["1", "2", "3"], tmp_path / "change": change}
    monkeypatch.setattr(same_output, "digests", lambda checkout, _: sides[checkout])
    for side in sides:
        side.mkdir()
    assert same_output.main([str(side) for side in sides]) == code
    assert capsys.readouterr().out.splitlines() == lines


def test_same_output_child_hashes_argv_exit_code_and_both_streams():
    """One child runs this checkout's CLI and hashes each job's whole record."""
    answer = ["denumerant", "--gens", "3,5", "-n", "7"]
    error = ["denumerant", "--gens", "3,5", "-n", "-4"]
    records = [[answer, 0, "0\n", ""], [error, 2, "", "error: n must be non-negative\n"]]
    expected = [hashlib.sha256(json.dumps(record).encode()).hexdigest() for record in records]
    assert same_output.digests(ROOT, [answer, error, answer]) == [*expected, expected[0]]
