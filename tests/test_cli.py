import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import psemigroups
from psemigroups.cli import (
    COMMANDS, _argv_table, _job_fields, _parse_argv, canonical_json, cmd_hilbert, main,
)
from psemigroups.core import ValidationError

REFERENCES = Path(__file__).resolve().parents[1] / "bench" / "references"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_json(capsys):
    code, out, _ = run(
        capsys, ["invariants", "--gens", "6,17,28", "-p", "5", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["pf"] == [163, 179]
    assert data["type"] == 2
    assert data["ell0"] == 130
    assert data["frobenius"] == 179
    assert data["sylvester_sum"] == "12246"
    assert data["apery"] == [168, 169, 152, 147, 130, 185]
    assert not data["classification"]["symmetric"]
    assert not data["classification"]["pseudo_symmetric"]


def test_invariants_completely_symmetric(capsys):
    code, out, _ = run(
        capsys, ["invariants", "--gens", "3,10,17", "-p", "19", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["classification"]["completely_symmetric"] is True


def test_invariants_text(capsys):
    code, out, _ = run(capsys, ["invariants", "--gens", "4,5,6", "-p", "8"])
    assert code == 0
    assert "frobenius" in out and "39" in out


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, ["invariants", "--gens", "4,6"])
    assert code == 2
    assert "gcd" in err


def test_non_minimal_warning(capsys):
    code, _, err = run(
        capsys, ["invariants", "--gens", "6,7,17,28", "-p", "1", "--json"]
    )
    assert code == 0
    assert "not a minimal generating set" in err
    code, _, err = run(
        capsys, ["invariants", "--gens", "6,7,17,28", "-p", "1", "--json", "--quiet"]
    )
    assert code == 0
    assert err == ""


def test_json_round_trip(capsys):
    for argv in [
        ["invariants", "--gens", "6,17,28", "-p", "5", "--json"],
        ["hilbert", "--gens", "2,3", "-p", "1", "--trunc", "12", "--json"],
        ["sweep", "--gens", "3,7,11", "--p", "0..3", "--json"],
        ["membership", "--gens", "3,5", "-n", "43", "-p", "1", "--json"],
        ["denumerant", "--gens", "2,5,7", "-n", "42", "--json"],
        ["decompose", "--gens", "5,9,16", "-p", "2", "--json"],
    ]:
        code, out, _ = run(capsys, argv)
        assert code == 0
        for line in out.splitlines():
            assert canonical_json(json.loads(line)) == line


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, ["sweep", "--gens", "3,7,11", "--p", "0..5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p,ell0,frobenius,genus,sylvester_sum,type")
    rows = [line.split(",") for line in lines[1:]]
    header = lines[0].split(",")
    sym_idx = header.index("symmetric")
    pseudo_idx = header.index("pseudo_symmetric")
    sym_ps = [int(r[0]) for r in rows if r[sym_idx] == "true"]
    pseudo_ps = [int(r[0]) for r in rows if r[pseudo_idx] == "true"]
    assert sym_ps == [1, 2]
    assert pseudo_ps == [0, 3, 4, 5]


def test_sweep_6_7_17_28(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--gens", "6,7,17,28", "--p", "12..17", "--json", "--quiet"],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["p"] for r in rows if r["symmetric"]] == [15]
    assert [r["p"] for r in rows if r["pseudo_symmetric"]] == [12, 17]
    by_p = {r["p"]: r for r in rows}
    assert by_p[12]["genus"] == 87
    assert by_p[17]["genus"] == 100


def test_sweep_two_generators_always_symmetric(capsys):
    code, out, _ = run(capsys, ["sweep", "--gens", "2,3", "--p", "0..3", "--json"])
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert all(r["symmetric"] for r in rows)


def test_sweep_range_cap(capsys):
    code, _, err = run(capsys, ["sweep", "--gens", "2,3", "--p", "0..20000"])
    assert code == 2
    assert "range" in err


def test_denumerant(capsys):
    code, out, _ = run(capsys, ["denumerant", "--gens", "2,5,7", "-n", "43"])
    assert code == 0
    assert out.strip() == "17"
    code, out, _ = run(
        capsys, ["denumerant", "--gens", "2,5,7", "-n", "42", "--json", "--verify"]
    )
    assert json.loads(out)["denumerant"] == "18"


def test_membership(capsys):
    code, out, _ = run(
        capsys,
        ["membership", "--gens", "3,5", "-n", "43", "-p", "1", "--json", "--verify"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    code, out, _ = run(
        capsys, ["membership", "--gens", "3,5", "-n", "22", "-p", "1", "--json"]
    )
    assert json.loads(out)["member"] is False


def test_decompose_cli(capsys):
    code, out, _ = run(
        capsys, ["decompose", "--gens", "5,9,16", "-p", "2", "--json", "--verify"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] >= 2
    assert all(entry["irreducible"] for entry in data["components"])


def test_decompose_of_the_full_monoid_is_itself(capsys):
    code, out, _ = run(capsys, ["decompose", "--gens", "1,2", "--json", "--verify"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1
    assert data["components"] == [
        {"generators": [1], "frobenius": -1, "genus": 0, "irreducible": True}
    ]


def test_hilbert_default_truncation(capsys):
    code, out, _ = run(capsys, ["hilbert", "--gens", "4,5,6", "-p", "8", "--json", "--verify"])
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == 4 * (39 + 1)
    coeffs = data["hilbert"]
    assert [n for n, c in enumerate(coeffs[:42]) if c] == [36, 38, 40, 41]
    assert all(a + b == 1 for a, b in zip(coeffs, data["gaps_series"]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=20), min_size=2, max_size=4).filter(
        lambda xs: math.gcd(*xs) == 1
    ),
    st.integers(min_value=0, max_value=4),
    st.one_of(st.sampled_from((0, 1, None)), st.integers(min_value=0, max_value=300)),
)
def test_hilbert_renderers_write_the_series_as_the_generic_forms_would(raw, p, trunc):
    """The byte renderers equal ``canonical_json`` and the digit join over int lists."""
    data = cmd_hilbert(psemigroups.validate_generators(raw), p, trunc)
    listed = {**data, "hilbert": list(data["hilbert"]), "gaps_series": list(data["gaps_series"])}
    _, renderers = COMMANDS["hilbert"]
    assert renderers["json"](data) == canonical_json(listed) + "\n"
    assert renderers["text"](data) == (
        f"truncation {data['truncation']}\n"
        f"hilbert      {''.join(map(str, listed['hilbert']))}\n"
        f"gaps_series  {''.join(map(str, listed['gaps_series']))}\n"
    )


def test_hilbert_at_truncation_zero_has_one_coefficient_and_no_comma(capsys):
    assert run(capsys, ["hilbert", "--gens", "3,5", "-p", "1", "--trunc", "0"])[1] == (
        '{"gens":[3,5],"p":1,"truncation":0,"hilbert":[0],"gaps_series":[1]}\n'
    )
    assert run(capsys, ["hilbert", "--gens", "3,5", "--trunc", "0", "--text"])[1] == (
        "truncation 0\nhilbert      1\ngaps_series  0\n"
    )


@pytest.mark.parametrize("byte", [2, 255])
def test_a_series_byte_past_one_fails_the_partition_check_with_exit_1(build, monkeypatch, byte):
    from psemigroups import report
    from psemigroups.core import InternalConsistencyError
    from psemigroups.hilbert import PowerSeries, gaps_series, hilbert_direct

    S = build((3, 5), 1)
    member, gap = hilbert_direct(S, 30).coefficients, gaps_series(S, 30).coefficients
    for n in (0, 7, 30):
        def put(series):
            return PowerSeries(series[:n] + bytes([byte]) + series[n + 1 :])

        with pytest.raises(InternalConsistencyError, match="series partition"):
            report.check_series(S, PowerSeries(member), put(gap))
        # the same byte in both series, which the factorization oracle repeats:
        # Psi is H flipped at every byte, yet H + Psi is not 1
        monkeypatch.setattr(report, "hilbert_from_apery", lambda ap, trunc: put(member))
        with pytest.raises(InternalConsistencyError, match="series partition"):
            report.check_series(S, put(member), put(gap))
        monkeypatch.undo()


@pytest.mark.parametrize("fmt", ["--json", "--text"])
def test_a_long_series_costs_a_few_bytes_per_coefficient(peak_rss_kib, fmt):
    """``hilbert --trunc 2000000`` grows the process by under 20 bytes per coefficient.

    The peaks were 42.3 MB (JSON) and 30.5 MB (text) against 17.1 MB at
    ``--trunc 10`` (2-vCPU Xeon VM, CPython 3.11.7).  A Python int per
    coefficient in a list that ``json.dumps`` or ``str`` walks added 32 and
    90 bytes per coefficient.
    """
    trunc = 2_000_000
    grown = peak_rss_kib(["hilbert", "--gens", "3,5", "--trunc", str(trunc), fmt]) - peak_rss_kib(
        ["hilbert", "--gens", "3,5", "--trunc", "10", fmt]
    )
    assert grown * 1024 < 20 * trunc


def test_batch_stdin(capsys, monkeypatch):
    jobs = "\n".join(
        [
            json.dumps({"command": "denumerant", "gens": [2, 5, 7], "n": 43}),
            json.dumps({"command": "invariants", "gens": [4, 5, 6], "p": 8}),
            "",
            json.dumps({"command": "nope", "gens": [2, 3]}),
        ]
    )
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(_io.BytesIO(jobs.encode())))
    code = main(["batch", "-"])
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert code == 2  # last job is invalid
    assert json.loads(lines[0])["denumerant"] == "17"
    assert json.loads(lines[1])["frobenius"] == 39
    assert "error" in json.loads(lines[2])


def test_batch_file(capsys, tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text(
        json.dumps({"command": "membership", "gens": [3, 5], "p": 1, "n": 43}) + "\n"
    )
    code = main(["batch", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["member"] is True


def test_internal_error_exit_code(capsys, monkeypatch):
    import psemigroups.cli as cli_mod
    from psemigroups.core import InternalConsistencyError

    def boom(*args, **kwargs):
        raise InternalConsistencyError("forced")

    monkeypatch.setattr(cli_mod, "build_invariant_report", boom)
    code = cli_mod.main(["invariants", "--gens", "2,3", "-p", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "internal error" in err


def test_table_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("PSG_MAX_TABLE", "40")
    code, _, err = run(capsys, ["invariants", "--gens", "3,10,17", "-p", "6"])
    assert code == 2
    assert "PSG_MAX_TABLE" in err


def test_table_cap_rejects_huge_generator_before_minimality_scan(capsys, monkeypatch):
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    start = time.perf_counter()
    code, out, err = run(capsys, ["invariants", "--gens", "3,20000002"])
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert "PSG_MAX_TABLE" in err


def test_batch_rejects_malformed_jobs(capsys, monkeypatch):
    import io as _io

    lines = [
        "[3,5]",
        json.dumps({"command": "membership", "gens": [3, 5], "n": "7"}),
        json.dumps({"command": "membership", "gens": [3, 5], "n": True}),
        json.dumps({"command": "invariants", "gens": [3, 5], "mu": "x"}),
        json.dumps({"command": "hilbert", "gens": [3, 5], "trunc": 2.5}),
        json.dumps({"command": ["invariants"], "gens": [3, 5]}),
        "{not json",
        json.dumps({"command": "denumerant", "gens": [2, 5, 7], "n": 43}),
    ]
    monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(_io.BytesIO("\n".join(lines).encode())))
    code = main(["batch", "-"])
    captured = capsys.readouterr()
    out = [json.loads(line) for line in captured.out.splitlines()]
    assert code == 2
    assert "Traceback" not in captured.err
    assert len(out) == len(lines)
    for number, row in enumerate(out[:-1], 1):
        assert row["exit"] == 2 and row["line"] == number and row["error"]
    assert out[-1]["denumerant"] == "17"


def test_batch_line_numbers_count_blank_lines(capsys, tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text("\n".join(["", json.dumps({"gens": [4, 6]}), "", "7"]) + "\n")
    code = main(["batch", str(path)])
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 2
    assert [row["line"] for row in out] == [2, 4]


def test_table_cap_bounds_user_sized_tables(capsys, monkeypatch):
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    # the recursive denumerant oracle loops (900 // 28 + 1) * (900 // 17 + 1)
    # = 1749 times, past the cap, though the 901-entry table is within it
    oracle_jobs = [
        ["denumerant", "--gens", "6,17,28", "-n", "900"],
        ["membership", "--gens", "6,17,28", "-n", "900", "-p", "5"],
    ]
    for argv in [
        ["denumerant", "--gens", "2,3", "-n", "5000000"],
        ["membership", "--gens", "2,3", "-n", "5000000", "-p", "1"],
        ["hilbert", "--gens", "3,5", "--trunc", "3000000"],
        *([*job, "--verify"] for job in oracle_jobs),
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "PSG_MAX_TABLE" in err
    for job in oracle_jobs:
        assert run(capsys, job)[0] == 0
    code, out, _ = run(capsys, ["hilbert", "--gens", "3,5", "--trunc", "999", "--json"])
    assert code == 0
    assert json.loads(out)["truncation"] == 999


def test_parser_reused_after_errors_gives_fresh_process_output(capsys):
    good = ["invariants", "--gens", "6,17,28", "-p", "5"]
    assert "--csv" not in _argv_table("invariants")[0]
    assert run(capsys, ["invariants", "--gens", "6,17,28", "--json", "--csv"])[:2] == (2, "")
    assert run(capsys, ["invariants", "--gens", "4,6", "--json", "--verify"])[0] == 2
    code, out, _ = run(capsys, good)
    src = str(Path(psemigroups.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [sys.executable, "-m", "psemigroups.cli", *good],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=False,
    )
    assert code == fresh.returncode == 0
    assert out == fresh.stdout


@pytest.mark.parametrize(
    "workload, count, extra",
    [
        ("report", 1200, ["--verify"]),
        ("verify", 2054, []),  # every key already carries --verify
        ("decompose", 408, ["--verify"]),
    ],
    ids=["report", "verify", "decompose"],
)
def test_output_matches_pinned_digests(capsys, workload, count, extra):
    """Every pinned benchmark answer, replayed in-process, byte for byte."""
    references = json.loads((REFERENCES / f"{workload}.json").read_text(encoding="utf-8"))
    assert len(references) == count
    mismatched = []
    for key, pinned in references.items():
        code, out, _ = run(capsys, [*key.split(), *extra])
        if code != 0 or hashlib.sha256(out.encode("utf-8")).hexdigest()[:32] != pinned:
            mismatched.append(key)
    assert mismatched == []


GOLDEN_TEXT = [
    (
        "invariants --gens 3,7,11 -p 3",
        "gens                 [3, 7, 11]\n"
        "gens_minimal         True\n"
        "p                    3\n"
        "ell0                 28\n"
        "frobenius            30\n"
        "genus                30\n"
        "sylvester_sum        437\n"
        "power_sums           mu=1:437 mu=2:8671 mu=3:194273\n"
        "apery                [33, 28, 32]\n"
        "pf                   [29, 30]\n"
        "type                 2\n"
        "embedding_dimension  28\n"
        "class                pseudo_symmetric, irreducible\n"
        "midpoint             29 (gap)\n"
        "valuation            d1=30 d2=59 d3=29\n",
    ),
    (
        "sweep --gens 3,7,11 -p 2..4 --text",
        "p  ell0  frobenius  genus  sylvester_sum  type  "
        "symmetric  pseudo_symmetric  completely_symmetric  irreducible\n"
        "2    21         26     24            281     1       "
        "True             False                 False         True\n"
        "3    28         30     30            437     2      "
        "False              True                 False         True\n"
        "4    35         37     36            632     1      "
        "False              True                 False         True\n",
    ),
    (
        "sweep --gens 3,7,11 -p 0..3",
        "p,ell0,frobenius,genus,sylvester_sum,type,"
        "symmetric,pseudo_symmetric,completely_symmetric,irreducible\n"
        "0,0,8,5,20,2,false,true,false,true\n"
        "1,14,19,17,141,1,true,false,false,true\n"
        "2,21,26,24,281,1,true,false,false,true\n"
        "3,28,30,30,437,2,false,true,false,true\n",
    ),
    (
        "hilbert --gens 3,5 -p 1 --trunc 24 --text",
        "truncation 24\n"
        "hilbert      0000000000000001001011011\n"
        "gaps_series  1111111111111110110100100\n",
    ),
    ("membership --gens 3,5 -p 1 -n 43", "d(43) = 3; member (> 1): True\n"),
    ("denumerant --gens 2,5,7 -n 43 --quiet", "17\n"),
    (
        "decompose --gens 4,5,6 -p 1",
        "5 irreducible component(s)\n"
        "  frobenius   13  genus    7  <7,8,9,10,11,12>\n"
        "  frobenius   11  genus    6  <6,7,8,9,10>\n"
        "  frobenius    9  genus    5  <5,6,7,8>\n"
        "  frobenius    8  genus    5  <5,6,7,9>\n"
        "  frobenius    7  genus    4  <4,5,6>\n",
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    GOLDEN_TEXT,
    ids="invariants sweep sweep-csv hilbert membership denumerant decompose".split(),
)
def test_text_and_csv_output_is_exact(capsys, argv, expected):
    """Outputs recorded before the command functions returned data."""
    assert run(capsys, argv.split()) == (0, expected, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--gens", "3,5", "--csv"],
        ["hilbert", "--gens", "3,5", "--csv"],
        ["membership", "--gens", "3,5", "-n", "7", "--csv"],
        ["denumerant", "--gens", "3,5", "-n", "7", "--csv"],
        ["decompose", "--gens", "3,5", "--csv"],
        ["denumerant", "--gens", "3,5", "-n", "7", "-p", "0..9"],
        ["invariants", "--gen", "3,5"],  # no unique-prefix abbreviations
    ],
)
def test_options_a_command_does_not_honour_are_rejected(capsys, argv):
    """The flag table of the command lacks the option; it exits 2 naming it."""
    flags = _argv_table(argv[0])[0]
    rejected = [word for word in argv[1:] if word.startswith("-") and word not in flags]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert rejected and repr(rejected[0]) in err


@pytest.mark.parametrize("mu", ["400", "101", "-3"])
def test_mu_outside_its_bound_exits_2_before_any_power_sum(capsys, mu):
    start = time.perf_counter()
    code, out, err = run(capsys, ["invariants", "--gens", "3,5", "--mu", mu, "--json"])
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "")
    assert "mu must be in 0..100" in err


def test_mu_at_its_bound_runs(capsys):
    code, out, _ = run(capsys, ["invariants", "--gens", "3,5", "--mu", "100", "--json"])
    assert code == 0
    assert list(json.loads(out)["power_sums"]) == [str(mu) for mu in range(1, 101)]


def _batch(monkeypatch, capsys, lines):
    import io as _io

    data = ("\n".join(lines) + "\n").encode()
    monkeypatch.setattr("sys.stdin", _io.TextIOWrapper(_io.BytesIO(data)))
    code = main(["batch", "-"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, [json.loads(line) for line in captured.out.splitlines()]


@pytest.mark.parametrize(
    "job, words",
    [
        ({"command": "sweep", "gens": [3, 7], "p": "0..2"}, "'p' must be an integer"),
        ({"command": "invariants", "gens": [3, 5], "p": "2"}, "'p' must be an integer"),
        ({"command": "invariants", "gens": [3, 5], "p": True}, "'p' must be an integer"),
        ({"command": "denumerant", "gens": [3, 5], "p": "x"}, "'p' must be an integer"),
        ({"command": "invariants", "gens": [3, "5"]}, "not an integer"),
        ({"command": "invariants", "gens": ["3,5"]}, "not an integer"),
        ({"command": "invariants", "gens": [3, True]}, "not an integer"),
        ({"command": "invariants", "gens": [3, 5], "verify": "false"}, "'verify' must be"),
        ({"command": "invariants", "gens": [3, 5], "verify": 1}, "'verify' must be"),
        ({"command": "hilbert", "gens": [3, 5], "trunc": None}, "'trunc' must be an integer"),
        ({"command": "invariants", "gens": [3, 5], "mu": 400}, "mu must be in 0..100"),
        ({"command": "invariants", "gens": [3, 5], "mu": -3}, "mu must be in 0..100"),
        ({"command": "membership", "gens": [3, 5], "p": -1, "n": 8}, "bad p range"),
        # the first mistyped field in schema order, whatever the job's order,
        # and a mistyped field before a key the command does not take
        ({"command": "invariants", "gens": [3, 5], "mu": "y", "p": "x"}, "'p' must be an integer"),
        ({"command": "membership", "gens": [3, 5], "nn": 1, "n": "8"}, "'n' must be an integer"),
    ],
)
def test_batch_rejects_mistyped_fields_and_goes_on(capsys, monkeypatch, job, words):
    good = {"command": "denumerant", "gens": [2, 5, 7], "n": 43}
    start = time.perf_counter()
    code, out = _batch(monkeypatch, capsys, [json.dumps(job), json.dumps(good)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out[0]["exit"] == 2 and out[0]["line"] == 1 and words in out[0]["error"]
    assert out[1] == {"gens": [2, 5, 7], "n": 43, "denumerant": "17"}


# A field of the schema that each command does not take.
_UNTAKEN = {
    "invariants": "n",
    "sweep": "mu",
    "hilbert": "n",
    "membership": "trunc",
    "denumerant": "p",
    "decompose": "mu",
}


@pytest.mark.parametrize("command", sorted(_UNTAKEN))
@pytest.mark.parametrize("untaken", ["field", "unknown key"])
def test_batch_rejects_fields_its_command_does_not_take(capsys, monkeypatch, command, untaken):
    """As argv rejects an option its command does not take, batch rejects the field."""
    key = _UNTAKEN[command] if untaken == "field" else "verfy"
    job = {"command": command, "gens": [3, 5], key: True if key == "verfy" else 1}
    good = {"command": "denumerant", "gens": [2, 5, 7], "n": 43}
    code, out = _batch(monkeypatch, capsys, [json.dumps(job), json.dumps(good)])
    assert code == 2
    assert out[0] == {
        "error": f"batch command {command!r} does not take [{key!r}]",
        "exit": 2,
        "line": 1,
    }
    assert out[1] == {"gens": [2, 5, 7], "n": 43, "denumerant": "17"}


def test_batch_survives_lines_json_cannot_parse_and_rejects_a_missing_file(
    capsys, monkeypatch, tmp_path
):
    good = {"command": "denumerant", "gens": [3, 7], "n": 10}
    lines = ["[" * 10**5 + "]" * 10**5, '{"gens": [3, ' + "7" * 5000 + "]}", json.dumps(good)]
    code, out = _batch(monkeypatch, capsys, lines)
    assert code == 2
    assert out[0] == {"error": "batch job is nested too deeply to parse", "exit": 2, "line": 1}
    assert out[1]["exit"] == 2 and out[1]["line"] == 2 and "digits" in out[1]["error"]
    assert out[2]["denumerant"] == "1"
    code, out, err = run(capsys, ["batch", str(tmp_path / "missing.jsonl")])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "missing.jsonl" in err


def test_batch_exit_1_outranks_exit_2(capsys, monkeypatch):
    import psemigroups.cli as cli_mod
    from psemigroups.core import InternalConsistencyError

    def boom(*args, **kwargs):
        raise InternalConsistencyError("forced")

    monkeypatch.setattr(cli_mod, "build_invariant_report", boom)
    jobs = [
        {"gens": [4, 6]},
        {"gens": [3, 5]},
        {"command": "denumerant", "gens": [3, 5], "n": 8},
    ]
    code, out = _batch(monkeypatch, capsys, [json.dumps(job) for job in jobs])
    assert code == 1
    assert out[:2] == [
        {"error": "gcd of generators is 2, expected 1", "exit": 2, "line": 1},
        {"error": "forced", "exit": 1, "line": 2},
    ]
    assert out[2]["denumerant"] == "1"


def test_batch_sweep_is_one_line_per_job(capsys, monkeypatch):
    lines = [
        json.dumps({"command": "sweep", "gens": [3, 7, 11], "p": 3}),
        json.dumps({"command": "sweep", "gens": [3, 7, 11]}),
    ]
    code, out = _batch(monkeypatch, capsys, lines)
    assert code == 0
    assert [(row["p"], row["pseudo_symmetric"]) for row in out] == [(3, True), (0, True)]
    expected = run(capsys, ["sweep", "--gens", "3,7,11", "-p", "3", "--json"])[1]
    assert json.loads(expected) == out[0]


# Sizes stay small (generators under 30, n under 200), and the test lowers
# the table cap to 1000 so that no job a random line can form takes long.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 250) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_jobs = st.fixed_dictionaries(
    {"gens": st.lists(st.integers(1, 29), min_size=2, max_size=4) | _json_values},
    optional={
        "command": st.sampled_from(
            "invariants sweep hilbert membership denumerant decompose batch".split()
        )
        | _json_values,
        "p": st.integers(-1, 1) | st.sampled_from(["0", "0..1", 1.0, True]) | _json_values,
        "n": st.integers(-2, 199) | _json_values,
        "mu": st.integers(-1, 4) | st.just(400) | _json_values,
        "trunc": st.integers(-1, 60) | _json_values,
        "verify": st.booleans() | _json_values,
    },
)
_lines = st.lists(
    st.one_of(
        _jobs.map(json.dumps),
        _json_values.map(json.dumps),
        st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8),
    ),
    max_size=5,
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=_lines)
@example(lines=["", json.dumps({"command": "sweep", "gens": [3, 7], "p": "0..1"}), "{"])
def test_batch_gives_one_line_per_job_and_a_contract_exit_code(capsys, monkeypatch, lines):
    """Whatever a job line holds, it gets one output line; errors name their line."""
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    code, out = _batch(monkeypatch, capsys, lines)
    assert code in (0, 1, 2)
    numbers = [number for number, line in enumerate(lines, 1) if line.strip()]
    assert len(out) == len(numbers)
    for number, row in zip(numbers, out):
        if "error" in row:
            assert row["line"] == number and row["exit"] in (1, 2)
    assert code == min((row["exit"] for row in out if "error" in row), default=0)


def _flip_first(series):
    from psemigroups.hilbert import PowerSeries

    return PowerSeries(bytes([1 - series.coefficients[0]]) + series.coefficients[1:])


def _flip_first_byte(membership: bytes) -> bytes:
    return bytes([1 - membership[0]]) + membership[1:]


def _flip_bit_zero(word: int) -> int:
    return word ^ 1


def _bump_first(entries: tuple) -> tuple:
    return (entries[0] + 1, *entries[1:])


def _bump_mu_2(sums: list) -> list:
    """Entry 2 of ``gap_power_sums``: the default path checks only 0 and 1."""
    return [*sums[:2], sums[2] + 1, *sums[3:]]


@pytest.mark.parametrize(
    "module, name, corrupt, argv, where",
    [
        ("report", "membership_oracle", _flip_first_byte, "hilbert", "p=1"),
        ("report", "membership_oracle", _flip_first_byte, "invariants", "p=1"),
        ("report", "hilbert_from_apery", _flip_first, "hilbert", "p=1"),
        ("cli", "gaps_series", _flip_first, "hilbert", "p=1"),
        ("report", "denumerant_oracle", lambda d: d + 1, "membership -n 43", "p=1"),
        ("report", "denumerant_oracle", lambda d: d + 1, "denumerant -n 43", ""),
        ("report", "two_var_membership", lambda member: not member, "membership -n 43", "p=1"),
        ("report", "pf_via_gap_maximals", lambda pf: pf[:-1], "invariants", "p=1"),
        ("report", "pseudo_frobenius", lambda pf: pf[:-1], "invariants", "p=1"),
        ("report", "pf_via_apery_maximals", lambda pf: pf[:-1], "invariants", "p=1"),
        # the list both gap oracles share: F dropped, the Apery reading differs
        ("report", "_pf_candidates", lambda candidates: candidates[:-1], "invariants", "p=1"),
        ("report", "gap_power_sums", _bump_mu_2, "invariants", "p=1"),
        ("report", "_generator_count", lambda count: count + 1, "invariants", "p=1"),
        # the three closed Apery tuples; the lift reads both builds with
        # _least_per_class, and on 3,5 reduces at a1 = 3 with d = 5
        ("report", "_two_var_apery", _bump_first, "invariants", "p=1"),
        ("report", "_least_per_class", _bump_first, "invariants", "p=1"),
        ("report", "_arith_apery", _bump_first, "invariants --gens 3,5,7", "p=1"),
        ("cli", "minimal_generators_lower_half", lambda gens: gens[:-1], "decompose", "p=1"),
        ("report", "_member_word", _flip_bit_zero, "decompose", "p=1"),
    ],
)
def test_verify_cross_checks_exit_1_naming_gens_and_p(
    capsys, monkeypatch, module, name, corrupt, argv, where
):
    """Each shared --verify check fails its command when its oracle disagrees.

    The generators are 3,5 unless ``argv`` names its own after the command.
    """
    import importlib

    owner = importlib.import_module(f"psemigroups.{module}")
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: corrupt(real(*args, **kw)))
    command, *extra = argv.split()
    gens = "3,5"
    if extra[:1] == ["--gens"]:
        _, gens, *extra = extra
    p = [] if command == "denumerant" else ["-p", "1"]
    base = [command, "--gens", gens, *p, *extra]
    assert run(capsys, base)[0] == 0
    code, out, err = run(capsys, [*base, "--verify"])
    assert (code, out) == (1, "")
    assert f"for gens=({gens.replace(',', ', ')}) {where}".strip() + "\n" in err


@pytest.mark.parametrize("entry, what", [(0, "genus"), (1, "sylvester sum")])
def test_default_report_checks_exit_1_naming_gens_and_p(capsys, monkeypatch, entry, what):
    """Without --verify the report still checks the formula genus and gap sum
    against the ones read off the membership bytes."""
    from psemigroups import report

    real = report.gap_power_sums

    def off_by_one(ap, mu_max):
        sums = real(ap, mu_max)
        sums[entry] += 1
        return sums

    monkeypatch.setattr(report, "gap_power_sums", off_by_one)
    code, out, err = run(capsys, ["invariants", "--gens", "3,5", "-p", "1"])
    assert (code, out) == (1, "")
    assert err.startswith(f"internal error: {what}: ")
    assert err.endswith("for gens=(3, 5) p=1\n")


# A classification flag turned, where the PF set contradicts it: at p = 0
# both ways; at p >= 1 a claimed class whose forward direction PF breaks.
@pytest.mark.parametrize(
    "gens, p, flag",
    [
        ("3,5", "0", "symmetric"),
        ("5,6,13", "0", "pseudo_symmetric"),
        ("5,7,9", "1", "symmetric"),
        ("5,7,9", "1", "pseudo_symmetric"),
    ],
)
def test_verify_checks_the_symmetry_flags_against_the_pf_set(capsys, monkeypatch, gens, p, flag):
    from psemigroups import report

    real = report.classify

    def turned(semigroup):
        flags = real(semigroup)
        flags[flag] = not flags[flag]
        return flags

    monkeypatch.setattr(report, "classify", turned)
    base = ["invariants", "--gens", gens, "-p", p]
    assert run(capsys, base)[0] == 0
    code, out, err = run(capsys, [*base, "--verify"])
    assert (code, out) == (1, "")
    assert "symmetry flags against the PF set" in err
    assert err.endswith(f"for gens=({gens.replace(',', ', ')}) p={p}\n")


def test_verify_power_sums_stream_over_the_table(peak_rss_kib):
    """A two-generator ``--verify`` process grows by under 64 bytes per frontier entry.

    Its peak was 127 MB against 17 MB for ``--gens 3,5``, at a frontier of
    3,022,115 (2-vCPU Xeon VM, CPython 3.11.7).  Brute-force power sums
    over a list of all 2,521,714 gaps, one running product list per
    exponent, peaked at 430 MB, about 143 bytes per entry.
    """
    from psemigroups.core import validate_generators
    from psemigroups.enumeration import build_psemigroup

    frontier = build_psemigroup(validate_generators([101, 10007]), 2).frontier
    job = ["invariants", "--gens", "101,10007", "-p", "2", "--json", "--verify"]
    grown = peak_rss_kib(job) - peak_rss_kib(["invariants", "--gens", "3,5", "--json"])
    assert grown * 1024 < 64 * frontier


@pytest.mark.parametrize("mu_max", [0, 4])
def test_streamed_power_sums_match_the_gap_powers_across_chunks(mu_max):
    """Over three chunks of the stream, gaps in each, for no exponent and for 1..4."""
    from psemigroups.report import _CHUNK, _streamed_power_sums

    table = bytes(n % 7 != 0 and n % 11 != 3 for n in range(2 * _CHUNK + 100))
    gaps = [n for n, member in enumerate(table) if not member]
    exponents = range(1, mu_max + 1)
    expected = {mu: sum(x**mu for x in gaps) for mu in exponents}
    assert _streamed_power_sums(table, exponents) == expected


# Jobs whose build and default report fit under the cap, but one --verify
# oracle's work estimate does not: the definitional pseudo-Frobenius oracle
# costs 1009 candidates times 1009 shifts = 1,018,081 on the first, and 39
# candidates times 36 shifts on the second.
@pytest.mark.parametrize(
    "gens, p, cap, oracle",
    [
        ("1009,1201,1499", "50", 10**6, "the definitional pseudo-Frobenius oracle"),
        ("40,41,42,43,44,45", "0", 1000, "the definitional pseudo-Frobenius oracle"),
    ],
)
def test_verify_oracles_are_bounded_by_the_table_cap(capsys, monkeypatch, gens, p, cap, oracle):
    monkeypatch.setenv("PSG_MAX_TABLE", str(cap))
    job = ["invariants", "--gens", gens, "-p", p]
    assert run(capsys, job)[0] == 0
    start = time.perf_counter()
    code, out, err = run(capsys, [*job, "--verify"])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert oracle in err and "PSG_MAX_TABLE" in err


def test_verify_refuses_a_capped_job_before_the_unchecked_oracles(capsys, monkeypatch):
    """A job that a pseudo-Frobenius oracle refuses never enters the default
    path's sumset, the generator oracle or the power-sum stream, which check
    no work estimate of their own."""
    from psemigroups import report

    calls = []
    for name in ("embedding_dimension", "_generator_count", "_streamed_power_sums"):
        real = getattr(report, name)
        spy = lambda *args, real=real, name=name: calls.append(name) or real(*args)
        monkeypatch.setattr(report, name, spy)
    job = ["invariants", "--gens", "40,41,42,43,44,45", "-p", "0", "--verify"]
    assert run(capsys, job)[0] == 0
    assert calls == ["embedding_dimension", "_generator_count", "_streamed_power_sums"]
    calls.clear()
    monkeypatch.setenv("PSG_MAX_TABLE", "1000")
    code, out, err = run(capsys, job)
    assert (code, out, calls) == (2, "", [])
    assert "the definitional pseudo-Frobenius oracle" in err


@pytest.mark.parametrize("gens, p", [("3,5", "1"), ("5,7,9", "0"), ("6,17,28", "5")])
def test_verify_scans_the_pf_candidates_once_per_job(capsys, monkeypatch, gens, p):
    """Both gap pseudo-Frobenius oracles test the one candidate list of a job."""
    from psemigroups import report, symmetry

    calls = []
    real = symmetry._pf_candidates
    spy = lambda semigroup: calls.append(semigroup) or real(semigroup)
    monkeypatch.setattr(symmetry, "_pf_candidates", spy)
    monkeypatch.setattr(report, "_pf_candidates", spy)
    assert run(capsys, ["invariants", "--gens", gens, "-p", p, "--verify"])[0] == 0
    assert len(calls) == 1


def test_decompose_is_refused_before_its_walk_by_the_component_bound(capsys, monkeypatch):
    """(47, 57) at p = 24: multiplicity 64,296 and Frobenius number 66,871
    bound the walk's bytes by 64,295 * 66,872, about 4.3e9 entries, so it
    exits 2 up front, on argv and in batch.  Without the bound it ran out of
    memory after minutes."""
    monkeypatch.delenv("PSG_MAX_TABLE", raising=False)
    start = time.perf_counter()
    code, out, err = run(capsys, ["decompose", "--gens", "47,57", "-p", "24"])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert "the irreducible decomposition" in err and "PSG_MAX_TABLE" in err
    job = {"command": "decompose", "gens": [47, 57], "p": 24}
    code, lines = _batch(monkeypatch, capsys, [json.dumps(job)])
    assert (code, [line["exit"] for line in lines]) == (2, [2])
    assert "the irreducible decomposition" in lines[0]["error"]


def test_component_span_check_reads_a_gap_at_its_limit():
    """<3, 5> agrees with <3, 5, 7> below 7, the last integer the check reads."""
    from psemigroups.report import _spans
    from psemigroups.decompose import FiniteSemigroup

    component = FiniteSemigroup.from_generators([3, 5, 7])
    assert _spans([3, 5, 7], component)
    assert not _spans([3, 5], component)


@pytest.mark.parametrize("listed", [[3, 6], [0, 3, 5], [4]], ids=["gcd-3", "zero", "one"])
def test_component_span_check_fails_a_list_that_does_not_validate(capsys, monkeypatch, listed):
    """The check answers False, and ``decompose --verify`` exits 1 naming the list."""
    from psemigroups import cli
    from psemigroups.decompose import FiniteSemigroup
    from psemigroups.report import _spans

    assert not _spans(listed, FiniteSemigroup.from_generators([3, 5, 7]))
    monkeypatch.setattr(cli, "minimal_generators_lower_half", lambda component: listed)
    code, out, err = run(capsys, ["decompose", "--gens", "3,5", "-p", "1", "--verify"])
    assert (code, out) == (1, "")
    assert f"generators {listed} do not span" in err and "Traceback" not in err


def test_invariants_verify_runs_the_sumset_once_per_job(capsys, monkeypatch):
    """The embedding dimension is the one sumset run; --verify checks its count
    against the generator oracle and runs no second sumset."""
    from psemigroups import enumeration

    calls = []
    real = enumeration._generator_word
    monkeypatch.setattr(
        enumeration, "_generator_word", lambda semigroup: calls.append(1) or real(semigroup)
    )
    jobs = [("6,17,28", "5"), ("503,607,701", "0"), ("3,5", "1"), ("4,6,9", "2")]
    for gens, p in jobs:
        assert run(capsys, ["invariants", "--gens", gens, "-p", p, "--verify"])[0] == 0
    assert len(calls) == len(jobs)


# Input errors of the command line that no other test reaches, each with the
# batch line that gives the same job, where one can: a batch job's p is one
# integer, so it cannot give a range.
@pytest.mark.parametrize(
    "argv, cap, words, job, batch_words",
    [
        (
            ["invariants", "--gens", "3,5", "-p", "0..2"],
            None,
            "this command expects a single p, not a range",
            None,
            None,
        ),
        (
            ["invariants", "--gens", "3,x"],
            None,
            "--gens expects comma-separated integers, got '3,x'",
            {"gens": [3, "x"]},
            "generator 'x' is not an integer",
        ),
        (
            ["denumerant", "--gens", "3,5", "-n", "-4"],
            None,
            "n must be non-negative",
            {"command": "denumerant", "gens": [3, 5], "n": -4},
            "n must be non-negative",
        ),
        (
            ["invariants", "--gens", "3,5"],
            "0",
            "PSG_MAX_TABLE must be positive",
            {"gens": [3, 5]},
            "PSG_MAX_TABLE must be positive",
        ),
    ],
    ids=["p-range", "gens-not-integer", "negative-n", "cap-zero"],
)
def test_input_errors_exit_2_with_their_message(
    capsys, monkeypatch, argv, cap, words, job, batch_words
):
    if cap is not None:
        monkeypatch.setenv("PSG_MAX_TABLE", cap)
    assert run(capsys, argv) == (2, "", f"error: {words}\n")
    if job is not None:
        line = {"error": batch_words, "exit": 2, "line": 1}
        assert _batch(monkeypatch, capsys, [json.dumps(job)]) == (2, [line])


# argv's -p text and a batch job's integer p go through one reader: each -p
# with its exact message, and the batch line with the same p, where one can
# give it, answering with the same bytes.
@pytest.mark.parametrize(
    "command, text, job_p, words",
    [
        ("invariants", "-1", -1, "bad p range '-1'"),
        ("sweep", "-1", -1, "bad p range '-1'"),
        ("sweep", "3..1", None, "bad p range '3..1'"),
        ("invariants", "x", None, "-p expects N or A..B, got 'x'"),
        ("sweep", "0..", None, "-p expects N or A..B, got '0..'"),
        ("sweep", "2", 2, None),
    ],
)
def test_argv_and_batch_read_p_alike(capsys, tmp_path, command, text, job_p, words):
    code, out, err = run(capsys, [command, "--gens", "3,7", "-p", text, "--json"])
    if words is None:
        assert (code, err) == (0, "") and out.count("\n") == 1
    else:
        assert (code, out, err) == (2, "", f"error: {words}\n")
        out = canonical_json({"error": words, "exit": 2, "line": 1}) + "\n"
    if job_p is not None:
        jobs = tmp_path / "jobs"
        jobs.write_text(json.dumps({"command": command, "gens": [3, 7], "p": job_p}) + "\n")
        assert run(capsys, ["batch", str(jobs)]) == (code, out, "")


def _taken(command):
    return set(inspect.signature(COMMANDS[command][0]).parameters) - {"gens"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_argv_and_batch_take_the_same_fields(command):
    """A command's flag table has a flag for each field its signature names, batch a key."""
    from psemigroups.cli import _parse_job

    options = {key for key, _ in _argv_table(command)[0].values()}
    assert options - {"gens", "format", "quiet"} == _taken(command)
    in_batch = set()
    needed = {"n": 1} if "n" in _taken(command) else {}
    for key in ("p", "n", "mu", "trunc", "verify", "verfy"):
        job = {"command": command, "gens": [3, 5], **needed, key: True if key == "verify" else 1}
        try:
            _parse_job(json.dumps(job))
        except ValidationError:
            continue
        in_batch.add(key)
    assert in_batch == _taken(command)


# The argparse keywords of each field, as the parser before the flag table took them.
_ARGPARSE = {
    "n": {"type": int},
    "mu": {"type": int},
    "trunc": {"type": int},
    "verify": {"action": "store_true"},
}


@functools.cache
def _argparse_parser(command: str) -> argparse.ArgumentParser:
    """The argparse parser that read argv before the flag table, kept as its oracle.

    An option left out is left out of the namespace, so the command's own
    default applies; a parameter without a default is a required option.
    """
    from psemigroups.cli import _FIELDS

    function, renderers = COMMANDS[command]
    parser = argparse.ArgumentParser(
        prog=f"psg {command}", description=function.__doc__, argument_default=argparse.SUPPRESS
    )
    parser.add_argument("--gens", required=True)
    takes, needs = _job_fields(command)
    for key, (_, flags, _) in _FIELDS.items():
        if key in takes:
            parser.add_argument(*flags, required=key in needs, **_ARGPARSE.get(key, {}))
    formats = parser.add_mutually_exclusive_group()
    for key in renderers:
        formats.add_argument(f"--{key}", dest="format", action="store_const", const=key)
    parser.add_argument("--quiet", action="store_true")
    parser.set_defaults(format=next(iter(renderers)))
    return parser


_VALUES = {
    "gens": ["3,5", "6,17,28", "3,x"],
    "p": ["2", "0..3", "-1", "x"],
    "n": ["7", "-4", "x"],
    "mu": ["5", "x"],
    "trunc": ["9", "x"],
}


def _spellings(flag: str, value: str) -> list[list[str]]:
    """``--name value``, ``--name=value`` and, for a short flag, ``-p5``."""
    return [[flag, value], [f"{flag}={value}"]] + ([[flag + value]] if len(flag) == 2 else [])


def _spelled_argvs(command: str) -> list[list[str]]:
    """One valid argv of ``command`` per flag and spelling, its words shuffled."""
    rng = random.Random(f"spelled {command}")
    table = _argv_table(command)[0]
    needed = [["--gens", "3,5"], *([["-n", "7"]] if "-n" in table else [])]
    grid = []
    for flag, (key, _) in table.items():
        for spelling in _spellings(flag, _VALUES[key][0]) if key in _VALUES else [[flag]]:
            groups = [*needed, spelling]
            rng.shuffle(groups)
            grid.append([word for group in groups for word in group])
    return grid


def _argv_grid(command: str) -> list[list[str]]:
    """Shuffled argvs of ``command``, with every fault the flag table must refuse.

    Each flag of the command is present or not at random, in a random
    spelling and with a valid or non-integer value, so options repeat,
    formats clash and required ones go missing; some argvs add an unknown
    word, a switch given a value, or a value flag with no value after it.
    """
    rng = random.Random(f"argv grid {command}")
    table = _argv_table(command)[0]
    valued = [flag for flag, (key, how) in table.items() if how in (int, str)]
    grid = []
    for _ in range(300):
        groups = []
        for flag, (key, _) in table.items():
            if rng.random() < (0.85 if key in ("gens", "n") else 0.3):
                if key in _VALUES:
                    groups.append(rng.choice(_spellings(flag, rng.choice(_VALUES[key]))))
                else:
                    groups.append([flag])
        fault = rng.randrange(8)
        if fault == 0:
            groups.append([rng.choice(["--bogus", "-x", "extra", "--verify=x", "--quiet=1"])])
        elif fault == 1:
            groups.append([rng.choice(valued), rng.choice(["--quiet", "--verify", "-h"])])
        rng.shuffle(groups)
        argv = [word for group in groups for word in group]
        grid.append(argv + [rng.choice(valued)] if fault == 2 else argv)
    return grid


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_flag_table_reads_argv_as_the_argparse_oracle_did(capsys, command):
    """Both parsers give the same format, --gens text, quiet flag and fields, or both exit 2.

    Unique-prefix abbreviations, which argparse took and the flag table
    refuses, stay out of the grid.  Every flag of the command is read in
    each of its spellings by an argv that both accept.
    """
    default = next(iter(COMMANDS[command][1]))
    spelled = _spelled_argvs(command)
    for argv in spelled + _argv_grid(command):
        try:
            oracle = vars(_argparse_parser(command).parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2
            oracle = 2
        try:
            fields = _parse_argv(command, argv)
        except ValidationError:
            fields = 2
        else:
            fields.setdefault("format", default)
        assert fields == oracle, argv
        assert oracle != 2 or argv not in spelled, argv
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_help_lists_every_option(capsys, command):
    code, out, err = run(capsys, [command, "-h"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: psg {command} ")
    assert COMMANDS[command][0].__doc__.splitlines()[0] + "\n" in out
    assert set(_argv_table(command)[0]) <= set(out.replace(",", " ").split())


@pytest.mark.parametrize(
    "job",
    [{"command": "membership", "gens": [3, 5], "p": 1}, {"command": "denumerant", "gens": [3, 5]}],
    ids=["membership", "denumerant"],
)
def test_a_job_without_n_exits_2_on_argv_and_in_batch(capsys, monkeypatch, job):
    """n has no default: argv requires -n, and a batch line without it gets an exit-2 line."""
    argv = [job["command"], "--gens", "3,5", *(["-p", "1"] if "p" in job else [])]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "required: -n" in err and "Traceback" not in err
    line = {"error": f"batch command {job['command']!r} needs ['n']", "exit": 2, "line": 1}
    assert _batch(monkeypatch, capsys, [json.dumps(job)]) == (2, [line])


@pytest.mark.parametrize(
    "command, key", [(command, key) for command in sorted(COMMANDS) for key in _taken(command)]
)
def test_a_mistyped_field_exits_2_on_argv_and_in_batch(capsys, monkeypatch, command, key):
    n = ["-n", "7"] if "n" in _taken(command) and key != "n" else []
    option = {"p": "-p", "n": "-n"}.get(key, f"--{key}")
    bad = [f"{option}=x"] if key == "verify" else [option, "x"]
    code, out, err = run(capsys, [command, "--gens", "3,5", *n, *bad])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    job = {"command": command, "gens": [3, 5], key: "x"}
    assert _batch(monkeypatch, capsys, [json.dumps(job)])[0] == 2


def test_usage_lists_every_command_and_bad_invocations_exit_2(capsys):
    code, out, _ = run(capsys, ["-h"])
    assert code == 0
    for command in [*COMMANDS, "batch"]:
        assert f"\n  {command} " in out
    for argv in [[], ["nosuch"], ["batch"], ["batch", "a", "b"]]:
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "usage: psg" in err and "Traceback" not in err


def test_batch_file_with_bytes_that_are_not_utf8(capsys, tmp_path):
    good = json.dumps({"command": "denumerant", "gens": [2, 5, 7], "n": 43}).encode()
    path = tmp_path / "jobs.jsonl"
    path.write_bytes(good + b"\n\xff\xfe\n" + good + b"\n")
    code, out, err = run(capsys, ["batch", str(path)])
    assert code == 2
    assert "Traceback" not in err
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 3
    assert {key: rows[1][key] for key in ("exit", "line")} == {"exit": 2, "line": 2}
    assert rows[0] == rows[2] == {"gens": [2, 5, 7], "n": 43, "denumerant": "17"}


def test_batch_stdin_with_bytes_that_are_not_utf8_under_a_strict_locale():
    good = json.dumps({"command": "denumerant", "gens": [2, 5, 7], "n": 43}).encode()
    src = str(Path(psemigroups.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "psemigroups.cli", "batch", "-"],
        input=good + b"\n\xff\xfe\n" + good + b"\n",
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8:strict"},
        check=False,
    )
    assert done.returncode == 2
    assert b"Traceback" not in done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(rows) == 3
    assert {key: rows[1][key] for key in ("exit", "line")} == {"exit": 2, "line": 2}
    assert rows[0] == rows[2] == {"gens": [2, 5, 7], "n": 43, "denumerant": "17"}


def test_decompose_exits_1_when_a_component_loses_a_member(capsys, monkeypatch):
    import psemigroups.decompose as decompose

    real = decompose._completion

    def lossy(members, mirrored, length, gap):
        # drop the input's multiplicity, which every true component keeps
        word, component = real(members, mirrored, length, gap)
        positive = members & ~1
        return word & ~(positive & -positive), component

    monkeypatch.setattr(decompose, "_completion", lossy)
    code, out, err = run(capsys, ["decompose", "--gens", "3,5", "-p", "1"])
    assert (code, out) == (1, "")
    assert "do not intersect to the input" in err


def test_decompose_exits_1_when_a_completion_does_not_pair(capsys, monkeypatch):
    import psemigroups.decompose as decompose

    monkeypatch.setattr(decompose, "_pairs_exactly_one", lambda membership, total: False)
    code, out, err = run(capsys, ["decompose", "--gens", "3,5", "-p", "1"])
    assert (code, out) == (1, "")
    assert "not an irreducible oversemigroup" in err


def test_plain_decompose_runs_no_generator_scan(capsys, monkeypatch):
    """The lower-half sumset lists the components' generators; the generator
    oracle of ``invariants --verify`` does not run, and --verify checks each
    listed component by its span."""
    from psemigroups import enumeration, report

    calls = []
    oracle = enumeration._generator_count
    oracle_spy = lambda semigroup: calls.append("oracle") or oracle(semigroup)
    # every module that binds the oracle, so a new import of it is caught too
    for name, module in list(sys.modules.items()):
        if name.startswith("psemigroups") and getattr(module, "_generator_count", 0) is oracle:
            monkeypatch.setattr(module, "_generator_count", oracle_spy)
    spans = report._spans
    span_spy = lambda generators, component: calls.append("span") or spans(generators, component)
    monkeypatch.setattr(report, "_spans", span_spy)
    job = ["decompose", "--gens", "5,9,16", "-p", "2", "--json"]
    code, out, _ = run(capsys, job)
    assert (code, calls) == (0, [])
    code, verified, _ = run(capsys, [*job, "--verify"])
    assert (code, verified) == (0, out)
    assert calls == ["span"] * json.loads(out)["count"]


def test_decompose_37_53_71_p20_output_is_pinned(capsys):
    """All 1,124 components of the Frobenius-2367 semigroup, byte for byte;
    --verify checks every one and prints the same bytes."""
    job = ["decompose", "--gens", "37,53,71", "-p", "20", "--json"]
    for argv in (job, [*job, "--verify"]):
        code, out, err = run(capsys, argv)
        assert (code, err, len(out.encode())) == (0, "", 4_813_519)
        assert hashlib.sha256(out.encode()).hexdigest().startswith("c52e18afda27b5c0")


# 1,200 generators pass the recursive oracle's loop bound at n <= 1000, as
# each a > n adds a factor n // a + 1 = 1; each once cost it a recursion level
_WIDE = list(range(1000, 2200))


@pytest.mark.parametrize(
    "argv, count",
    [
        (["denumerant", "-n", "5"], 0),
        (["denumerant", "-n", "0"], 1),
        (["membership", "-p", "0", "-n", "1000"], 1),
    ],
    ids=["denumerant-5", "denumerant-0", "membership-1000"],
)
def test_denumerant_oracle_recurses_only_over_generators_up_to_n(capsys, argv, count):
    command, *extra = argv
    wide = ",".join(map(str, _WIDE))
    code, out, err = run(capsys, [command, "--gens", wide, *extra, "--json", "--verify"])
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out)["denumerant"] == str(count)


def test_a_wide_denumerant_oracle_job_does_not_end_the_batch(capsys, monkeypatch):
    good = json.dumps({"command": "denumerant", "gens": [2, 5, 7], "n": 43})
    wide = json.dumps({"command": "membership", "gens": _WIDE, "n": 5, "verify": True})
    code, out = _batch(monkeypatch, capsys, [good, wide, good])
    assert code == 0
    assert out[0] == out[2] == {"gens": [2, 5, 7], "n": 43, "denumerant": "17"}
    assert out[1]["denumerant"] == "0"


# The child caps its own address space before it imports the package, so a
# job that allocated past the table cap would end in a MemoryError, which
# the contract forbids as much as a traceback.
_CAPPED_BATCH = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from psemigroups.cli import main
sys.exit(main(["batch", "-"]))
"""


def _fuzz_value(rng, small):
    """A batch field value: mostly in range, else huge, negative or of a wrong JSON type."""
    roll = rng.random()
    if roll < 0.75:
        return small()
    if roll < 0.87:
        return rng.choice([10**rng.randint(6, 40), -(10**rng.randint(0, 40)), 0, -1])
    return rng.choice([None, True, False, 1.5, "7", "0..2", [], [3], {"x": 1}])


_FUZZ_FIELDS = {
    "p": lambda rng: rng.randint(-2, rng.choice([12, 12, 12, 150])),
    "n": lambda rng: rng.randint(-5, rng.choice([500, 50000])),
    "mu": lambda rng: rng.choice([-1, 0, 1, 3, 100, 101]),
    "trunc": lambda rng: rng.randint(-1, 300),
    "verify": lambda rng: rng.random() < 0.5,
}


def _fuzz_line(rng) -> bytes:
    """One seeded random batch line: a job of any command, JSON of no job, or raw bytes.

    A job mostly gives the fields its command takes, and now and then one
    it does not.
    """
    roll = rng.random()
    if roll < 0.08:
        # printable ASCII and lone UTF-8 continuation bytes: never a line break
        alphabet = [*range(0x20, 0x7F), *range(0x80, 0xC0)]
        return bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
    if roll < 0.12:
        return json.dumps(rng.choice([[], 3, "x", None, [{"gens": [3, 5]}]])).encode()
    command = rng.choice([*COMMANDS] * 9 + ["batch", "nope", 3, None])
    takes = _job_fields(command)[0] if command in COMMANDS else ()
    job = {"gens": _fuzz_value(rng, lambda: rng.sample(range(1, 41), rng.randint(2, 4)))}
    if command != "invariants" or rng.random() < 0.5:  # invariants is the default
        job["command"] = command
    for key, value in _FUZZ_FIELDS.items():
        if rng.random() < (0.8 if key in takes else 0.03):
            job[key] = _fuzz_value(rng, lambda: value(rng))
    return json.dumps(job).encode()


@pytest.mark.skipif(sys.platform != "linux", reason="sets RLIMIT_AS with resource")
def test_seeded_batch_fuzz_keeps_the_exit_code_contract_in_a_capped_process():
    """300 random lines under a 200,000-entry cap and a 1 GB address space.

    Every command, wrong JSON types, huge and negative values, bytes that
    are not UTF-8 and blank lines: one output line per non-blank line, the
    exit code of the worst line, 0, 1 or 2, and no traceback.
    """
    rng = random.Random(2024)
    lines = [_fuzz_line(rng) if rng.random() < 0.95 else b"  " for _ in range(300)]
    src = str(Path(psemigroups.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _CAPPED_BATCH],
        input=b"\n".join(lines) + b"\n",
        capture_output=True,
        env={**os.environ, "PYTHONPATH": src, "PSG_MAX_TABLE": "200000"},
        timeout=60,
        check=False,
    )
    assert b"Traceback" not in done.stderr and b"MemoryError" not in done.stderr
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    numbers = [number for number, line in enumerate(lines, 1) if line.strip()]
    assert len(rows) == len(numbers)
    exits = [row["exit"] for row in rows if "error" in row]
    assert all(row["line"] == number for number, row in zip(numbers, rows) if "error" in row)
    assert done.returncode == min(exits, default=0) and done.returncode in (0, 1, 2)
    # the seed reaches answers as well as rejections
    assert 2 in exits and len(exits) < len(rows)
