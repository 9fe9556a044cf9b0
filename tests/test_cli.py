import json
import time

from psemigroups.cli import canonical_json, main


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


def test_hilbert_default_truncation(capsys):
    code, out, _ = run(capsys, ["hilbert", "--gens", "4,5,6", "-p", "8", "--json", "--verify"])
    assert code == 0
    data = json.loads(out)
    assert data["truncation"] == 4 * (39 + 1)
    coeffs = data["hilbert"]
    assert [n for n, c in enumerate(coeffs[:42]) if c] == [36, 38, 40, 41]
    assert all(a + b == 1 for a, b in zip(coeffs, data["gaps_series"]))


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

    monkeypatch.setattr("sys.stdin", _io.StringIO(jobs))
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
    monkeypatch.setattr("sys.stdin", _io.StringIO("\n".join(lines)))
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
    for argv in [
        ["denumerant", "--gens", "2,3", "-n", "5000000"],
        ["membership", "--gens", "2,3", "-n", "5000000", "-p", "1"],
        ["hilbert", "--gens", "3,5", "--trunc", "3000000"],
    ]:
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "PSG_MAX_TABLE" in err
    code, out, _ = run(capsys, ["hilbert", "--gens", "3,5", "--trunc", "999", "--json"])
    assert code == 0
    assert json.loads(out)["truncation"] == 999
