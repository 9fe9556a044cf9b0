"""Byte-identity of ``psg``'s answers between two checkouts.

    python3 tools/same_output.py PARENT_DIR CHANGE_DIR

The jobs are argvs of ``psg``: every job of the ``report``, ``verify`` and
``decompose`` pools of ``bench/workloads.py``; each ``invariants``,
``hilbert`` and ``membership`` job of those pools that lacks ``--verify``,
again with it; ``batch`` over the seed-1 batch file and over a file of bad
batch lines, both written to a temporary directory; and a fixed list of
argv error rows.  The job list is built once, from this script's own
checkout, so both sides run the same argvs.

Each checkout gets one child process with that checkout's ``src`` first on
``PYTHONPATH``.  The child calls ``psemigroups.cli.main`` in-process on each
job and prints the SHA-256 of (argv, exit code, stdout, stderr); an
exception that escapes ``main`` stands in for the exit code by its type
name.  The script prints the job count and the number of jobs whose digests
differ and, if any do, the first such argv, and then exits 1.  It edits no
file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFIED = ("invariants", "hilbert", "membership")  # pool commands run again with --verify

# The first line out is the file the child imported the CLI from, so the
# parent can check that the child runs the checkout it was given.
CHILD = """
import contextlib, hashlib, io, json, sys
from psemigroups import cli
print(cli.__file__)
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = type(exc).__name__
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    print(hashlib.sha256(record.encode("utf-8", "surrogateescape")).hexdigest())
"""

# Argv errors, one row per message of the flag table, the p reader, the
# generator reader and the usage paths.
ARGV_ERRORS = [
    [],
    ["-h"],
    ["factor", "--gens", "3,5"],
    ["batch"],
    *([command, "-h"] for command in
      ("invariants", "sweep", "hilbert", "membership", "denumerant", "decompose")),
    ["invariants", "--gens", "3,5", "-p", "-1"],
    ["invariants", "--gens", "3,5", "-p", "x"],
    ["invariants", "--gens", "3,5", "-p", "0..2"],
    ["sweep", "--gens", "3,7", "-p", "3..1"],
    ["sweep", "--gens", "3,7", "-p", "0.."],
    ["sweep", "--gens", "3,7", "-p", "0..20000"],
    ["invariants", "--gens", "4,6"],
    ["invariants", "--gens", "3,x"],
    ["invariants", "--gens", "3,5", "--mu", "400"],
    ["invariants", "--gens", "3,5", "--mu", "x"],
    ["invariants", "--gens", "3,5", "--gen", "3,5"],
    ["invariants", "--gens", "3,5", "--verify=x"],
    ["invariants", "--gens", "3,5", "--json", "--text"],
    ["invariants", "--gens", "3,5", "-p"],
    ["invariants", "-p", "1"],
    ["membership", "--gens", "3,5", "-p", "1"],
    ["membership", "--gens", "3,5", "-n", "x"],
    ["denumerant", "--gens", "3,5", "-n", "-4"],
    ["denumerant", "--gens", "3,5", "-n", "7", "-p", "1"],
    ["hilbert", "--gens", "3,5", "--trunc", "--quiet"],
]

# Bad batch lines, one per message of the job reader and the type check.
BATCH_ERRORS = [
    "{not json",
    "[1, 2]",
    '{"command": "factor", "gens": [3, 5]}',
    '{"command": 7, "gens": [3, 5]}',
    '{"gens": "3,5"}',
    '{"gens": [3, "x"]}',
    '{"gens": [4, 6], "p": 1}',
    '{"gens": [3, 5], "p": -1}',
    '{"gens": [3, 5], "p": "0..2"}',
    '{"gens": [3, 5], "p": true}',
    '{"gens": [3, 5], "mu": "y", "p": "x"}',
    '{"gens": [3, 5], "verify": 1}',
    '{"gens": [3, 5], "n": 7}',
    '{"command": "sweep", "gens": [3, 7], "p": "3..1"}',
    '{"command": "sweep", "gens": [3, 7], "p": 2}',
    '{"command": "membership", "gens": [3, 5], "nn": 1, "n": "8"}',
    '{"command": "membership", "gens": [3, 5], "p": 1}',
    '{"command": "denumerant", "gens": [3, 5], "n": 7, "p": 0}',
    '{"command": "hilbert", "gens": [3, 5], "trunc": null}',
]


def job_list(tmp: Path) -> list[list[str]]:
    """Every argv the comparison runs; its batch files are written under ``tmp``."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    jobs = []
    for workload in ("report", "verify", "decompose"):
        for job in workloads.pool(workload):
            jobs.append(list(job.argv))
            if job.argv[0] in VERIFIED and "--verify" not in job.argv:
                jobs.append([*job.argv, "--verify"])
    seeded, errors = tmp / "batch-seed-1.jsonl", tmp / "batch-errors.jsonl"
    seeded.write_text("\n".join(workloads.batch_file(1)[0]) + "\n")
    errors.write_text("\n".join(BATCH_ERRORS) + "\n")
    return [*jobs, ["batch", str(seeded)], ["batch", str(errors)], *ARGV_ERRORS,
            ["batch", str(tmp / "missing.jsonl")]]


def digests(checkout: Path, jobs: list[list[str]]) -> list[str]:
    """One digest per job, from one child process that runs ``checkout``'s CLI."""
    src = checkout.resolve() / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD], input=json.dumps(jobs), cwd=checkout,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode or not lines or not Path(lines[0]).resolve().is_relative_to(src):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"the child in {checkout} did not run its own CLI to the end")
    return lines[1:]


def differing(parent: list[str], change: list[str]) -> list[int]:
    """The indices of the jobs whose digests differ; a missing digest differs."""
    return [
        i for i in range(max(len(parent), len(change)))
        if i >= len(parent) or i >= len(change) or parent[i] != change[i]
    ]


def main(argv=None) -> int:
    checkouts = [Path(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    if len(checkouts) != 2 or not all(path.is_dir() for path in checkouts):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = checkouts
    with tempfile.TemporaryDirectory(prefix="same-output-") as tmp:
        jobs = job_list(Path(tmp))
        found = differing(digests(parent, jobs), digests(change, jobs))
    print(f"jobs {len(jobs)}  differences {len(found)}")
    if found:
        print(f"first difference: {' '.join(jobs[found[0]])}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
