"""Record the pinned references of the pooled workloads.

Runs every pool job of ``report``, ``verify`` and ``decompose`` with
``--verify`` on and stores the digest of its canonical-JSON answer in
``references/<name>.json``.  A ``decompose`` answer must also pass
``checker.check_decomposition``; its digest then only saves the checker from
validating the same answer again.  Run it from the repository root after
changing a generator or the pool:

    python3 bench/record_references.py [report] [verify] [decompose]

It stops at the first job that fails, so a reference is only ever written
from answers that every closed form and oracle agreed on.
"""

from __future__ import annotations

import json
import sys

import checker
import workloads
from worker import SRC, call

PINNED = ("report", "verify", "decompose")


def record(name: str) -> None:
    references = {}
    for job in workloads.pool(name):
        code, _, _, out = call(checker.with_verify(job.argv))
        text = out.getvalue()
        if code != 0:
            raise SystemExit(f"{job.key}: exit {code}")
        problem = checker.check_decomposition(job.argv, text) if name == "decompose" else None
        if problem is not None:
            raise SystemExit(f"{job.key}: {problem}")
        references[job.key] = checker.digest(text)
    checker.REFERENCES.mkdir(exist_ok=True)
    path = checker.REFERENCES / f"{name}.json"
    path.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{path}: {len(references)} references")


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    for name in sys.argv[1:] or PINNED:
        record(name)
