"""Output checks.  Every check runs outside the timed region.

* ``report`` and ``verify``: the canonical-JSON answer must equal a
  reference.  Pool jobs have pinned references in ``references/``, recorded
  by ``record_references.py`` with ``--verify`` on, so every closed form and
  oracle agreed when they were written.  A job without a pinned reference is
  run again with ``--verify`` and compared with that.
* ``decompose``: validity, not equality, since a faster decomposition may
  return other components.  Each component is rebuilt from its printed
  generators; ``verify_decomposition`` must accept them and their
  intersection must equal the input semigroup.
* ``batch``: one output line per input line, exit-2 error lines exactly at
  the planted rejections, and every other line equal to the same job run
  with ``"verify": true``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def load_references(workload: str) -> dict[str, str]:
    path = REFERENCES / f"{workload}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def with_verify(argv) -> list[str]:
    argv = list(argv)
    return argv if "--verify" in argv else [*argv, "--verify"]


def _option(argv, flag: str) -> str:
    return argv[list(argv).index(flag) + 1]


def check_decomposition(argv, text: str) -> str | None:
    """None when ``text`` is a valid decomposition for the job, else why not."""
    # verify_decomposition is missing from psemigroups.__all__, so it is
    # imported from its module.
    from psemigroups.core import validate_generators
    from psemigroups.decompose import FiniteSemigroup, intersect, verify_decomposition
    from psemigroups.enumeration import build_psemigroup

    gens = [int(g) for g in _option(argv, "--gens").split(",")]
    p = int(_option(argv, "-p"))
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return "output is not one JSON object"
    if data.get("gens") != gens or data.get("p") != p:
        return "echoed gens or p differ from the job"
    base = FiniteSemigroup.from_psemigroup(build_psemigroup(validate_generators(gens), p))
    components = []
    for entry in data["components"]:
        component = FiniteSemigroup.from_generators(entry["generators"])
        if (component.frobenius, component.genus) != (entry["frobenius"], entry["genus"]):
            return f"component <{entry['generators']}> has other frobenius or genus than printed"
        components.append(component)
    if data["count"] != len(components):
        return "count differs from the number of components"
    if not verify_decomposition(base, components):
        return "components are not a valid irreducible decomposition"
    if intersect(components) != base:
        return "intersection of the components differs from the input"
    return None


def batch_failures(
    output: str, jobs: int, planted: set[int], reference: list[str] | None = None
) -> list[str]:
    """Why each bad line of a `psg batch` output is bad; empty when all are good."""
    lines = output.splitlines()
    failures = []
    if len(lines) != jobs:
        failures.append(f"{len(lines)} output lines for {jobs} jobs")
    for i, line in enumerate(lines[:jobs]):
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            failures.append(f"line {i + 1} is not JSON")
            continue
        rejected = isinstance(data, dict) and data.get("exit") == 2 and "error" in data
        if i in planted:
            if not rejected:
                failures.append(f"line {i + 1} should be an exit-2 rejection")
        elif isinstance(data, dict) and "error" in data:
            failures.append(f"line {i + 1} is an error: {data['error']}")
        elif reference is not None and line != reference[i]:
            failures.append(f"line {i + 1} differs from its --verify reference")
    return failures
