"""Paired A/B of the benchmark between two checkouts, with a verdict per metric.

    python3 tools/ab.py PARENT_DIR CHANGE_DIR --workload report --pairs 10 [--seed 1]

Pair i runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout directory, both at seed S = seed + i, and
the side that runs first alternates from pair to pair.  T and the
end-to-end metrics, with the direction that counts as better and the
bound each may worsen by, come from the change's ``BENCHMARK.json``.  Each
run's last stdout line is its JSON result.

Each pair prints one line to stderr as it finishes.  Then, per metric:
each side's median with its quartiles, the pairs the change won (ties
count for neither) and the verdict.  The verdict is ``gain`` when the
change won at least 9/10 of the pairs and the medians differ, in the
change's favour, by more than the parent's interquartile range; ``worse
than bound`` when the change's median is worse than the parent's by more
than the bound times the parent's median; else ``no gain``.  A last line
gives each side's failed and attempted operations.  This script edits no
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench/run.py exited {done.returncode} in {checkout}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive; one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per metric of ``end_to_end`` over (parent, change) run lines.

    Each row holds the metric's name, each side's quartiles, the change's
    wins out of the pairs and the verdict of the module docstring.
    """
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "higher" else -1
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        ahead = sign * (cq[1] - pq[1])  # positive when the change's median is better
        if 10 * wins >= 9 * len(pairs) and ahead > pq[2] - pq[0]:
            verdict = "gain"
        elif -ahead > metric["bound"] * abs(pq[1]):
            verdict = "worse than bound"
        else:
            verdict = "no gain"
        rows.append({"name": name, "parent": pq, "change": cq, "wins": wins,
                     "pairs": len(pairs), "verdict": verdict})
    return rows


def _side(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        if i % 2:
            change = run(args.change, args.workload, seed, spec["run_seconds"])
            parent = run(args.parent, args.workload, seed, spec["run_seconds"])
        else:
            parent = run(args.parent, args.workload, seed, spec["run_seconds"])
            change = run(args.change, args.workload, seed, spec["run_seconds"])
        pairs.append((parent, change))
        values = "  ".join(
            f"{m['name']} {parent['metrics'][m['name']]['value']:.6g} -> "
            f"{change['metrics'][m['name']]['value']:.6g}"
            for m in spec["end_to_end"]
        )
        print(f"pair {i + 1} seed {seed}: {values}", file=sys.stderr, flush=True)
    print(f"workload {args.workload}  pairs {len(pairs)}  parent {args.parent}  change {args.change}")
    for row in summarize(pairs, spec["end_to_end"]):
        print(f"  {row['name']:<12} parent {_side(row['parent'])}  change {_side(row['change'])}"
              f"  won {row['wins']}/{row['pairs']}  {row['verdict']}")
    failed = [sum(run["failed"] for run in side) for side in zip(*pairs)]
    attempted = [sum(run["attempted"] for run in side) for side in zip(*pairs)]
    print(f"  failed       parent {failed[0]} of {attempted[0]}  change {failed[1]} of {attempted[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
