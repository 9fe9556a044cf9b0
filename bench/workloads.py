"""Seeded job generators for the four benchmark workloads.

Every generator takes a seed, draws only from ``random.Random(seed)`` and
bounds job size by input properties (``math.gcd`` and products of the
generators); none of them calls the package.  A job is the argv of one
``psg`` call plus ``size``, the input property that bounds its cost.

``report``, ``verify`` and ``decompose`` draw from a fixed pool: the
generator's first ``POOL_SIZE`` jobs for ``POOL_SEED``.  The run seed only
orders the pool, so every seed sees the same job sizes and the pinned
references in ``references/`` cover every job a run can meet.  The order
is stratified: the pool is cut by ``size`` into ``STRATA`` equal bands and
each round takes one job from every band, so any prefix of the order has
close to the pool's size mix.  ``batch`` runs its whole pool in every call,
in the order the run seed picks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("report", "verify", "decompose", "batch")
POOL_SEED = 0
POOL_SIZE = {"report": 1200, "verify": 2400, "decompose": 500}
STRATA = 40
BATCH_JOBS = 1500
BATCH_REJECT_EVERY = 50


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    size: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _coprime(values) -> bool:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g == 1


def _gens(values) -> str:
    return ",".join(str(v) for v in values)


def report_jobs(seed: int):
    """`psg invariants --json` on 3 or 4 generators, a1 in 20..90."""
    rng = random.Random(seed)
    while True:
        k = rng.choice((3, 4))
        a1 = rng.randint(20, 90)
        gens = [a1, *sorted(rng.sample(range(a1 + 1, 3 * a1 + 1), k - 1))]
        p = rng.randint(1, 20)
        size = (p + 1) * a1 * gens[1]
        if size > 4 * 10**5 or not _coprime(gens):
            continue
        yield Job(("invariants", "--gens", _gens(gens), "-p", str(p), "--json", "--quiet"), size)


def _verify_tuple(rng: random.Random) -> tuple[list[int], int]:
    """A 2-generator tuple, an arithmetic triple with p <= a/2, or a small triple."""
    while True:
        shape = rng.choice(("two", "arith", "three"))
        if shape == "two":
            a = rng.randint(3, 20)
            gens = [a, rng.randint(a + 1, 3 * a)]
            p = rng.randint(0, 3)
        elif shape == "arith":
            a = rng.randint(3, 16)
            d = rng.randint(1, a)
            gens = [a, a + d, a + 2 * d]
            p = rng.randint(0, a // 2)
        else:
            a = rng.randint(3, 14)
            gens = [a, *sorted(rng.sample(range(a + 1, 3 * a + 1), 2))]
            p = rng.randint(0, 3)
        if (p + 1) * gens[0] * gens[1] <= 5000 and _coprime(gens):
            return gens, p


def verify_jobs(seed: int):
    """`invariants`, `hilbert` and `membership`, each with `--verify`."""
    rng = random.Random(seed)
    while True:
        gens, p = _verify_tuple(rng)
        size = (p + 1) * gens[0] * gens[1]
        command = rng.choice(("invariants", "invariants", "hilbert", "membership"))
        argv = [command, "--gens", _gens(gens), "-p", str(p)]
        if command == "membership":
            argv += ["-n", str(rng.randint(0, size))]
        yield Job((*argv, "--json", "--quiet", "--verify"), size)


def decompose_jobs(seed: int):
    """`psg decompose --json` on 3 generators, a1 in 3..8, p in 0..5."""
    rng = random.Random(seed)
    while True:
        a1 = rng.randint(3, 8)
        gens = [a1, *sorted(rng.sample(range(a1 + 1, 3 * a1 + 1), 2))]
        p = rng.randint(0, 5)
        size = (p + 1) * a1 * gens[1]
        if size > 400 or not _coprime(gens):
            continue
        yield Job(("decompose", "--gens", _gens(gens), "-p", str(p), "--json", "--quiet"), size)


GENERATORS = {"report": report_jobs, "verify": verify_jobs, "decompose": decompose_jobs}


def pool(workload: str) -> list[Job]:
    stream = GENERATORS[workload](POOL_SEED)
    return [next(stream) for _ in range(POOL_SIZE[workload])]


def ordered_pool(workload: str, seed: int) -> list[Job]:
    """The pool in the stratified order the run seed picks."""
    rng = random.Random(seed)
    jobs = sorted(pool(workload), key=lambda job: (job.argv[0], job.size, job.key))
    width = -(-len(jobs) // STRATA)
    bands = [jobs[i : i + width] for i in range(0, len(jobs), width)]
    for band in bands:
        rng.shuffle(band)
    order = []
    for r in range(width):
        round_jobs = [band[r] for band in bands if r < len(band)]
        rng.shuffle(round_jobs)
        order.extend(round_jobs)
    return order


# Rejections the current code answers with an exit-2 error line.  Inputs it
# crashes on ("n" as a string, a non-object line, "mu" as a string) abort
# the whole batch today, so they are left out; see BENCHMARK.json.
_REJECTIONS = (
    {"command": "invariants", "gens": [4, 6], "p": 1},
    {"command": "membership", "gens": [6, 9, 15], "p": 0, "n": 30},
    {"command": "sweep", "gens": [5], "p": "0..2"},
    {"command": "hilbert", "gens": 7, "p": 0},
    {"command": "factor", "gens": [3, 5], "p": 0},
    {"command": "denumerant", "gens": [3, 5], "n": -4},
    {"command": "invariants", "gens": [3, 5], "p": -1},
    {"command": "sweep", "gens": [3, 7], "p": "3..1"},
)


def _batch_job(rng: random.Random) -> dict:
    while True:
        k = rng.choice((2, 2, 3))
        gens = sorted(rng.sample(range(2, 30), k))
        if _coprime(gens):
            break
    command = rng.choice(("membership", "denumerant", "invariants", "hilbert", "sweep"))
    job = {"command": command, "gens": gens}
    if command in ("membership", "denumerant"):
        job["n"] = rng.randint(0, 120)
    if command != "denumerant":
        job["p"] = rng.randint(0, 3)
    return job


def batch_file(seed: int) -> tuple[list[str], list[int]]:
    """Lines of a `psg batch` jobs file, and the indices of planted rejections.

    The jobs come from a fixed pool, like the other workloads; the run seed
    shuffles them and the rejections, which sit at every ``BATCH_REJECT_EVERY``-th line.
    """
    rejected = BATCH_JOBS // BATCH_REJECT_EVERY
    pool_rng = random.Random(POOL_SEED)
    jobs = [json.dumps(_batch_job(pool_rng)) for _ in range(BATCH_JOBS - rejected)]
    kinds = [json.dumps(job) for job in _REJECTIONS] + ["{not json"]
    rejections = [kinds[i % len(kinds)] for i in range(rejected)]
    rng = random.Random(seed)
    rng.shuffle(jobs)
    rng.shuffle(rejections)
    lines, planted = [], []
    for i in range(BATCH_JOBS):
        if i % BATCH_REJECT_EVERY == BATCH_REJECT_EVERY - 1:
            planted.append(i)
            lines.append(rejections.pop())
        else:
            lines.append(jobs.pop())
    return lines, planted
