import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from itertools import compress

import pytest

import psemigroups
from psemigroups import build_psemigroup, validate_generators
from psemigroups.core import _least_positive, _window


@lru_cache(maxsize=None)
def _build(gens: tuple[int, ...], p: int):
    return build_psemigroup(validate_generators(list(gens)), p)


@pytest.fixture(scope="session")
def build():
    """Memoized (gens, p) -> PSemigroup shared across the whole run."""
    return _build


def _minimal_generators_scan(semigroup) -> list[int]:
    """The definitional scan: the members that are not the sum of two positive members.

    All minimal generators lie in [m, frobenius + m] for the least positive
    member m, and subtracting m from any of them must leave a non-member,
    which caps the candidate count at m.  It indexes the membership bytes,
    padded with members, so it stays independent of the Apery tuple and
    also reads a ``FiniteSemigroup``.
    """
    mu = _least_positive(semigroup.membership)
    top = max(semigroup.frobenius + mu, mu)
    window = _window(semigroup.membership, 0, top + 1)
    members = list(compress(range(mu, top + 1), window[mu:]))
    out = []
    for m in members:
        if m > mu and window[m - mu]:
            continue
        for s in members:
            if 2 * s > m:
                out.append(m)
                break
            if window[m - s]:
                break
    return out


@pytest.fixture(scope="session")
def generator_scan():
    """semigroup -> its minimal generators by the definitional scan, ascending."""
    return _minimal_generators_scan


def _lift_invariants(reduction, frobenius: int, genus: int, sylvester_sum: int):
    """The paper's lift of (frobenius, genus, sylvester_sum) from the reduced tuple.

    With a1 and d from ``reduction``, each value is asserted integral.
    """
    a1, d = reduction.a1, reduction.d
    lifted_genus = d * genus + Fraction((d - 1) * (a1 - 1), 2)
    lifted_sum = (
        d * d * sylvester_sum
        + Fraction(a1 * d * (d - 1), 2) * genus
        + Fraction((a1 - 1) * (d - 1) * (2 * a1 * d - a1 - d - 1), 12)
    )
    assert lifted_genus.denominator == lifted_sum.denominator == 1
    return d * frobenius + (d - 1) * a1, int(lifted_genus), int(lifted_sum)


@pytest.fixture(scope="session")
def lift_invariants():
    """(reduction, frobenius, genus, sylvester_sum) -> the lifted triple, by the paper's formulas."""
    return _lift_invariants


# The child reads its own VmHWM: a child's ru_maxrss on Linux starts from
# the high-water mark of the process that spawned it, here all of pytest.
_PEAK_RSS = """
import sys
from psemigroups.cli import main
assert main(sys.argv[1:]) == 0
with open("/proc/self/status") as status:
    sys.stderr.write(next(line for line in status if line.startswith("VmHWM")))
"""


def _peak_rss_kib(argv):
    """The peak resident set of one ``psg`` process in KiB, its output discarded."""
    src = str(Path(psemigroups.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    return int(done.stderr.split()[-2])


@pytest.fixture(scope="session")
def peak_rss_kib():
    """argv -> the peak resident set in KiB of a fresh ``psg`` process running it."""
    if sys.platform != "linux":
        pytest.skip("reads /proc/self/status")
    return _peak_rss_kib
