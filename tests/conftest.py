import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import psemigroups
from psemigroups import build_psemigroup, validate_generators


@lru_cache(maxsize=None)
def _build(gens: tuple[int, ...], p: int):
    return build_psemigroup(validate_generators(list(gens)), p)


@pytest.fixture(scope="session")
def build():
    """Memoized (gens, p) -> PSemigroup shared across the whole run."""
    return _build


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
