"""psemigroups benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload report --seed 1 --seconds 20 --trace 0

Run it from the repository root; it needs ``src/psemigroups``.  The
workload runs in one fresh interpreter (``worker.py``) as a closed loop with
one client.  ``setup_s`` is the median cold start of ``SETUP_PROBES`` more
fresh interpreters, each importing ``psemigroups.cli`` and answering one
trivial job; half of them run before the workload and half after it.

With ``--trace 0`` the last line is the end-to-end metrics, with
``--trace 1`` the per-layer ones from a traced run (spans are written to
``bench/out/``).  The lines above it repeat the metrics for people,
including ``error_rate`` with its attempted count.  Exit 0 when every
answer checked out, 1 when one did not, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_PROBES = 16
SETUP_ARGV = ["membership", "--gens", "3,5", "-p", "1", "-n", "15", "--json"]
SETUP_ANSWER = '{"gens":[3,5],"p":1,"n":15,"denumerant":"2","member":true}\n'
SETUP_CODE = "import sys\nfrom psemigroups.cli import main\nsys.exit(main(sys.argv[1:]))"
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_probes(count: int, failures: list[str]) -> list[float]:
    """Wall times of ``count`` cold `psg` calls, each a fresh interpreter.

    Not scaled to reference host speed: process start-up is mostly
    operating-system and file-system work, which the host-speed kernel does
    not track.
    """
    times = []
    for _ in range(count):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *SETUP_ARGV],
            env=_env(), cwd=BENCH.parent, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        times.append(perf_counter() - start)
        if done.returncode != 0 or done.stdout != SETUP_ANSWER:
            failures.append(f"setup probe: exit {done.returncode}, stdout {done.stdout!r}")
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "psemigroups" / "cli.py").is_file():
        print(f"error: no package at {SRC / 'psemigroups'}; run from a full checkout",
              file=sys.stderr)
        return 2

    # Setup probes: one untimed call warms the bytecode cache, then half the
    # timed calls run before the workload and half after it, so that one
    # slow stretch of the host does not set the median alone.
    setup_failures: list[str] = []
    setup_times: list[float] = []
    if not args.trace:
        setup_probes(1, setup_failures)
        setup_times += setup_probes(SETUP_PROBES // 2, setup_failures)
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=_env(), cwd=BENCH.parent, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: worker exited {done.returncode}", file=sys.stderr)
        return 1
    if not args.trace:
        setup_times += setup_probes(SETUP_PROBES - SETUP_PROBES // 2, setup_failures)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if setup_times:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    attempted = result["attempted"] + (SETUP_PROBES + 1 if setup_times else 0)
    failures = setup_failures + result["failures"]
    failed = result["failed"] + len(setup_failures)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {result['jobs']}  unscaled jobs/s {result['unscaled_jobs_per_s']:.6g}  "
          f"median kernel {result['kernel_ms']:.4g} ms")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':<48} {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for failure in failures[:5]:
        print(f"  failure: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
