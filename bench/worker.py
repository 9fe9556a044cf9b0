"""Runs one workload in this process and prints one JSON object.

``run.py`` starts this file as a fresh interpreter, so ``ru_maxrss`` read at
the end of the timed loop is the workload's own peak.  Jobs run as a closed
loop with one client: each call of ``psemigroups.cli.main(argv)`` runs with
stdout and stderr captured, and the next starts when it returns.  No
threads, no further processes.

With ``--trace 1`` the calls of the timed loop are then replayed under
``tracer.Tracer``, and the difference in time spent inside the calls is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import io
from array import array
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checker
import hostspeed
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
WARMUP_CALLS = 3


class LineClock(io.StringIO):
    """Captured stdout of a `psg batch` call that times each job.

    The batch prints one line per job, so a job's time runs from the end of
    the previous line (or the start of the call) to the end of its own.
    Given a sample list, it times the host-speed kernel every
    ``KERNEL_EVERY`` lines; the clock is stopped meanwhile, so kernel time
    counts towards no job.
    """

    KERNEL_EVERY = 25

    def __init__(self, loop: "Loop", kernel: list | None, on_line=None) -> None:
        super().__init__()
        self.lines = 0
        self.resume: float | None = None  # set to the call's start by ``call``
        self._loop = loop
        self._kernel = kernel
        self._on_line = on_line

    def write(self, text: str) -> int:
        written = super().write(text)
        if "\n" in text:
            now = perf_counter()
            self._loop.record(now, now - self.resume)
            self.lines += 1
            self.resume = now
            if self._on_line is not None:
                self._on_line()
            if self._kernel is not None and self.lines % self.KERNEL_EVERY == 0:
                self.resume = hostspeed.sample(self._kernel)
        return written


def call(argv, out: io.StringIO | None = None):
    """One `psg` call in-process: (exit code, start, end, captured stdout)."""
    from psemigroups import cli

    out = io.StringIO() if out is None else out
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        start = perf_counter()
        if isinstance(out, LineClock):
            out.resume = start
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            # A crash fails the job; the loop goes on to the next one.
            code = "crash: " + traceback.format_exc().strip().splitlines()[-1]
        end = perf_counter()
    return code, start, end, out


@dataclass
class Loop:
    """What one closed loop did: per-call results and per-job times."""

    calls: list = field(default_factory=list)  # (job, exit code, output digest)
    texts: dict = field(default_factory=dict)  # (job key, digest) -> output kept for checks
    # End and duration of each job, in arrays of 16 bytes a job.  A list of
    # tuples took about 100 and moved batch peak RSS by several percent with
    # the number of jobs a run completed.
    ends: array = field(default_factory=lambda: array("d"))
    seconds: array = field(default_factory=lambda: array("d"))
    kernel: list = field(default_factory=list)  # (end, seconds) per host-speed sample
    busy: float = 0.0  # seconds inside psg calls, kernel samples excluded
    output_bytes: int = 0

    def record(self, end: float, seconds: float) -> None:
        self.ends.append(end)
        self.seconds.append(seconds)
        self.busy += seconds


def closed_loop(units, seconds: float, keep_text, tracer=None, limit=None,
                line_kernel=True) -> Loop:
    """Run ``units`` in order, cycling, until ``seconds`` have passed (or
    ``limit`` calls are done).  ``keep_text(job, digest)`` says which outputs
    the checks need in full; the others are kept as digests only.  The
    host-speed kernel is timed after every call and, with ``line_kernel``,
    also between the lines of a batch call (never when traced: it would land
    inside a span)."""
    loop = Loop()
    batch = units[0].argv[0] == "batch"
    deadline = perf_counter() + seconds
    while True:
        job = units[len(loop.calls) % len(units)]
        if batch:
            if tracer is None:
                out = LineClock(loop, loop.kernel if line_kernel else None)
            else:
                out = LineClock(loop, None, tracer.next_job)
        else:
            out = io.StringIO()
            if tracer is not None:
                tracer.next_job()
        code, start, end, out = call(job.argv, out)
        if batch:
            loop.busy += end - out.resume
        else:
            loop.record(end, end - start)
        text = out.getvalue()
        digest = checker.digest(text)
        loop.calls.append((job, code, digest))
        loop.output_bytes += len(text.encode("utf-8"))
        if keep_text(job, digest):
            loop.texts[(job.key, digest)] = text
        hostspeed.sample(loop.kernel)
        if (limit is None and perf_counter() >= deadline) or len(loop.calls) == limit:
            break
    return loop


def _percentile_90(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


class Workload:
    """Jobs of one workload, the reference data its checks need, and the checks."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self._files: list[Path] = []
        if name == "batch":
            self._prepare_batch()
        else:
            self.units = workloads.ordered_pool(name, seed)
            self.references = checker.load_references(name)

    def _write(self, suffix: str, lines: list[str]) -> Path:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"batch-seed{self.seed}{suffix}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self._files.append(path)
        return path

    def _prepare_batch(self) -> None:
        lines, planted = workloads.batch_file(self.seed)
        self.planted = set(planted)
        self.batch_jobs = len(lines)
        verify_lines = [
            line if i in self.planted else json.dumps({**json.loads(line), "verify": True})
            for i, line in enumerate(lines)
        ]
        job = workloads.Job(("batch", str(self._write("", lines))), len(lines))
        self.units = [job]
        # The --verify run is the reference and the warm-up.
        verify_job = ("batch", str(self._write("-verify", verify_lines)))
        code, _, _, out = call(verify_job)
        self.reference = out.getvalue()
        self.reference_digest = checker.digest(self.reference)
        for failure in checker.batch_failures(self.reference, len(lines), self.planted):
            self.failures.append(f"--verify reference: {failure}")
        if code != 2:
            self.failures.append(f"--verify reference: exit {code}, expected 2")

    def warm_up(self) -> None:
        if self.name != "batch":
            for job in self.units[:WARMUP_CALLS]:
                call(job.argv)

    def keep_text(self, job, digest: str) -> bool:
        """Whether the check of this output needs its full text."""
        if self.name == "batch":
            return digest != self.reference_digest
        return self.name == "decompose" and digest != self.references.get(job.key)

    def check(self, loop: Loop) -> None:
        if self.name == "batch":
            return self._check_batch(loop)
        verdicts: dict[tuple[str, str], str | None] = {}
        for job, code, digest in loop.calls:
            self.attempted += 1
            if code != 0:
                self.failures.append(f"{job.key}: exit {code}")
                continue
            key = (job.key, digest)
            if key not in verdicts:
                verdicts[key] = self._verdict(job, digest, loop.texts.get(key))
            if verdicts[key] is not None:
                self.failures.append(f"{job.key}: {verdicts[key]}")

    def _verdict(self, job, digest: str, text: str | None) -> str | None:
        expected = self.references.get(job.key)
        if self.name == "decompose":
            # A pinned digest is that of an answer found valid when it was
            # recorded; any other answer gets the full validity check.
            return None if digest == expected else checker.check_decomposition(job.argv, text)
        if expected is None:
            code, _, _, out = call(checker.with_verify(job.argv))
            if code != 0:
                return f"--verify reference exited {code}"
            expected = checker.digest(out.getvalue())
        return None if digest == expected else "answer differs from its --verify reference"

    def _check_batch(self, loop: Loop) -> None:
        reference = self.reference.splitlines()
        for job, code, digest in loop.calls:
            self.attempted += self.batch_jobs
            if code != 2:
                self.failures.append(f"batch call: exit {code}, expected 2")
            if digest != self.reference_digest:
                self.failures.extend(
                    checker.batch_failures(
                        loop.texts[(job.key, digest)], self.batch_jobs, self.planted, reference
                    )
                )

    def close(self) -> None:
        for path in self._files:
            path.unlink(missing_ok=True)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = Workload(name, seed)
    try:
        workload.warm_up()
        loop = closed_loop(workload.units, seconds, workload.keep_text)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            # The traced run replays exactly the calls of the untraced one.
            # Its overhead is measured against a second untraced replay that
            # follows it, which has seen the jobs as often as the traced one.
            replay = [job for job, _, _ in loop.calls]
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = closed_loop(replay, 0.0, workload.keep_text, tracer, limit=len(replay))
            finally:
                tracer.uninstall()
            plain = closed_loop(replay, 0.0, lambda job, digest: False, limit=len(replay),
                                line_kernel=False)
            workload.check(traced)
            metrics = tracing.layer_metrics(tracer, len(traced.seconds), traced.output_bytes)
            metrics["trace.overhead_s"] = (
                sum(hostspeed.scaled(traced.ends, traced.seconds, traced.kernel))
                - sum(hostspeed.scaled(plain.ends, plain.seconds, plain.kernel)),
                "s",
            )
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"{name}.spans.jsonl")
        else:
            times = hostspeed.scaled(loop.ends, loop.seconds, loop.kernel)
            metrics = {
                "jobs_per_s": (len(times) / sum(times), "jobs/s"),
                "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
                "job_p90_ms": (_percentile_90(times) * 1e3, "ms"),
                "peak_rss_mb": (peak_kib / 1024, "MB"),
            }
        workload.check(loop)
    finally:
        workload.close()
    return {
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "failures": workload.failures[:5],
        "jobs": len(loop.seconds),
        "unscaled_jobs_per_s": len(loop.seconds) / loop.busy,
        "kernel_ms": statistics.median(s for _, s in loop.kernel) * 1e3,
        "metrics": {k: [v, unit] for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import psemigroups

    if SRC.resolve() not in Path(psemigroups.__file__).resolve().parents:
        print(f"psemigroups was imported from {psemigroups.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
