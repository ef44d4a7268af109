"""Benchmark of the flowpde pipeline.

    python3 perfbench/run.py --workload {ensemble,simulate,identities} \
        --seed N --seconds S --trace {0,1} [--smoke]

Runs from the root of a source checkout and imports the package from its
`src/` directory.  One process, one thread: the BLAS/OpenMP thread counts are
pinned to 1 before numpy is imported.  The workload's batch job runs in a
closed loop; another batch starts only while it would still end within S
seconds of program time.  Every TICK_S the reference kernel (reference.py)
interrupts the batch and runs for REF_SHARE of the program time, and batch
times are reported at the reference host speed.

--trace 0 reports the end-to-end metrics; --trace 1 runs one untraced batch
and then traced batches, and reports the per-layer metrics.  Human-readable
lines (environment, checks, digest, summary) come first; the last line of
standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 7
# the reference kernel runs every TICK_S seconds, for REF_SHARE of the
# program time since its previous run
TICK_S = 0.25
REF_SHARE = 0.1
END_TO_END = {"adj_wall_s": "s", "adj_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ensemble", "simulate", "identities"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="minimal sizes, for the benchmark's own test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def _setup(args, out: Path):
    """Import the package and build the workload's inputs from the seed."""
    import workloads

    import flowpde

    if Path(flowpde.__file__).resolve().parent != SRC / "flowpde":
        raise SystemExit(f"flowpde imported from {flowpde.__file__}, not from {SRC}")
    return workloads.WORKLOADS[args.workload](args.seed, args.smoke, out)


def _setup_seconds(args) -> list:
    """Set-up time measured in fresh interpreters, which pay the import."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def _environment(args) -> dict:
    import numpy

    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": src_lines,
    }


class Clock:
    """Program time of a batch.  When sampling, a SIGALRM every TICK_S
    interrupts the program (between two Python bytecodes) and runs the
    reference kernel for about REF_SHARE of the program time since the
    previous tick, so that the kernel samples the host's speed all through
    the batch.  The kernel's time is not program time."""

    def __init__(self, sample: bool):
        import reference  # imports numpy: only after the thread counts are pinned

        self.kernel = reference
        self.sample = sample
        self.ref = 0.0
        self.reps = 0
        self._armed = False
        self._paused = self._last = 0.0
        if sample:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, *_):
        if not self._armed:  # raised before the timer was disarmed
            return
        now = perf_counter()
        reps = max(1, round(REF_SHARE * (now - self._last) / self.kernel.REP_S))
        self.ref += self.kernel.run(reps)
        self.reps += reps
        self._last = perf_counter()
        self._paused += self._last - now
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def time(self, fn, *args):
        """fn(*args) and its program seconds."""
        self._paused = 0.0
        t0 = self._last = perf_counter()
        if self.sample:
            self._armed = True
            self._tick()
        try:
            result = fn(*args)
        finally:
            if self.sample:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        return result, perf_counter() - t0 - self._paused

    def slowdown(self) -> float:
        """Measured seconds per reference rep over its nominal REP_S."""
        return self.ref / self.reps / self.kernel.REP_S


def _batches(wl, seconds: float, clock: Clock, tracer=None) -> list:
    """Closed loop: run batch jobs 0, 1, ... while one more batch as long as
    the last still fits in `seconds` of program time (at least one batch)."""
    done, index, total = [], 0, 0.0
    while not done or total + done[-1].seconds <= seconds:
        job = wl.prepare(index)
        if tracer is not None:
            tracer.run_id = f"{wl.name}/batch{index}"
        batch, batch_seconds = clock.time(wl.run, job)
        batch.seconds = batch_seconds
        wl.finish(batch)
        print(f"batch {index}{' traced' if tracer else ''}: {batch.seconds:.4f} s, "
              f"{batch.ops} ops, {batch.failed} failed", flush=True)
        done.append(batch)
        total += batch.seconds
        index += 1
    return done


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "flowpde" / "__init__.py").is_file():
        print(f"error: no flowpde sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        t0 = perf_counter()
        wl = _setup(args, Path(tmp))
        own_setup = perf_counter() - t0
        if args.setup_probe:
            print(f"{own_setup!r}")
            return 0
        setup = _setup_seconds(args)
        print("env " + json.dumps(_environment(args)), flush=True)
        print(f"setup: this process {own_setup:.4f} s, probes "
              + " ".join(f"{s:.4f}" for s in setup), flush=True)

        # the traced run reports no times at the reference speed: no sampling,
        # so that the kernel's time falls into no span
        clock = Clock(sample=not args.trace)
        if args.trace:
            from tracing import Tracer

            untraced = _batches(wl, 0.0, clock)
            tracer = Tracer()
            tracer.install()
            try:
                traced = _batches(wl, args.seconds, clock, tracer)
            finally:
                tracer.uninstall()
            batches = untraced + traced
        else:
            batches = _batches(wl, args.seconds, clock)
        peak = _peak_rss_mb()
        checks, checks_digest = wl.checks()

    notes = [n for b in batches for n in b.notes] + checks
    if args.trace:
        same = traced[0].digest == untraced[0].digest
        notes.append(("traced batch digest equals untraced", same,
                      f"{traced[0].digest[:16]} vs {untraced[0].digest[:16]}"))
    # batches repeat the same checks: print each distinct outcome once
    for label, ok, detail in dict.fromkeys(notes):
        print(f"{'PASS' if ok else 'FAIL'} {label}  [{detail}]")
    correct = all(ok for _, ok, _ in notes)
    from workloads import digest_of

    digest = digest_of(batches[0].digest.encode(), checks_digest.encode())
    print(f"digest {digest}")

    attempted = sum(b.ops for b in batches)
    failed = sum(b.failed for b in batches)
    if args.trace:
        metrics, absent = tracer.metrics(len(traced))
        overhead = traced[0].seconds / untraced[0].seconds - 1.0
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
        trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"
        tracer.write(trace_file)
        print(f"trace: {len(tracer.spans)} spans in {trace_file.relative_to(ROOT)}, "
              f"overhead {overhead:+.4f}")
        if absent:
            print("absent (patch point missing): " + " ".join(absent))
    else:
        # mean batch time and set-up time at the reference host speed: the
        # reference kernel ran between the program's calls and slowed down
        # with them
        wall = sum(b.seconds for b in batches) / len(batches)
        adj = wall / clock.slowdown()
        metrics = {
            "adj_wall_s": adj,
            "adj_ops_per_s": batches[0].ops / adj,
            "setup_s": statistics.median(setup) / clock.slowdown(),
            "peak_rss_mb": peak,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
        print(f"summary {args.workload}: "
              + " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())
              + f" failed_frac={failed / attempted:.6g} ({failed}/{attempted})"
              + f" batches={len(batches)} wall_s={wall:.6g}"
              + f" host_slowdown={clock.slowdown():.4f}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
