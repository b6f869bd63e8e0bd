"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {paper,sweep,predict} --seed N \\
        --seconds S --trace {0,1}

One single-threaded process sets the workload up (imports and inputs), then
runs whole *rounds* of the same operations until ``--seconds`` of process
CPU time have passed, then checks every operation's output against a
reference the program under test did not produce.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
  ``setup_s`` (median CPU time from process start to the first timed
  operation, over this process and four fresh ones), ``throughput_per_s``
  (median over rounds of work units per CPU second) and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced and traced rounds.  Traced rounds replay
  the workload's layer calls inside spans (:mod:`perfbench.spans`); the
  per-layer metrics are CPU self seconds and counts per traced round, plus
  set-up spans per run, and the spans are written as a Perfetto trace under
  ``.bench_build/perfbench/``.

Time is process CPU time (:func:`time.process_time`), not wall time: on a
shared virtual machine the wall clock also counts time stolen by other
guests.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.spans import GC_SPAN, ROUND_SPAN, Tracer  # noqa: E402

WORKLOADS = ("paper", "sweep", "predict")
#: set-ups measured per run: this process plus fresh ones.
SETUP_REPEATS = 5
#: operations repeated after the timed phase when it ran a single round.
RECHECK_ITEMS = 7
#: spans recorded once per run, before the timed phase.
SETUP_LAYERS = ("python.import_s", "difftest.generate_s")
SCRATCH = ROOT / ".bench_build" / "perfbench"


@dataclass
class Round:
    seconds: float
    units: int
    records: dict
    traced: bool

    @property
    def rate(self) -> float:
        return self.units / self.seconds


def measure(workload, inputs, seconds: float, traced: bool, tracer: Tracer) -> list[Round]:
    """Whole rounds until ``seconds`` of CPU time; with ``traced``, every
    second round is a traced replay and there is at least one of each."""
    rounds: list[Round] = []
    start = time.process_time()
    while True:
        tracing = traced and len(rounds) % 2 == 1
        if tracing:
            tracer.watch_gc()
            try:
                with tracer.span(ROUND_SPAN) as opened:
                    records = workload.traced_round(inputs, tracer)
            finally:
                tracer.unwatch_gc()
            span = tracer.spans[opened.index]
            elapsed = span.end - span.start
        else:
            begin = time.process_time()
            records = workload.run_round(inputs, inputs.items)
            elapsed = time.process_time() - begin
        rounds.append(Round(elapsed, workload.units(records), records, tracing))
        if time.process_time() - start >= seconds and (not traced or len(rounds) >= 2):
            return rounds


def check(workload, inputs, rounds: list[Round], seed: int) -> tuple[int, list[str]]:
    """Attempted operations and one reason per failed one.

    An operation fails when its output disagrees with the workload's
    reference, or when it differs from the same operation's output in the
    first round (outputs and simulated counts are deterministic).  A timed
    phase of a single round repeats a seeded sample of operations instead.
    """
    workdir = SCRATCH / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reference = workload.reference(inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    first = rounds[0].records
    unstable = set()
    if len(rounds) == 1:
        sample = random.Random(seed).sample(inputs.items,
                                            min(RECHECK_ITEMS, len(inputs.items)))
        again = workload.run_round(inputs, sample)
        unstable = {key for key, record in again.items() if record != first.get(key)}
    attempted = 0
    failures = []
    for number, round_ in enumerate(rounds, 1):
        for key, record in round_.records.items():
            attempted += 1
            reason = workload.failure(key, record, inputs, reference)
            if reason is None and record != first.get(key):
                reason = "differs from round 1"
            if reason is None and key in unstable:
                reason = "differs when repeated"
            if reason is not None:
                failures.append(f"round {number} {key}: {reason}")
    return attempted, failures


def digest(records: dict) -> str:
    """Hash of one round's outputs and counts: equal for equal seeds."""
    lines = sorted(f"{key!r}={record!r}" for key, record in records.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def layer_metrics(tracer: Tracer, rounds: list[Round], per_layer: list[dict]) -> dict:
    """Per-layer values: set-up spans per run, everything else per traced
    round (self seconds, or counts, which repeat exactly every round)."""
    traced = [round_ for round_ in rounds if round_.traced]
    untraced = [round_ for round_ in rounds if not round_.traced]
    per_round = len(traced)
    self_times = tracer.self_times()
    run_seconds = sum(d for name in self_times if name.startswith("interp.run_s.")
                      for d in tracer.durations(name)) / per_round
    values = {}
    for metric in per_layer:
        name = metric["name"]
        if name in SETUP_LAYERS:
            values[name] = self_times.get(name, 0.0)
        elif name == "residual_s":
            values[name] = self_times.get(ROUND_SPAN, 0.0) / per_round
        elif name == "interp.insn_per_s":
            instructions = tracer.counts["interp.instructions"] / per_round
            values[name] = instructions / run_seconds if run_seconds else 0.0
        elif name == "trace.throughput_ratio":
            values[name] = (statistics.median(r.rate for r in traced)
                            / statistics.median(r.rate for r in untraced))
        elif metric["unit"] == "count":
            values[name] = tracer.counts[name] // per_round
        else:
            values[name] = self_times.get(name, 0.0) / per_round
    return values


def round_layers_sum(tracer: Tracer) -> float:
    """CPU self seconds of every span inside the traced rounds (the round
    spans' own self time, the residual, included)."""
    return sum(seconds for name, seconds in tracer.self_times().items()
               if name not in SETUP_LAYERS)


def fresh_setups(args) -> list[float]:
    """Set-up CPU seconds of fresh processes doing this run's set-up."""
    seconds = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True)
        seconds.append(float(proc.stdout.split()[-1]))
    return seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up CPU seconds and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = Tracer()
    with tracer.span("python.import_s"):
        workload = importlib.import_module(f"perfbench.{args.workload}")
    inputs = workload.setup(args.seed, tracer)
    setup_seconds = time.process_time()
    if args.setup_only:
        print(setup_seconds)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    rounds = measure(workload, inputs, args.seconds, bool(args.trace), tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failures = check(workload, inputs, rounds, args.seed)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"rounds: {len(rounds)} ({sum(r.traced for r in rounds)} traced), "
          f"units/round: {rounds[0].units}, "
          f"rates: {' '.join(f'{r.rate:.1f}' for r in rounds)}")
    print(f"digest: {digest(rounds[0].records)}")

    correct = True
    if args.trace:
        metrics = spec["per_layer"]
        values = layer_metrics(tracer, rounds, metrics)
        traced_seconds = sum(r.seconds for r in rounds if r.traced)
        spans_seconds = round_layers_sum(tracer)
        # Self times partition each round span exactly; anything else means
        # a span escaped its round or overlapped a sibling.
        correct = abs(spans_seconds - traced_seconds) <= 1e-6 * max(1.0, traced_seconds)
        print(f"traced CPU s: {traced_seconds:.6f}, layer self times + residual: "
              f"{spans_seconds:.6f}, gc s/round: {values.get(GC_SPAN, 0.0):.4f}")
        SCRATCH.mkdir(parents=True, exist_ok=True)
        path = SCRATCH / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_perfetto(path, process_name=f"perfbench {args.workload}")
        print(f"trace: {os.path.relpath(path)}")
    else:
        metrics = spec["end_to_end"]
        setups = [setup_seconds, *fresh_setups(args)]
        print(f"setup CPU s: {' '.join(f'{s:.4f}' for s in setups)}")
        values = {
            "setup_s": statistics.median(setups),
            "throughput_per_s": statistics.median(r.rate for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
