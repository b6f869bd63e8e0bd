"""Tests of the benchmark's own code: checks, span arithmetic, a small run.

A planted wrong answer must count as a failed operation, and the traced
run's per-layer self times plus the residual must add up to its CPU time.
"""

from __future__ import annotations

import json
import shutil

from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import checks, native, paper, predict, run, sweep
from perfbench.spans import GC_SPAN, ROUND_SPAN, Tracer

ROOT = Path(__file__).resolve().parents[2]


def _rounds(*record_maps):
    return [run.Round(1.0, len(records), records, False) for records in record_maps]


def _workload(module, reference, run_round=None):
    return SimpleNamespace(reference=lambda inputs, workdir: reference,
                           failure=module.failure, run_round=run_round)


# -- planted wrong answers --------------------------------------------------


def test_flipped_checkpoint_fails_against_native_reference():
    item = paper.Item("treeadd", "pdp11", "treeadd")
    good = paper.Run(0, b"", (3069,), None, 117751, 1023, 1, 1)
    flipped = paper.Run(0, b"", (3068,), None, 117751, 1023, 1, 1)
    workload = _workload(paper, {"treeadd": native.NativeRun(0, b"", (3069,))})
    inputs = paper.Inputs(items=[item], sources={})
    attempted, failures = run.check(workload, inputs, _rounds({item: good}, {item: flipped}), 0)
    assert attempted == 2
    assert len(failures) == 1 and "checkpoints" in failures[0]


def test_paper_trap_and_native_sanitizer_report_fail():
    reference = native.NativeRun(0, b"", (1,))
    assert native.failure(0, b"", [1], None, reference) is None
    assert "trapped" in native.failure(None, b"", [], "bounds", reference)
    assert "exit code" in native.failure(1, b"", [1], None, reference)
    assert "stdout" in native.failure(0, b"x", [1], None, reference)
    assert native.failure(0, b"", [1], None, native.NativeRun(error="stderr: ERROR"))
    checkpoints, stray = native.parse_stderr(
        "checkpoint 4\n==1==ERROR: AddressSanitizer: heap-buffer-overflow\n")
    assert checkpoints == (4,) and "AddressSanitizer" in stray


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not installed")
def test_native_reference_catches_out_of_bounds(tmp_path):
    clean = native.build_and_run(
        "clean", "int main(void) { mini_checkpoint(-7); printf(\"hi\\n\"); return 3; }",
        tmp_path)
    assert clean == native.NativeRun(3, b"hi\n", (-7,))
    overflow = native.build_and_run(
        "overflow", "int main(void) { int *p = malloc(4 * sizeof(int));"
        " p[4] = 1; return 0; }", tmp_path)
    assert overflow.error is not None


def test_missing_trap_fails_sweep_cell():
    program = SimpleNamespace(index=0, features=("uaf", "loop"))
    inputs = SimpleNamespace(items=[program])
    verdicts = {0: {"pdp11": "agree", "mpx": "unknown"}}
    records = {(0, "pdp11"): sweep.Cell("agree", 10, 1),
               (0, "mpx"): sweep.Cell("agree", 10, 1)}
    attempted, failures = run.check(_workload(sweep, verdicts), inputs,
                                    _rounds(records, records), 0)
    assert attempted == 4
    assert len(failures) == 2 and all("uaf is planted" in f for f in failures)


def test_mismatched_static_verdict_fails():
    program = SimpleNamespace(index=0, features=("loop",))
    inputs = SimpleNamespace(items=[program])
    records = {(0, "pdp11"): sweep.Cell("agree", 10, 1),
               (0, "cheri_v2"): sweep.Cell("trap:tag", 10, 1)}
    verdicts = {0: {"pdp11": "agree", "cheri_v2": "agree"}}
    attempted, failures = run.check(_workload(sweep, verdicts), inputs,
                                    _rounds(records, records), 0)
    assert len(failures) == 2 and "soundness violation" in failures[0]

    prediction = predict.Prediction((("pdp11", "agree"), ("cheri_v2", "trap:bounds")), ())
    cells = {0: {"pdp11": "agree", "cheri_v2": "trap:tag"}}
    attempted, failures = run.check(_workload(predict, cells), inputs,
                                    _rounds({0: prediction}, {0: prediction}), 0)
    assert attempted == 2 and len(failures) == 2
    assert "predicted trap:bounds, dynamic trap:tag" in failures[0]


def test_property_rules_on_static_verdicts():
    assert checks.property_failure("pdp11", "unknown", ("uaf",)) is None
    assert checks.property_failure("pdp11", "trap:uaf", ()) is not None
    assert checks.property_failure("strict", "benign", ("oob_read",)) is not None
    assert checks.property_failure("strict", "benign", ("int_arith",)) is None
    assert checks.crossval_failure("corrupt-possible", "corrupt") is None
    assert checks.crossval_failure("unknown", "trap:bounds") is None


def test_single_round_repeats_a_sample():
    item = paper.Item("treeadd", "pdp11", "treeadd")
    good = paper.Run(0, b"", (3069,), None, 117751, 1023, 1, 1)
    drifted = paper.Run(0, b"", (3069,), None, 117752, 1023, 1, 1)
    workload = _workload(paper, {"treeadd": native.NativeRun(0, b"", (3069,))},
                         run_round=lambda inputs, items: {item: drifted})
    inputs = paper.Inputs(items=[item], sources={})
    attempted, failures = run.check(workload, inputs, _rounds({item: good}), 0)
    assert attempted == 1 and failures == [f"round 1 {item!r}: differs when repeated"]


# -- span arithmetic ----------------------------------------------------------


def test_self_times_partition_the_root():
    ticks = iter([0.0, 1.0, 1.5, 2.0, 4.0, 4.5, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span(ROUND_SPAN):            # 0 .. 10
        with tracer.span("a"):               # 1 .. 7
            with tracer.span("b"):           # 1.5 .. 4.5
                tracer._on_gc("start", {})   # 2
                tracer._on_gc("stop", {})    # 4
    assert [span.name for span in tracer.spans] == [ROUND_SPAN, "a", "b", GC_SPAN]
    self_times = tracer.self_times()
    assert self_times == {ROUND_SPAN: 4.0, "a": 3.0, "b": 1.0, GC_SPAN: 2.0}
    assert sum(self_times.values()) == 10.0


def test_traced_layers_and_residual_add_up_to_round_cpu():
    def busy(n):
        return sum(i * i for i in range(n))

    def traced_round(inputs, tracer):
        with tracer.span("minic.parse_s"):
            busy(20000)
            with tracer.span("interp.run_s.pdp11"):
                busy(30000)
        tracer.count("interp.instructions", 5)
        busy(10000)
        return {0: 1}

    workload = SimpleNamespace(run_round=lambda inputs, items: {0: 1},
                               traced_round=traced_round, units=len)
    tracer = Tracer()
    with tracer.span("python.import_s"):
        busy(1000)
    rounds = run.measure(workload, SimpleNamespace(items=[0]), 0.0, True, tracer)
    assert [r.traced for r in rounds] == [False, True]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    values = run.layer_metrics(tracer, rounds, spec)
    assert set(values) == {metric["name"] for metric in spec}
    times = sum(values[m["name"]] for m in spec
                if m["unit"] == "s" and m["name"] not in run.SETUP_LAYERS)
    assert times == pytest.approx(rounds[1].seconds, abs=1e-9)
    assert run.round_layers_sum(tracer) == pytest.approx(rounds[1].seconds, abs=1e-9)
    assert values["interp.instructions"] == 5
    assert values["residual_s"] > 0 and values["python.import_s"] > 0


# -- a small run of the real workloads ----------------------------------------


@pytest.mark.parametrize("workload", ["sweep", "predict"])
def test_small_traced_run_passes_its_checks(workload, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sweep, "PROGRAMS", 3)
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * (21 if workload == "sweep" else 3)
    trace = json.loads((tmp_path / f"trace-{workload}-3.json").read_text())
    assert any(event["name"] == "minic.parse_s" for event in trace["traceEvents"])
