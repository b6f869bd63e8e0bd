"""``sweep`` workload: generated programs through the differential runner.

A round sends the seed's :data:`PROGRAMS` generated programs through one
:meth:`DifferentialRunner.sweep` under all seven models and classifies every
(program, model) cell with :func:`oracle.classify_results`; an operation is
one classified cell.  A generated program executes a few hundred IR
instructions and each pc about once, so the workload is compile- and
bind-bound: the opposite use of the interpreter from ``paper``, with the
simulated cache idle (cycle accounting is off in the runner).

Cells are checked against the planted-violation properties and against the
static predictor, whose verdicts are computed after the timed phase.
"""

from __future__ import annotations

import gc

from dataclasses import dataclass

from repro.analysis.detector import analyze_module
from repro.common.errors import CompilationError
from repro.difftest.generator import generate_program
from repro.difftest.oracle import classify_results
from repro.difftest.runner import DEFAULT_BUDGET, DifferentialRunner, ProgramResult
from repro.interp.artifact import ARTIFACTS, get_artifact
from repro.interp.machine import AbstractMachine, scrub_trap
from repro.interp.models import PAPER_MODEL_ORDER, get_model
from repro.minic.irgen import compile_unit
from repro.minic.optimizer import optimize_module
from repro.minic.parser import parse
from repro.staticcheck.predict import predict_source_report

from perfbench import checks

#: generated programs per round (indices 0..PROGRAMS-1 of the seed's corpus).
PROGRAMS = 40


@dataclass(frozen=True)
class Cell:
    category: str
    instructions: int
    allocations: int


@dataclass
class Inputs:
    items: list
    runner: DifferentialRunner
    #: pointer layout -> the models sharing it, in the runner's order.
    layouts: dict


def generate(seed: int, tracer) -> list:
    with tracer.span("difftest.generate_s"):
        programs = [generate_program(seed, index) for index in range(PROGRAMS)]
        for program in programs:
            program.source  # rendered here, not in the timed phase
    return programs


def model_layouts() -> dict:
    """Pointer layout -> the models sharing it, in model order (the grouping
    the runner and the predictor both make)."""
    layouts: dict = {}
    for name in PAPER_MODEL_ORDER:
        model = get_model(name)
        layouts.setdefault((model.pointer_bytes, model.pointer_align), []).append(name)
    return layouts


def setup(seed: int, tracer) -> Inputs:
    return Inputs(items=generate(seed, tracer), runner=DifferentialRunner(),
                  layouts=model_layouts())


def _cells(program, result: ProgramResult, classification: dict) -> dict:
    records = {}
    for model, category in classification.items():
        run = result.results.get(model)
        records[(program.index, model)] = Cell(
            category, run.instructions if run else 0, run.allocations if run else 0)
    return records


def run_round(inputs: Inputs, items) -> dict:
    records = {}
    for program, result in zip(items, inputs.runner.sweep(items)):
        records.update(_cells(program, result, classify_results(result)))
    return records


def _replay(program, inputs: Inputs, tracer) -> ProgramResult:
    """:meth:`DifferentialRunner.run_source`, one layer call per span."""
    source = program.source
    out = ProgramResult(source=source)
    try:
        with tracer.span("minic.parse_s"):
            unit, _ = parse(source)
    except CompilationError as exc:
        for names in inputs.layouts.values():
            for name in names:
                out.compile_errors[name] = f"{type(exc).__name__}: {exc}"
        return out
    line_count = source.count("\n") + 1
    for layout, names in inputs.layouts.items():
        try:
            with tracer.span("minic.lower_s"):
                module = compile_unit(unit, pointer_bytes=layout[0],
                                      pointer_align=layout[1], source_name=program.name,
                                      source_line_count=line_count)
            with tracer.span("minic.optimize_s"):
                optimize_module(module)
        except CompilationError as exc:
            for name in names:
                out.compile_errors[name] = f"{type(exc).__name__}: {exc}"
            continue
        functions = [function for function in module.functions.values()
                     if function.instrs]
        tracer.count("minic.ir_instrs", sum(len(f.instrs) for f in functions))
        if layout[0] == 8 and out.analysis is None:
            with tracer.span("analysis.analyze_s"):
                out.analysis = analyze_module(module)
        for function in functions:
            with tracer.span("interp.artifact_s"):
                get_artifact(function, module.context)
        for name in names:
            with tracer.span("interp.machine_s"):
                machine = AbstractMachine(module, get_model(name),
                                          max_instructions=DEFAULT_BUDGET,
                                          collect_timing=False, shared_blocks=True)
            with tracer.span(f"interp.run_s.{name}"):
                result = machine.run()
            if result.trap is not None:
                scrub_trap(result.trap)
            out.results[name] = result
            tracer.count("interp.instructions", result.instructions)
            tracer.count("interp.allocations", result.allocations)
    return out


def traced_round(inputs: Inputs, tracer) -> dict:
    """The round replayed from outside the runner, with the same batched
    young-generation collections :meth:`DifferentialRunner.sweep` makes."""
    artifacts_before = ARTIFACTS.stats()
    records = {}
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        for position, program in enumerate(inputs.items):
            result = _replay(program, inputs, tracer)
            with tracer.span("difftest.classify_s"):
                classification = classify_results(result)
            records.update(_cells(program, result, classification))
            if was_enabled and (position + 1) % DifferentialRunner.GC_BATCH == 0:
                gc.collect(1)
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()
    artifacts_after = ARTIFACTS.stats()
    tracer.count("interp.artifact_hits", artifacts_after["hits"] - artifacts_before["hits"])
    tracer.count("interp.artifact_misses",
                 artifacts_after["misses"] - artifacts_before["misses"])
    return records


def units(records: dict) -> int:
    """Classified (program, model) cells."""
    return len(records)


def reference(inputs: Inputs, workdir) -> dict:
    """program index -> static verdicts (the second engine)."""
    return {program.index: predict_source_report(program.source).verdicts
            for program in inputs.items}


def failure(key, cell: Cell, inputs: Inputs, verdicts: dict) -> str | None:
    index, model = key
    features = inputs.items[index].features
    return (checks.property_failure(model, cell.category, features)
            or checks.crossval_failure(verdicts[index][model], cell.category))
