"""``predict`` workload: generated programs through the static predictor.

A round sends the seed's :data:`~perfbench.sweep.PROGRAMS` generated
programs through :func:`predict_source_report`; an operation is one
predicted program.  About two thirds of the time is the front end and one
third the abstract walk; the interpreter is not involved, so an ``interp``
change must leave this workload unmoved.

Verdicts are checked against the planted-violation properties and against
the dynamic oracle (the second engine), run after the timed phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import CompilationError
from repro.difftest.oracle import BASELINE, classify_results
from repro.difftest.runner import DEFAULT_BUDGET, DifferentialRunner
from repro.interp.models import PAPER_MODEL_ORDER
from repro.minic.irgen import compile_unit
from repro.minic.optimizer import optimize_module
from repro.minic.parser import parse
from repro.staticcheck import predict as predictor
from repro.staticcheck.absint import Walk
from repro.staticcheck.domain import Bail, ModelOutcome, WalkOutcome

from perfbench import checks
from perfbench.sweep import generate, model_layouts


@dataclass(frozen=True)
class Prediction:
    #: (model, verdict) in the report's order.
    verdicts: tuple
    #: ((pointer layout, mirrored instruction count), ...) sorted by layout.
    steps: tuple


@dataclass
class Inputs:
    items: list
    #: pointer layout -> models in model order.  The baseline is the first
    #: model, so this is both the predictor's walk order and its report order.
    layouts: dict


def setup(seed: int, tracer) -> Inputs:
    return Inputs(items=generate(seed, tracer), layouts=model_layouts())


def run_round(inputs: Inputs, items) -> dict:
    records = {}
    for program in items:
        report = predictor.predict_source_report(program.source)
        records[program.index] = Prediction(tuple(report.verdicts.items()),
                                             tuple(sorted(report.steps.items())))
    return records


def _replay(source: str, inputs: Inputs, tracer) -> Prediction:
    """:func:`predict_source_report`, one layer call per span."""
    try:
        with tracer.span("minic.parse_s"):
            unit, _ = parse(source)
    except CompilationError:
        return Prediction(tuple((name, "error:compile") for name in PAPER_MODEL_ORDER), ())
    line_count = source.count("\n") + 1
    walks: dict = {}
    for layout, names in inputs.layouts.items():
        try:
            with tracer.span("minic.lower_s"):
                module = compile_unit(unit, pointer_bytes=layout[0],
                                      pointer_align=layout[1], source_name="<staticcheck>",
                                      source_line_count=line_count)
            with tracer.span("minic.optimize_s"):
                optimize_module(module)
        except CompilationError:
            walks[layout] = None
            continue
        tracer.count("minic.ir_instrs",
                     sum(len(f.instrs) for f in module.functions.values()))
        with tracer.span("staticcheck.walk_s"):
            try:
                outcome = Walk(module, tuple(names), budget=DEFAULT_BUDGET).run()
            except Bail as exc:
                outcome = WalkOutcome(outcomes={name: ModelOutcome("bail") for name in names},
                                      bail_reason=exc.reason)
        walks[layout] = outcome
        tracer.count("staticcheck.steps", outcome.steps)
    base_layout = next(iter(inputs.layouts))
    base_walk = walks[base_layout]
    base_outcome = base_walk.outcomes.get(BASELINE) if base_walk is not None else None
    verdicts = []
    for layout, names in inputs.layouts.items():
        walk = walks[layout]
        for name in names:
            if walk is None:
                verdicts.append((name, "error:compile"))
                continue
            verdicts.append((name, predictor._verdict(
                walk.outcomes[name], walk, base_outcome, base_walk,
                is_baseline=name == BASELINE)))
    steps = tuple(sorted((layout, walk.steps) for layout, walk in walks.items()
                         if walk is not None))
    return Prediction(tuple(verdicts), steps)


def traced_round(inputs: Inputs, tracer) -> dict:
    return {program.index: _replay(program.source, inputs, tracer)
            for program in inputs.items}


def units(records: dict) -> int:
    """Predicted programs."""
    return len(records)


def reference(inputs: Inputs, workdir) -> dict:
    """program index -> dynamic cells (the second engine)."""
    results = DifferentialRunner().sweep(inputs.items)
    return {program.index: classify_results(result)
            for program, result in zip(inputs.items, results)}


def failure(index: int, prediction: Prediction, inputs: Inputs, cells: dict) -> str | None:
    features = inputs.items[index].features
    for model, verdict in prediction.verdicts:
        reason = (checks.property_failure(model, verdict, features)
                  or checks.crossval_failure(verdict, cells[index][model]))
        if reason is not None:
            return reason
    return None
