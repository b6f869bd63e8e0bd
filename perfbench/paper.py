"""``paper`` workload: the seven programs behind Figures 1-4 under all seven models.

A round is 49 operations, one per (program, model) pair, each compiled and
run exactly as :func:`repro.workloads.harness.run_workload` does it (cycle
accounting on).  The workload is execution-bound, so it moves with the
interpreter, the simulated cache, the shadow table and the heap, and hardly
with the front end.  Its inputs are the figures' fixed problem sizes; the
seed only picks which pairs the single-round determinism re-check repeats.

Outputs are checked against the same C built natively (:mod:`perfbench.native`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import InterpreterError
from repro.interp.artifact import ARTIFACTS, get_artifact
from repro.interp.machine import AbstractMachine
from repro.interp.models import PAPER_MODEL_ORDER, get_model
from repro.minic.irgen import compile_unit
from repro.minic.optimizer import optimize_module
from repro.minic.parser import parse
from repro.minic.typesys import TypeContext
from repro.workloads import dhrystone, tcpdump, zlib_like
from repro.workloads.harness import run_workload
from repro.workloads.olden import KERNELS

from perfbench import native

#: ``run_workload``'s default instruction budget, used by the traced replay.
MAX_INSTRUCTIONS = 80_000_000


@dataclass(frozen=True)
class Item:
    """One operation: ``program`` under ``model``, from ``variant``'s source."""

    program: str
    model: str
    variant: str


@dataclass(frozen=True)
class Run:
    """The observables of one run (compared across rounds and with gcc)."""

    exit_code: int | None
    output: bytes
    checkpoints: tuple[int, ...]
    trap: str | None
    instructions: int
    allocations: int
    cycles: int
    memory_accesses: int


@dataclass
class Inputs:
    items: list[Item]
    #: variant name -> C source (tcpdump has a ``cheri_v2`` port).
    sources: dict[str, str]


def setup(seed: int, tracer) -> Inputs:
    sources = {name: module.source() for name, module in KERNELS.items()}
    sources["dhrystone"] = dhrystone.source()
    sources["tcpdump"] = tcpdump.baseline_source()
    sources["tcpdump.cheri_v2"] = tcpdump.cheri_v2_source()
    sources["zlib_like"] = zlib_like.source()
    programs = [name for name in sources if name != "tcpdump.cheri_v2"]
    items = [Item(program, model,
                  "tcpdump.cheri_v2" if (program, model) == ("tcpdump", "cheri_v2")
                  else program)
             for program in programs for model in PAPER_MODEL_ORDER]
    return Inputs(items=items, sources=sources)


def _observe(result) -> Run:
    return Run(result.exit_code, result.output, tuple(result.checkpoints),
               None if result.trap is None else str(result.trap),
               result.instructions, result.allocations, result.cycles,
               result.memory_accesses)


def run_round(inputs: Inputs, items) -> dict:
    records = {}
    for item in items:
        try:
            result = run_workload(item.program, inputs.sources[item.variant],
                                  item.model).result
        except InterpreterError as exc:
            records[item] = Run(None, b"", (), str(exc), 0, 0, 0, 0)
            continue
        records[item] = _observe(result)
    return records


def traced_round(inputs: Inputs, tracer) -> dict:
    """``run_workload`` replayed step by step, binding forced before ``run``."""
    artifacts_before = ARTIFACTS.stats()
    records = {}
    for item in inputs.items:
        source = inputs.sources[item.variant]
        model = get_model(item.model)
        ctx = TypeContext(pointer_bytes=model.pointer_bytes,
                          pointer_align=model.pointer_align)
        with tracer.span("minic.parse_s"):
            unit, ctx = parse(source, context=ctx)
        with tracer.span("minic.lower_s"):
            module = compile_unit(unit, context=ctx, source_name="<memory>",
                                  source_line_count=source.count("\n") + 1)
        with tracer.span("minic.optimize_s"):
            optimize_module(module)
        functions = [function for function in module.functions.values()
                     if function.instrs]
        tracer.count("minic.ir_instrs", sum(len(f.instrs) for f in functions))
        for function in functions:
            with tracer.span("interp.artifact_s"):
                get_artifact(function, module.context)
        with tracer.span("interp.machine_s"):
            machine = AbstractMachine(module, get_model(item.model),
                                      max_instructions=MAX_INSTRUCTIONS)
        with tracer.span("interp.bind_s"):
            for function in functions:
                machine._code_for(function)
        with tracer.span(f"interp.run_s.{item.model}"):
            result = machine.run()
        run = _observe(result)
        records[item] = run
        tracer.count("interp.instructions", run.instructions)
        tracer.count("interp.allocations", run.allocations)
        tracer.count("sim.cycles", run.cycles)
        tracer.count("sim.memory_accesses", run.memory_accesses)
    artifacts_after = ARTIFACTS.stats()
    tracer.count("interp.artifact_hits", artifacts_after["hits"] - artifacts_before["hits"])
    tracer.count("interp.artifact_misses",
                 artifacts_after["misses"] - artifacts_before["misses"])
    return records


def units(records: dict) -> int:
    """IR instructions executed."""
    return sum(run.instructions for run in records.values())


def reference(inputs: Inputs, workdir: Path) -> dict:
    """variant -> :class:`~perfbench.native.NativeRun`."""
    return {variant: native.build_and_run(variant.replace(".", "_"), source, workdir)
            for variant, source in inputs.sources.items()}


def failure(item: Item, run: Run, inputs: Inputs, natives: dict) -> str | None:
    return native.failure(run.exit_code, run.output, run.checkpoints, run.trap,
                          natives[item.variant])
