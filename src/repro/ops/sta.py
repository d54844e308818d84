"""``sta``: time a seeded random gate-level design
(:func:`repro.sta.timing.analyze`); :mod:`repro.ops.ssta` shares its
design parameters and banner."""

from __future__ import annotations

from typing import Any, Dict

from repro.ops import Context, Op, Param, format_ns

#: ``layers``/``width``/``seed`` of :func:`repro.workloads.random_design`.
DESIGN_PARAMS = (
    Param("layers", int, 6, minimum=1, maximum=64,
          help="logic depth of the generated design (default 6)"),
    Param("width", int, 15, minimum=1, maximum=256,
          help="gates per layer (default 15)"),
    Param("seed", int, 3, minimum=0, maximum=2**32 - 1,
          help="design-generator seed (default 3)"),
)

#: Keys of :data:`repro.sta.timing.DELAY_MODELS`, spelled out so that
#: importing the registry stays free of the timing engine.
DELAY_MODEL_NAMES = ("elmore", "exact", "ln2_elmore", "lower_bound",
                     "lognormal", "d2m", "two_pole", "awe4")

PARAMS = DESIGN_PARAMS + (
    Param("delay_model", str, "elmore", choices=DELAY_MODEL_NAMES,
          help="interconnect delay model: "
               + ", ".join(DELAY_MODEL_NAMES) + " (default elmore)"),
)


def build_design(params):
    """The seeded random design and its ``design`` response stanza."""
    from repro.workloads import random_design

    design = random_design(
        layers=params.layers, width=params.width, seed=params.seed
    )
    return design, {
        "layers": params.layers, "width": params.width, "seed": params.seed,
        "gates": len(design.instances), "nets": len(design.nets),
    }


def print_design(design: Dict[str, Any], ctx: Context) -> None:
    """The ``design: ...`` banner line of ``sta`` and ``ssta``."""
    sharded = f", {ctx.jobs} jobs" if ctx.jobs is not None else ""
    print(
        f"design: {design['layers']}x{design['width']} random "
        f"combinational (seed {design['seed']}): {design['gates']} "
        f"gates, {design['nets']} nets{sharded}"
    )


def run(params, ctx: Context) -> Dict[str, Any]:
    """Critical output, delay and path of the generated design."""
    from repro.sta import analyze

    design, stanza = build_design(params)
    result = analyze(design, delay_model=params.delay_model,
                     jobs=ctx.jobs, backend=ctx.backend,
                     checkpoint_path=ctx.checkpoint, resume=ctx.resume)
    return {
        "design": stanza,
        "delay_model": params.delay_model,
        "critical_output": result.critical_output,
        "critical_delay": float(result.critical_delay),
        "units": "seconds",
        "critical_path": [
            {"kind": element.kind, "name": element.name,
             "delay": float(element.delay),
             "arrival": float(element.arrival)}
            for element in result.critical_path()
        ],
    }


def render(result: Dict[str, Any], ctx: Context) -> int:
    """Design banner, critical delay and the critical-path table."""
    print_design(result["design"], ctx)
    model = result["delay_model"]
    note = "certified Elmore upper bound" if model == "elmore" \
        else f"{model} delay model"
    print(f"critical output: {result['critical_output']}   "
          f"delay {format_ns(result['critical_delay'])} ns ({note})")
    print(f"{'stage':>6} {'kind':>5} {'name':>12} {'delay':>9} "
          f"{'arrival':>9}   (ns)")
    for k, element in enumerate(result["critical_path"]):
        print(
            f"{k:>6} {element['kind']:>5} {element['name']:>12} "
            f"{format_ns(element['delay']):>9} "
            f"{format_ns(element['arrival']):>9}"
        )
    return 0


OP = Op("sta", "static timing on a seeded random gate-level design "
               "(Elmore model by default)", PARAMS, run, render)
