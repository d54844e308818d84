"""``ssta``: statistical timing of a seeded random design — canonical
first-order delay forms and Clark's max
(:func:`repro.sta.ssta.analyze_ssta`), with an optional Monte-Carlo
cross-check against the documented 1 %/5 % tolerances."""

from __future__ import annotations

from typing import Any, Dict

from repro.ops import Context, Op, Param, format_ns
from repro.ops.sta import DESIGN_PARAMS, build_design, print_design

PARAMS = DESIGN_PARAMS + (
    Param("rsigma", float, 0.08, minimum=0.0, maximum=0.5,
          help="relative sigma of every resistance (default 0.08)"),
    Param("csigma", float, 0.08, minimum=0.0, maximum=0.5,
          help="relative sigma of every capacitance (default 0.08)"),
    Param("cell_sigma", float, 0.05, minimum=0.0, maximum=0.5,
          help="relative sigma of every gate stage delay (default 0.05)"),
    Param("correlation", float, 0.5, minimum=0.0, maximum=1.0,
          help="shared (chip-wide) fraction of each variance, in [0, 1] "
               "(default 0.5)"),
    Param("required", float, None, minimum=0.0,
          help="required arrival time in seconds: print parametric yield "
               "and P(slack<0)"),
    Param("samples", int, 0, minimum=0, maximum=100_000,
          help="Monte-Carlo oracle samples for the cross-check (0 = skip; "
               "exits 1 if outside the 1%%/5%% tolerances)"),
    Param("mc_seed", int, 0, minimum=0, maximum=2**32 - 1,
          help="Monte-Carlo oracle seed (default 0)"),
)


def run(params, ctx: Context) -> Dict[str, Any]:
    """Critical and per-output delay distributions, optional yield at
    ``required`` and the optional Monte-Carlo cross-check."""
    from repro.core.variation import VariationModel
    from repro.sta.ssta import (
        ProcessModel,
        analyze_ssta,
        validate_against_monte_carlo,
    )

    design, stanza = build_design(params)
    model = ProcessModel(
        variation=VariationModel(
            resistance_sigma=params.rsigma, capacitance_sigma=params.csigma
        ),
        rho_r=params.correlation, rho_c=params.correlation,
        cell_sigma=params.cell_sigma, rho_cell=params.correlation,
    )
    report = analyze_ssta(design, model, jobs=ctx.jobs, backend=ctx.backend,
                          checkpoint_path=ctx.checkpoint, resume=ctx.resume)
    response: Dict[str, Any] = {
        "design": stanza,
        "model": {
            "rsigma": params.rsigma,
            "csigma": params.csigma,
            "cell_sigma": params.cell_sigma,
            "correlation": params.correlation,
        },
        "units": "seconds",
        "critical": {
            "mean": float(report.critical.mu),
            "sigma": float(report.critical.sigma),
            "corners": {
                f"{level:g}s": float(value)
                for level, value in report.sigma_corners(
                    (1.0, 2.0, 3.0)
                ).items()
            },
        },
        "outputs": {
            port: {
                "mean": float(form.mu),
                "sigma": float(form.sigma),
                "criticality": float(report.criticality[port]),
            }
            for port, form in report.outputs.items()
        },
    }
    if params.required is not None:
        response["required"] = params.required
        response["yield"] = float(report.yield_at(params.required))
        response["fail_probability"] = float(
            report.fail_probability(params.required)
        )
    if params.samples > 0:
        validation = validate_against_monte_carlo(
            design, model, report=report, samples=params.samples,
            seed=params.mc_seed, jobs=ctx.jobs, backend=ctx.backend,
        )
        response["monte_carlo"] = {
            "samples": params.samples,
            "max_mean_rel_err": float(validation.max_mean_rel_err),
            "max_sigma_rel_err": float(validation.max_sigma_rel_err),
            "within_tolerance": bool(validation.within(0.01, 0.05)),
        }
    return response


def render(result: Dict[str, Any], ctx: Context) -> int:
    """Critical distribution, corners, the per-output table, yield and
    the Monte-Carlo verdict; exit 1 outside the tolerances."""
    print_design(result["design"], ctx)
    critical, model = result["critical"], result["model"]
    print(
        f"critical delay: mu {format_ns(critical['mean'])} ns, "
        f"sigma {format_ns(critical['sigma'])} ns "
        f"(rsigma {model['rsigma']:g}, csigma {model['csigma']:g}, "
        f"cell {model['cell_sigma']:g}, rho {model['correlation']:g})"
    )
    print("sigma corners:" + "".join(
        f"  +{level} {format_ns(value)}"
        for level, value in critical["corners"].items()
    ) + "   (ns)")
    print(f"{'output':>12} {'mu':>9} {'sigma':>9} {'+3s':>9} "
          f"{'crit%':>6}   (ns)")
    for port, form in result["outputs"].items():
        print(
            f"{port:>12} {format_ns(form['mean']):>9} "
            f"{format_ns(form['sigma']):>9} "
            f"{format_ns(form['mean'] + 3.0 * form['sigma']):>9} "
            f"{100.0 * form['criticality']:>5.1f}%"
        )
    if "required" in result:
        print(
            f"required {format_ns(result['required'])} ns: "
            f"yield {100.0 * result['yield']:.2f}%, "
            f"P(slack<0) {result['fail_probability']:.4f}"
        )
    mc = result.get("monte_carlo")
    if mc is not None:
        print(
            f"monte-carlo oracle ({mc['samples']} samples): "
            f"max mean err {100.0 * mc['max_mean_rel_err']:.3f}% "
            f"(tol 1%), max sigma err "
            f"{100.0 * mc['max_sigma_rel_err']:.3f}% (tol 5%)"
        )
        if not mc["within_tolerance"]:
            print("WARNING: canonical model outside documented tolerances")
            return 1
    return 0


OP = Op("ssta", "statistical STA (canonical forms + Clark max) on a seeded "
                "random design, with optional Monte-Carlo cross-check",
        PARAMS, run, render)
