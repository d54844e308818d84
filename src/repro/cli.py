"""Command-line interface: bound analysis of SPICE RC-tree netlists.

Usage::

    python -m repro analyze NETLIST.sp [--nodes n5,n7] [--signal ramp:2ns]
    python -m repro verify NETLIST.sp [--nodes n5,n7] [--jobs 4]
    python -m repro waveform NETLIST.sp NODE [--signal ramp:2ns]
                                             [--csv out.csv]
    python -m repro stats NETLIST.sp [--samples 2000] [--jobs 4]
    python -m repro sta [--layers 6 --width 15] [--delay-model elmore]
    python -m repro ssta [--layers 6 --width 15] [--samples 2000]
    python -m repro serve [--port 8080] [--jobs 8 --backend shm]
    python -m repro table1
    python -m repro table2
    python -m repro report RUN_REPORT.json

``analyze`` prints, per node, the measured 50% delay plus every bound the
library implements.  ``verify`` checks the paper's claims (Lemmas 1-2,
Theorem, Corollary 1) numerically on the given circuit.  ``waveform``
renders the exact output waveform as ASCII art (and optionally CSV).
``sta`` times a seeded random gate-level design (Elmore model by
default) and ``ssta`` times it statistically.  ``verify``, ``sta`` and
``ssta`` are generated from the operation registry (:mod:`repro.ops`),
which also generates their HTTP routes.  ``serve`` runs the long-lived
HTTP JSON service (``/v1/stats`` with request coalescing,
``/v1/verify``, ``/v1/sta``, ``/v1/ssta``, plus ``/healthz`` and
``/metrics``; see ``docs/serving.md``).  ``table1`` and ``table2``
regenerate the paper's tables from the reconstructed circuits.

``stats``, ``verify``, ``sta`` and ``ssta`` accept ``--jobs/-j N`` to
fan their sweep out over N worker processes through the sharded engine
(:mod:`repro.parallel`); results are bit-identical to ``--jobs 1`` for
the same seed, and the run degrades to in-process execution if workers
cannot be spawned.

Every subcommand additionally accepts the observability flags:

* ``--trace`` — record spans and print the span tree to stderr;
* ``--trace-out FILE`` — write the full JSON run report (implies
  ``--trace``); pretty-print it later with ``repro report FILE``;
* ``--metrics-out FILE`` — dump the metrics registry (Prometheus text
  when FILE ends in ``.prom``, JSON otherwise);
* ``--metrics-port PORT`` — serve live ``/metrics`` (Prometheus text),
  ``/healthz``, and ``/spans`` on localhost for the duration of the
  command (``0`` picks a free port, reported on stdout; a taken port
  is a clean one-line error, never a traceback);
* ``-v/--verbose`` — log to stderr (``-v`` INFO, ``-vv`` DEBUG, the
  level at which span boundaries are logged).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from functools import partial
from typing import List, Optional

from repro import obs
from repro._exceptions import ReproError, ValidationError
from repro.analysis import ExactAnalysis, measure_delay
from repro.circuit import read_rc_tree
from repro.core import prh_bounds, transfer_moments
from repro.ops import OPS, Context, Param
from repro.ops import format_ns as _format_ns
from repro.signals import SaturatedRamp, Signal, StepInput
from repro.signals.spec import parse_time_spec as _parse_time_spec
from repro.signals.spec import signal_from_spec

__all__ = ["main", "parse_signal_spec", "parse_time_spec"]

logger = logging.getLogger(__name__)

# Both parsers live in repro.signals.spec now, shared verbatim with the
# HTTP service's "signal" request field; re-exported here because they
# have always been part of the CLI module's public surface.
parse_time_spec = _parse_time_spec


def parse_signal_spec(spec: str) -> Signal:
    """Parse a ``kind[:param]`` signal spec, e.g. ``ramp:2ns``.

    Kinds: ``step``, ``ramp`` (saturated), ``cosine`` (raised cosine),
    ``smoothstep``, ``exp`` (exponential; the parameter is ``tau``).
    Wraps :func:`repro.signals.spec.signal_from_spec`, surfacing
    validation failures as clean argparse usage errors — never a
    traceback.
    """
    try:
        return signal_from_spec(spec)
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _arg_type(param: Param):
    """argparse ``type=`` for ``param``: :meth:`Param.parse_text` with
    its validation message reported as a usage error (exit 2)."""

    def parse(token: str):
        try:
            return param.parse_text(token, param.flag)
        except ValidationError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _int_arg(label: str, minimum: Optional[int] = None):
    """argparse ``type=`` for an integer flag that is no op parameter."""
    return _arg_type(Param(label[2:], int, minimum=minimum))


def _float_arg(label: str, minimum: Optional[float] = None):
    """argparse ``type=`` for a float flag that is no op parameter."""
    return _arg_type(Param(label[2:], float, minimum=minimum))


def _cmd_analyze(args) -> int:
    tree, _ = read_rc_tree(args.netlist)
    signal = args.signal
    nodes = args.nodes.split(",") if args.nodes else list(tree.node_names)
    for node in nodes:
        if node not in tree:
            print(f"error: node {node!r} not in netlist", file=sys.stderr)
            return 2

    analysis = ExactAnalysis(tree)
    moments = transfer_moments(tree, 3)
    from repro.core import delay_bounds
    prh = prh_bounds(tree) if isinstance(signal, StepInput) else None

    header = f"{'node':>10} {'delay':>9} {'elmore':>9} {'lower':>9}"
    if prh is not None:
        header += f" {'prh_min':>9} {'prh_max':>9}"
    print(f"input: {signal.describe()}   (times in ns)")
    print(header)
    for node in nodes:
        delay = measure_delay(analysis, node, signal)
        bounds = delay_bounds(tree, node, signal=signal, moments=moments)
        line = (
            f"{node:>10} {_format_ns(delay):>9} "
            f"{_format_ns(bounds.upper):>9} {_format_ns(bounds.lower):>9}"
        )
        if prh is not None:
            tmin, tmax = prh[node].delay_interval(0.5)
            line += f" {_format_ns(tmin):>9} {_format_ns(tmax):>9}"
        print(line)
    return 0


def _cmd_waveform(args) -> int:
    import numpy as np

    tree, _ = read_rc_tree(args.netlist)
    if args.node not in tree:
        print(f"error: node {args.node!r} not in netlist", file=sys.stderr)
        return 2
    signal = args.signal
    analysis = ExactAnalysis(tree)
    transfer = analysis.transfer(args.node)
    horizon = max(signal.settle_time, 0.0) + transfer.settle_time(1e-6)
    t = np.linspace(0.0, horizon, args.points)
    vin = signal.value(t)
    vout = transfer.response(signal, t)

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write("time_s,input_v,output_v\n")
            for row in zip(t, vin, vout):
                handle.write(f"{row[0]:.9e},{row[1]:.9e},{row[2]:.9e}\n")
        print(f"wrote {args.points} samples to {args.csv}")

    # ASCII rendering: 'i' = input, 'o' = output, 'x' = both.
    width, height = 72, 18
    print(f"waveform at {args.node} ({signal.describe()}); "
          f"horizon {horizon / 1e-9:.3g} ns")
    columns = np.linspace(0, t.size - 1, width).astype(int)
    grid = [[" "] * width for _ in range(height)]
    for col, idx in enumerate(columns):
        for value, mark in ((vin[idx], "i"), (vout[idx], "o")):
            row = height - 1 - int(
                np.clip(round(value * (height - 1)), 0, height - 1)
            )
            grid[row][col] = "x" if grid[row][col] not in (" ", mark) \
                else mark
    for row in grid:
        print("|" + "".join(row) + "|")
    print("+" + "-" * width + "+")
    delay = measure_delay(analysis, args.node, signal)
    print(f"50% delay (from input midpoint): {delay / 1e-9:.4g} ns")
    return 0


def _cmd_stats(args) -> int:
    from repro.core.variation import VariationModel, elmore_statistics

    tree, _ = read_rc_tree(args.netlist)
    nodes = args.nodes.split(",") if args.nodes else list(tree.node_names)
    for node in nodes:
        if node not in tree:
            print(f"error: node {node!r} not in netlist", file=sys.stderr)
            return 2
    model = VariationModel(
        resistance_sigma=args.rsigma, capacitance_sigma=args.csigma
    )
    mc = None
    if args.samples > 0:
        # One sharded sweep evaluates every node for every sample; the
        # rows are bit-identical for any --jobs and any --backend.
        from repro.core.variation import monte_carlo_delay_matrix

        mc = monte_carlo_delay_matrix(
            tree, model, args.samples, seed=args.seed, jobs=args.jobs,
            backend=args.backend, checkpoint_path=args.checkpoint,
            resume=args.resume,
        )
    print(f"variation: R +-{args.rsigma * 100:.0f}%  "
          f"C +-{args.csigma * 100:.0f}%   (times in ns)")
    header = f"{'node':>10} {'nominal':>9} {'std':>9} {'3-sigma':>9}"
    if mc is not None:
        header += f" {'mc-p50':>9} {'mc-p99':>9}"
        print(f"monte carlo: {args.samples} batched samples "
              f"(seed {args.seed})")
    print(header)
    for node in nodes:
        stats = elmore_statistics(tree, node, model)
        line = (
            f"{node:>10} {_format_ns(stats.mean):>9} "
            f"{_format_ns(stats.std):>9} "
            f"{_format_ns(stats.quantile_bound(3.0)):>9}"
        )
        if mc is not None:
            import numpy as np

            column = mc[:, tree.index_of(node)]
            line += (
                f" {_format_ns(float(np.quantile(column, 0.5))):>9}"
                f" {_format_ns(float(np.quantile(column, 0.99))):>9}"
            )
        print(line)
    return 0


def _run_op(op, args) -> int:
    """Run a registry op (:mod:`repro.ops`) and print its result."""
    try:
        params = op.from_cli(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ctx = Context(jobs=args.jobs, backend=args.backend,
                  checkpoint=args.checkpoint, resume=args.resume)
    return op.render(op.run(params, ctx), ctx)


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    backend = None if args.backend in (None, "auto") else args.backend
    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        backend=backend,
        batch_window=args.batch_window / 1e3,
        max_queue=args.max_queue,
        deadline=args.deadline,
        drain_timeout=args.drain_timeout,
        coalesce=not args.no_coalesce,
        watchdog=args.watchdog,
    )
    return run_server(config)


def _cmd_table1(_args) -> int:
    from repro.workloads import FIG1_PROBES, fig1_tree
    tree = fig1_tree()
    analysis = ExactAnalysis(tree)
    moments = transfer_moments(tree, 2)
    print(f"{'node':>6} {'actual':>8} {'elmore':>8} {'lower':>8} "
          f"{'ln2*TD':>8} {'t_max':>8} {'t_min':>8}   (ns)")
    prh = prh_bounds(tree)
    for node in FIG1_PROBES:
        actual = measure_delay(analysis, node)
        td = moments.mean(node)
        lower = max(td - moments.sigma(node), 0.0)
        tmin, tmax = prh[node].delay_interval(0.5)
        print(
            f"{node:>6} {_format_ns(actual):>8} {_format_ns(td):>8} "
            f"{_format_ns(lower):>8} {_format_ns(math.log(2) * td):>8} "
            f"{_format_ns(tmax):>8} {_format_ns(tmin):>8}"
        )
    return 0


def _cmd_table2(_args) -> int:
    from repro.workloads import TABLE2_RISE_TIMES, TREE25_PROBES, tree25
    tree = tree25()
    analysis = ExactAnalysis(tree)
    moments = transfer_moments(tree, 1)
    print(f"{'node':>6} {'elmore':>8}", end="")
    for rise in TABLE2_RISE_TIMES:
        print(f" {'d@' + _format_ns(rise) + 'ns':>10} {'%err':>7}", end="")
    print("   (ns)")
    for probe, node in TREE25_PROBES.items():
        td = moments.mean(node)
        print(f"{probe:>6} {_format_ns(td):>8}", end="")
        for rise in TABLE2_RISE_TIMES:
            delay = measure_delay(analysis, node, SaturatedRamp(rise))
            err = abs((delay - td) / delay) * 100
            print(f" {_format_ns(delay):>10} {err:6.1f}%", end="")
        print()
    return 0


def _cmd_report(args) -> int:
    print(obs.render_report(obs.load_report(args.report)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Elmore delay bounds for RC trees "
                    "(Gupta/Tutuianu/Pileggi reproduction)",
    )
    # Observability flags shared by every subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace", action="store_true",
        help="record spans and print the span tree to stderr",
    )
    common.add_argument(
        "--trace-out", default="", metavar="FILE",
        help="write the JSON run report to FILE (implies --trace); "
             "pretty-print it later with 'repro report FILE'",
    )
    common.add_argument(
        "--metrics-out", default="", metavar="FILE",
        help="dump the metrics registry to FILE (Prometheus text for "
             "*.prom, JSON otherwise)",
    )
    common.add_argument(
        "--metrics-port", type=_int_arg("--metrics-port", minimum=0),
        default=None, metavar="PORT",
        help="serve live /metrics, /healthz and /spans on "
             "localhost:PORT while the command runs (0 = any free "
             "port, printed to stderr)",
    )
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr (-v INFO, -vv DEBUG)",
    )
    common.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="arm the deterministic fault-injection harness for this "
             "run: SPEC is 'point[:k=v,...][;point...]', e.g. "
             "'worker.kill:times=1;shard.slow:p=0.3,delay=0.05' "
             "(see docs/robustness.md for the grammar and fault points)",
    )
    common.add_argument(
        "--fault-seed", type=_int_arg("--fault-seed", minimum=0),
        default=0,
        metavar="N",
        help="seed for the fault schedule's per-point RNG streams "
             "(same seed => same injected faults; default 0)",
    )
    # Sharded-engine flag for the sweep-style subcommands.
    sharded = argparse.ArgumentParser(add_help=False)
    sharded.add_argument(
        "--jobs", "-j", type=_int_arg("--jobs", minimum=0), default=None,
        help="fan the sweep out over this many worker processes via the "
             "sharded engine (results are bit-identical for any value; "
             "default: serial, in-process)",
    )
    sharded.add_argument(
        "--backend", choices=("auto", "serial", "shm"),
        default=None,
        help="sharded-engine transport: 'shm' = warm worker pool fed by "
             "zero-copy shared-memory blocks (falls back to 'serial' "
             "when unavailable); 'serial' = in-process; 'auto' = 'shm' "
             "for --jobs >= 2; results are bit-identical for every "
             "choice (default: auto)",
    )
    sharded.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="journal each completed shard's results to this "
             "append-only crash-safe file (repro.checkpoint/1); a "
             "killed run restarted with --resume skips finished shards "
             "with bit-identical results",
    )
    sharded.add_argument(
        "--resume", action="store_true",
        help="resume from an existing --checkpoint journal (refused "
             "when the journal belongs to a different workload/seed)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", parents=[common],
        help="bound analysis of a SPICE RC-tree netlist",
    )
    analyze.add_argument("netlist", help="path to the netlist file")
    analyze.add_argument(
        "--nodes", default="", help="comma-separated node subset"
    )
    analyze.add_argument(
        "--signal", type=parse_signal_spec, default=StepInput(),
        help="input signal spec: step | ramp:2ns | cosine:1ns | "
             "smoothstep:1ns | exp:500ps",
    )
    analyze.set_defaults(func=_cmd_analyze)

    stats = sub.add_parser(
        "stats", parents=[common, sharded],
        help="Elmore statistics under process variation",
    )
    stats.add_argument("netlist", help="path to the netlist file")
    stats.add_argument(
        "--nodes", default="", help="comma-separated node subset"
    )
    stats.add_argument(
        "--rsigma", type=_float_arg("--rsigma", minimum=0.0), default=0.1,
        help="relative sigma of every resistance (default 0.1)",
    )
    stats.add_argument(
        "--csigma", type=_float_arg("--csigma", minimum=0.0), default=0.1,
        help="relative sigma of every capacitance (default 0.1)",
    )
    stats.add_argument(
        "--samples", type=_int_arg("--samples", minimum=0), default=0,
        help="add Monte-Carlo quantile columns from one sharded sweep "
             "of this many samples (default 0 = analytic only)",
    )
    stats.add_argument(
        "--seed", type=_int_arg("--seed", minimum=0), default=0,
        help="Monte-Carlo seed (default 0)",
    )
    stats.set_defaults(func=_cmd_stats)

    for op in OPS.values():
        op_parser = sub.add_parser(op.name, parents=[common, sharded],
                                   help=op.help)
        for param in op.params:
            if param.positional:
                op_parser.add_argument(param.name, metavar=param.metavar,
                                       help=param.help)
            else:
                op_parser.add_argument(
                    param.flag, dest=param.name, default=param.default,
                    type=None if param.from_cli else _arg_type(param),
                    help=param.help,
                )
        op_parser.set_defaults(func=partial(_run_op, op))

    serve = sub.add_parser(
        "serve", parents=[common, sharded],
        help="run the HTTP JSON service (stats/verify/sta/ssta + "
             "/metrics)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default %(default)s)",
    )
    serve.add_argument(
        "--port", type=_int_arg("--port", minimum=0), default=8080,
        help="port to bind; 0 picks a free port, printed on stdout "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--batch-window", type=_float_arg("--batch-window", minimum=0.0),
        default=2.0, metavar="MS",
        help="milliseconds a fresh batch waits for coalescing "
             "companions before dispatching (default %(default)s)",
    )
    serve.add_argument(
        "--max-queue", type=_int_arg("--max-queue", minimum=1),
        default=256,
        help="pending-request bound; beyond it requests get 429 "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--deadline", type=_float_arg("--deadline", minimum=0.001),
        default=30.0, metavar="SECONDS",
        help="default and maximum per-request deadline "
             "(default %(default)s)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=_float_arg("--drain-timeout", minimum=0.0),
        default=10.0, metavar="SECONDS",
        help="how long shutdown waits for in-flight requests before "
             "failing them with 503 (default %(default)s)",
    )
    serve.add_argument(
        "--watchdog", type=_float_arg("--watchdog", minimum=0.001),
        default=None, metavar="SECONDS",
        help="fail a batch stuck in its sweep for this long with a "
             "retryable 503 and recycle the sweep executor + warm pool "
             "(default: no watchdog)",
    )
    serve.add_argument(
        "--no-coalesce", action="store_true",
        help="dispatch every request as its own sweep (the benchmark "
             "baseline; coalescing is on by default)",
    )
    serve.set_defaults(func=_cmd_serve)

    waveform = sub.add_parser(
        "waveform", parents=[common],
        help="render a node's exact output waveform",
    )
    waveform.add_argument("netlist", help="path to the netlist file")
    waveform.add_argument("node", help="node to observe")
    waveform.add_argument(
        "--signal", type=parse_signal_spec, default=StepInput(),
        help="input signal spec (see 'analyze')",
    )
    waveform.add_argument(
        "--points", type=_int_arg("--points", minimum=2), default=501,
        help="sample count (>= 2)",
    )
    waveform.add_argument("--csv", default="", help="write samples to CSV")
    waveform.set_defaults(func=_cmd_waveform)

    table1 = sub.add_parser(
        "table1", parents=[common],
        help="regenerate the paper's Table I",
    )
    table1.set_defaults(func=_cmd_table1)
    table2 = sub.add_parser(
        "table2", parents=[common],
        help="regenerate the paper's Table II",
    )
    table2.set_defaults(func=_cmd_table2)

    report = sub.add_parser(
        "report", parents=[common],
        help="pretty-print a JSON run report written by --trace-out",
    )
    report.add_argument("report", help="path to the run-report JSON file")
    report.set_defaults(func=_cmd_report)
    return parser


def _seed_of(args) -> Optional[int]:
    seed = getattr(args, "seed", None)
    return int(seed) if seed is not None else None


def _write_metrics(path: str) -> None:
    registry = obs.get_registry()
    if path.endswith(".prom"):
        obs.atomic_write_text(path, registry.to_prometheus_text())
    else:
        obs.atomic_write_text(path, registry.to_json() + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        obs.configure_logging(args.verbose)
    trace_on = bool(args.trace or args.trace_out)
    tracer = obs.get_tracer()
    was_enabled = tracer.enabled
    server = None
    if args.metrics_port is not None:
        from repro.obs.server import start_metrics_server

        server = start_metrics_server(args.metrics_port)
        if server is None:
            # Bind failures (port taken, privileged port) are a clear
            # one-liner, never a traceback; the run itself continues.
            print(
                f"error: cannot serve metrics on "
                f"127.0.0.1:{args.metrics_port} (port already in "
                f"use?); continuing without live metrics",
                file=sys.stderr,
            )
        else:
            # stdout + flush so scripts using --metrics-port 0 can
            # discover the OS-chosen port.
            print(f"metrics server listening on {server.url}",
                  flush=True)
    if trace_on:
        tracer.reset()
        obs.get_registry().reset()
        tracer.enable()
        logger.info("tracing enabled for 'repro %s'", args.command)
    faults_armed = False
    try:
        try:
            if getattr(args, "inject_faults", None):
                # export_env=True so worker processes spawned (not
                # forked) during the run arm the same schedule.
                from repro.resilience.faults import install_faults

                install_faults(args.inject_faults,
                               seed=args.fault_seed, export_env=True)
                faults_armed = True
            with tracer.span(f"repro.{args.command}"):
                code = args.func(args)
        except (FileNotFoundError, IsADirectoryError,
                PermissionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:
            print(f"error: {str(exc) or 'out of memory'}",
                  file=sys.stderr)
            return 1
        finally:
            tracer.enabled = was_enabled
            if faults_armed:
                from repro.resilience.faults import clear_faults

                clear_faults()
        if trace_on:
            if args.trace_out:
                obs.write_report(
                    args.trace_out,
                    command=f"repro {args.command}",
                    seed=_seed_of(args),
                    tracer=tracer,
                )
                print(f"run report written to {args.trace_out}",
                      file=sys.stderr)
            if args.trace:
                print("\n" + obs.render_span_tree(tracer.to_dicts()),
                      file=sys.stderr)
        if args.metrics_out:
            _write_metrics(args.metrics_out)
            print(f"metrics written to {args.metrics_out}",
                  file=sys.stderr)
        return code
    finally:
        if server is not None:
            server.stop()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
