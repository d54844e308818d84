"""``verify``: check the paper's claims (Lemmas 1-2, the Theorem and
Corollary 1) numerically on one RC tree against the transient oracle.
The tree is a netlist path on the command line and a named ``workload``
or inline ``tree`` over HTTP."""

from __future__ import annotations

import sys
from typing import Any, Dict

from repro.ops import Context, Op, Param


def _netlist_tree(path, params):
    """The netlist's tree; the path becomes the response's label."""
    from repro.circuit import read_rc_tree

    tree, _ = read_rc_tree(path)
    params.label = path
    return tree


def _request_tree(payload, params):
    """The ``workload`` or inline ``tree``; the label is the workload
    name or ``inline``."""
    from repro.serve.schemas import _parse_topology

    tree, _key, params.label = _parse_topology(payload)
    return tree


def _request_nodes(payload, params):
    from repro.serve.schemas import _node_subset

    return _node_subset(payload, params.tree)


def _cli_nodes(text, params):
    return None if text is None \
        else _request_nodes({"nodes": text.split(",")}, params)


#: Per-node verdict fields of the response, in order.
NODE_FIELDS = ("all_hold", "unimodal", "nonnegative", "skew_nonnegative",
               "ordering_holds", "upper_bound_holds", "lower_bound_holds",
               "elmore", "lower_bound", "actual_delay")

PARAMS = (
    Param("tree", metavar="netlist", positional=True,
          fields=("workload", "tree"), from_cli=_netlist_tree,
          from_json=_request_tree, help="path to the netlist file"),
    Param("samples", int, 4001, minimum=101, maximum=100_001,
          help="impulse-response samples per grid scale (default 4001)"),
    Param("nodes", from_cli=_cli_nodes, from_json=_request_nodes,
          help="comma-separated node subset (default: every node)"),
)


def run(params, ctx: Context) -> Dict[str, Any]:
    """Theorem-check ``params.tree``
    (:func:`repro.core.verification.verify_tree`)."""
    from repro.core.verification import verify_tree

    verdict = verify_tree(
        params.tree, nodes=params.nodes, samples=params.samples,
        jobs=ctx.jobs, backend=ctx.backend,
        checkpoint_path=ctx.checkpoint, resume=ctx.resume,
    )
    return {
        "workload": params.label,  # recorded by the tree converter
        "samples": params.samples,
        "all_hold": verdict.all_hold,
        "nodes": {
            node.node: {field: getattr(node, field) for field in NODE_FIELDS}
            for node in verdict.nodes
        },
    }


def render(result: Dict[str, Any], ctx: Context) -> int:
    """One verdict line per node; exit 1 when any claim fails."""
    for name, node in result["nodes"].items():
        status = "ok" if node["all_hold"] else "FAIL"
        bounds = node["upper_bound_holds"] and node["lower_bound_holds"]
        print(f"{name:>10}  unimodal={node['unimodal']}  "
              f"gamma>=0={node['skew_nonnegative']}  "
              f"ordering={node['ordering_holds']}  "
              f"bounds={bounds}  [{status}]")
    if result["all_hold"]:
        print("all claims hold")
        return 0
    print("CLAIM VIOLATIONS FOUND", file=sys.stderr)
    return 1


OP = Op("verify", "numerically verify the paper's claims on a netlist",
        PARAMS, run, render)
