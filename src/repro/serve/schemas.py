"""JSON request parsing/validation for the HTTP service.

Every helper here raises :class:`~repro._exceptions.ValidationError`
with a readable message on malformed input; the HTTP layer maps that to
a ``400`` JSON error payload (never a traceback).  Validation is
front-loaded: a request that parses successfully can always be swept,
so one bad request can never poison a coalesced batch.

A stats request names its topology either way:

* ``{"workload": "fig1"}`` — a named workload (``fig1``, ``tree25``,
  or parametric ``balanced:<depth>x<fanout>``); the tree is built once
  and cached, so repeated requests share one compiled topology;
* ``{"tree": {"input": "in", "nodes": [{"name", "parent", "r", "c"},
  ...]}}`` — an inline tree, parents listed before children.

Parameter rows ride along as ``rscale``/``cscale`` (scalar or list of
per-row factors on the nominal element values) or explicit
``resistances``/``capacitances`` (one row or a list of rows, node order
= tree order).  Requests against the same topology — identified by
:func:`topology_key` — coalesce into one ``(B, N)`` sweep regardless of
their parameter rows or input signals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro._exceptions import ReproError, ValidationError
from repro.circuit import RCTree, balanced_tree
from repro.ops import (
    Param,
    reject_unknown_keys,
    require_mapping,
    timeout_seconds,
)
from repro.signals.base import Signal
from repro.signals.spec import signal_from_spec
from repro.signals.step import StepInput

__all__ = [
    "MAX_ROWS_PER_REQUEST",
    "MAX_TREE_NODES",
    "StatsRequest",
    "parse_stats_request",
    "resolve_workload",
    "tree_from_spec",
    "topology_key",
]

#: Upper limit on parameter rows a single request may contribute.
MAX_ROWS_PER_REQUEST = 4096
#: Upper limit on inline-tree (and parametric-workload) node counts.
MAX_TREE_NODES = 65536

# Element values for parametric ``balanced:<depth>x<fanout>`` workloads
# (the bench_parallel clock-tree skeleton).
_BALANCED_R = 25.0
_BALANCED_C = 8e-15
_BALANCED_DRIVER_R = 120.0
_BALANCED_LEAF_C = 4e-15

#: An inline tree node's ``r`` and ``c``.
_ELEMENT_VALUE = Param("element value", float, minimum=0.0)


# ----------------------------------------------------------------------
# Topology sources
# ----------------------------------------------------------------------
@lru_cache(maxsize=32)
def _cached_workload(name: str) -> RCTree:
    if name == "fig1":
        from repro.workloads import fig1_tree

        return fig1_tree()
    if name == "tree25":
        from repro.workloads import tree25

        return tree25()
    if name.startswith("balanced:"):
        spec = name[len("balanced:"):]
        depth_s, sep, fanout_s = spec.partition("x")
        try:
            depth, fanout = int(depth_s), int(fanout_s)
        except ValueError:
            depth = fanout = -1
        if not sep or depth < 1 or fanout < 1:
            raise ValidationError(
                f"cannot parse workload {name!r}: expected "
                "'balanced:<depth>x<fanout>', e.g. 'balanced:9x2'"
            )
        # Accumulate the node count with an early exit at the limit:
        # the closed-form geometric sum over unbounded depth/fanout is
        # big-int exponentiation that would stall the event loop.
        if fanout == 1:
            nodes = depth
        else:
            nodes, term = 0, 1
            for _ in range(depth):
                nodes += term
                if nodes > MAX_TREE_NODES:
                    break
                term *= fanout
        if nodes > MAX_TREE_NODES:
            raise ValidationError(
                f"workload {name!r} exceeds the {MAX_TREE_NODES}-node "
                "limit"
            )
        return balanced_tree(
            depth, fanout, _BALANCED_R, _BALANCED_C,
            driver_resistance=_BALANCED_DRIVER_R, leaf_load=_BALANCED_LEAF_C,
        )
    raise ValidationError(
        f"unknown workload {name!r}; expected 'fig1', 'tree25' or "
        "'balanced:<depth>x<fanout>'"
    )


def resolve_workload(name: str) -> RCTree:
    """The named workload's tree, cached so repeated requests share one
    instance (and therefore one compiled topology)."""
    if not isinstance(name, str) or not name:
        raise ValidationError(
            f"'workload' must be a non-empty string, got {name!r}"
        )
    return _cached_workload(name)


def tree_from_spec(spec: Any) -> RCTree:
    """Build an :class:`RCTree` from an inline JSON tree spec."""
    spec = require_mapping(spec, "'tree'")
    reject_unknown_keys(spec, ("input", "nodes"), "'tree'")
    input_node = spec.get("input", "in")
    if not isinstance(input_node, str) or not input_node:
        raise ValidationError(
            f"tree 'input' must be a non-empty string, got {input_node!r}"
        )
    nodes = spec.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise ValidationError(
            "tree 'nodes' must be a non-empty list of "
            '{"name", "parent", "r", "c"} objects'
        )
    if len(nodes) > MAX_TREE_NODES:
        raise ValidationError(
            f"tree has {len(nodes)} nodes (limit {MAX_TREE_NODES})"
        )
    tree = RCTree(input_node)
    for k, node in enumerate(nodes):
        node = require_mapping(node, f"tree node #{k}")
        reject_unknown_keys(node, ("name", "parent", "r", "c"),
                            f"tree node #{k}")
        name = node.get("name")
        if not isinstance(name, str) or not name:
            raise ValidationError(
                f"tree node #{k}: 'name' must be a non-empty string"
            )
        parent = node.get("parent", input_node)
        if not isinstance(parent, str) or not parent:
            raise ValidationError(
                f"tree node {name!r}: 'parent' must be a node name "
                "(or omitted for a child of the input)"
            )
        r, c = node.get("r"), node.get("c", 0.0)
        if r is None:
            raise ValidationError(f"tree node {name!r}: missing 'r'")
        r = _ELEMENT_VALUE.check(r, "'r'")
        c = 0.0 if c is None else _ELEMENT_VALUE.check(c, "'c'")
        try:
            tree.add_node(name, parent, r, c)
        except ReproError as exc:
            raise ValidationError(f"tree node {name!r}: {exc}") from exc
    try:
        tree.validate()
    except ReproError as exc:
        raise ValidationError(str(exc)) from exc
    return tree


def topology_key(tree: RCTree, origin: Optional[str] = None) -> str:
    """Coalescing key: requests with equal keys share one compiled
    topology (same input name, node names, and parent structure).

    Named workloads key on their name (the trees are cached singletons);
    inline trees hash their structure, so two clients posting the same
    tree shape coalesce even though they built the JSON independently.
    """
    if origin is not None:
        return f"workload:{origin}"
    digest = hashlib.sha1()
    # Length-prefix every name: a separator byte alone is not injective
    # (JSON names may contain any byte, including the separator).
    for name in (tree.input_node, *tree.node_names):
        encoded = name.encode("utf-8")
        digest.update(len(encoded).to_bytes(4, "big"))
        digest.update(encoded)
    digest.update(tree.parents.tobytes())
    return f"tree:{digest.hexdigest()}"


def _parse_topology(payload: Dict[str, Any]) -> Tuple[RCTree, str, str]:
    """Resolve the request's tree; returns ``(tree, key, label)``."""
    workload = payload.get("workload")
    tree_spec = payload.get("tree")
    if (workload is None) == (tree_spec is None):
        raise ValidationError(
            "exactly one of 'workload' or 'tree' is required"
        )
    if workload is not None:
        tree = resolve_workload(workload)
        return tree, topology_key(tree, origin=workload), str(workload)
    tree = tree_from_spec(tree_spec)
    return tree, topology_key(tree), "inline"


# ----------------------------------------------------------------------
# Parameter rows
# ----------------------------------------------------------------------
def _scale_rows(payload: Dict[str, Any], key: str) -> Optional[np.ndarray]:
    """``rscale``/``cscale``: scalar or list of per-row factors."""
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        value = [value]
    if not isinstance(value, list) or not value:
        raise ValidationError(
            f"{key!r} must be a number or a non-empty list of numbers"
        )
    if len(value) > MAX_ROWS_PER_REQUEST:
        raise ValidationError(
            f"{key!r} has {len(value)} rows "
            f"(limit {MAX_ROWS_PER_REQUEST})"
        )
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{key!r} must contain only numbers") from None
    if arr.ndim != 1:
        raise ValidationError(f"{key!r} must be flat (one factor per row)")
    if not np.isfinite(arr).all() or (arr <= 0.0).any():
        raise ValidationError(f"{key!r} factors must be finite and > 0")
    return arr


def _explicit_rows(
    payload: Dict[str, Any], key: str, n: int
) -> Optional[np.ndarray]:
    """``resistances``/``capacitances``: one row or a list of rows."""
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{key!r} must be a non-empty list")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{key!r} must contain only numbers") from None
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValidationError(
            f"{key!r} must have {n} values per row (node order = tree "
            f"order), got shape {tuple(arr.shape)}"
        )
    if arr.shape[0] > MAX_ROWS_PER_REQUEST:
        raise ValidationError(
            f"{key!r} has {arr.shape[0]} rows "
            f"(limit {MAX_ROWS_PER_REQUEST})"
        )
    return arr


def _parameter_rows(
    payload: Dict[str, Any], tree: RCTree
) -> Tuple[np.ndarray, np.ndarray]:
    """The request's ``(B, N)`` resistance/capacitance rows."""
    n = tree.num_nodes
    r_rows = _explicit_rows(payload, "resistances", n)
    c_rows = _explicit_rows(payload, "capacitances", n)
    r_scale = _scale_rows(payload, "rscale")
    c_scale = _scale_rows(payload, "cscale")
    if r_rows is not None and r_scale is not None:
        raise ValidationError("'resistances' and 'rscale' are exclusive")
    if c_rows is not None and c_scale is not None:
        raise ValidationError("'capacitances' and 'cscale' are exclusive")
    if r_rows is None:
        factors = r_scale if r_scale is not None else np.ones(1)
        r_rows = factors[:, None] * tree.resistances[None, :]
    if c_rows is None:
        factors = c_scale if c_scale is not None else np.ones(1)
        c_rows = factors[:, None] * tree.capacitances[None, :]
    if r_rows.shape[0] != c_rows.shape[0]:
        if r_rows.shape[0] == 1:
            r_rows = np.broadcast_to(r_rows, c_rows.shape).copy()
        elif c_rows.shape[0] == 1:
            c_rows = np.broadcast_to(c_rows, r_rows.shape).copy()
        else:
            raise ValidationError(
                "resistance and capacitance row counts disagree: "
                f"{r_rows.shape[0]} vs {c_rows.shape[0]}"
            )
    if not np.isfinite(r_rows).all() or (r_rows <= 0.0).any():
        raise ValidationError("resistances must be finite and > 0")
    if not np.isfinite(c_rows).all() or (c_rows < 0.0).any():
        raise ValidationError("capacitances must be finite and >= 0")
    if (c_rows.sum(axis=1) <= 0.0).any():
        raise ValidationError(
            "every row needs some capacitance (an RC tree without "
            "capacitance has no dynamics)"
        )
    return np.ascontiguousarray(r_rows), np.ascontiguousarray(c_rows)


def _node_subset(payload: Dict[str, Any], tree: RCTree) -> Optional[List[str]]:
    nodes = payload.get("nodes")
    if nodes is None:
        return None
    if not isinstance(nodes, list) or not nodes or not all(
        isinstance(name, str) for name in nodes
    ):
        raise ValidationError(
            "'nodes' must be a non-empty list of node names"
        )
    for name in nodes:
        if name not in tree:
            raise ValidationError(f"unknown node {name!r}")
    return list(nodes)


# ----------------------------------------------------------------------
# Request objects
# ----------------------------------------------------------------------
@dataclass
class StatsRequest:
    """A validated ``POST /v1/stats`` request, ready to coalesce."""

    key: str
    label: str
    tree: RCTree
    resistances: np.ndarray
    capacitances: np.ndarray
    signal: Signal = field(default_factory=StepInput)
    signal_spec: str = "step"
    nodes: Optional[List[str]] = None
    timeout_s: Optional[float] = None

    @property
    def rows(self) -> int:
        """Parameter rows this request contributes to the sweep."""
        return int(self.resistances.shape[0])


def parse_stats_request(payload: Any) -> StatsRequest:
    """Validate a ``/v1/stats`` body into a :class:`StatsRequest`."""
    payload = require_mapping(payload, "request body")
    reject_unknown_keys(
        payload,
        ("workload", "tree", "rscale", "cscale", "resistances",
         "capacitances", "signal", "nodes", "timeout_ms"),
        "stats request",
    )
    tree, key, label = _parse_topology(payload)
    r_rows, c_rows = _parameter_rows(payload, tree)
    spec = payload.get("signal", "step")
    signal = signal_from_spec(spec)
    if not signal.derivative_unimodal:
        raise ValidationError(
            "the Elmore bound is only proven for inputs with unimodal "
            f"derivatives; {signal.describe()} does not qualify"
        )
    return StatsRequest(
        key=key,
        label=label,
        tree=tree,
        resistances=r_rows,
        capacitances=c_rows,
        signal=signal,
        signal_spec=str(spec),
        nodes=_node_subset(payload, tree),
        timeout_s=timeout_seconds(payload),
    )
