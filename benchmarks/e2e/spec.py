"""Load and validate ``BENCHMARK.json``, the benchmark's metric contract.

The file names the workloads, the gated end-to-end metrics (with the
share of the parent's median each may worsen by) and the per-layer
metrics the ``--trace`` run reports.  :func:`validate_spec` enforces
the limits the file's consumers rely on; :func:`load_spec` refuses a
file that breaks any of them.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, List

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
LIMITS = {"workloads": (2, 8), "end_to_end": (1, 16), "per_layer": (1, 128)}
ENTRY_KEYS = {
    "workloads": {"name", "why"},
    "end_to_end": {"name", "unit", "better", "bound"},
    "per_layer": {"name", "unit", "better"},
}
MAX_BOUND = 0.25
MAX_BYTES = 64 * 1024


class SpecError(ValueError):
    """``BENCHMARK.json`` is missing or breaks the contract."""


def _check_entries(data: Dict[str, Any], section: str,
                   names: set, problems: List[str]) -> None:
    entries = data.get(section)
    lo, hi = LIMITS[section]
    if not isinstance(entries, list) or not lo <= len(entries) <= hi:
        problems.append(f"{section}: need a list of {lo} to {hi} entries")
        return
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != ENTRY_KEYS[section]:
            problems.append(
                f"{section}: entry {entry!r} must have exactly the keys "
                f"{sorted(ENTRY_KEYS[section])}"
            )
            continue
        name = entry["name"]
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append(f"{section}: bad name {name!r}")
        elif name in names:
            problems.append(f"{section}: name {name!r} is used twice")
        else:
            names.add(name)
        if section == "workloads":
            why = entry["why"]
            if not isinstance(why, str) or not why or "\n" in why \
                    or len(why) > 200:
                problems.append(f"workload {name}: 'why' must be one "
                                "line of at most 200 characters")
            continue
        if not isinstance(entry["unit"], str) \
                or not UNIT_RE.match(entry["unit"]):
            problems.append(f"{name}: bad unit {entry['unit']!r}")
        if entry["better"] not in ("higher", "lower"):
            problems.append(f"{name}: 'better' must be higher or lower")
        if section == "end_to_end":
            bound = entry["bound"]
            if isinstance(bound, bool) or not isinstance(bound, (int, float)) \
                    or not 0.0 < bound <= MAX_BOUND:
                problems.append(f"{name}: bound must be in (0, {MAX_BOUND}]")


def validate_spec(data: Any) -> List[str]:
    """Every way ``data`` breaks the contract (empty when it holds)."""
    if not isinstance(data, dict):
        return ["BENCHMARK.json must hold a JSON object"]
    problems: List[str] = []
    if set(data) != TOP_KEYS:
        problems.append(f"top-level keys must be exactly {sorted(TOP_KEYS)}")
    command = data.get("command")
    if not isinstance(command, list) or not 1 <= len(command) <= 32 or \
            not all(isinstance(a, str) and 0 < len(a) <= 200
                    for a in command):
        problems.append("command: need 1 to 32 strings of at most 200 "
                        "characters")
    paths = data.get("paths")
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16 or not all(
        isinstance(p, str) and PATH_RE.match(p) and not p.startswith("/")
        and ".." not in p.split("/") for p in paths
    ):
        problems.append("paths: need 1 to 16 relative directory names")
    seconds = data.get("run_seconds")
    if isinstance(seconds, bool) or not isinstance(seconds, int) \
            or not 1 <= seconds <= 60:
        problems.append("run_seconds: need a whole number from 1 to 60")
    names: set = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        _check_entries(data, section, names, problems)
    metric_names = {e.get("name") for e in data.get("end_to_end") or []
                    if isinstance(e, dict)}
    if "setup_s" not in metric_names:
        problems.append("end_to_end: setup_s is required")
    else:
        setup = next(e for e in data["end_to_end"]
                     if isinstance(e, dict) and e.get("name") == "setup_s")
        if setup.get("unit") != "s" or setup.get("better") != "lower":
            problems.append("setup_s must have unit 's' and better 'lower'")
    return problems


def load_spec(path: Path) -> Dict[str, Any]:
    """Read and validate ``BENCHMARK.json``; raises :class:`SpecError`."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from None
    if len(raw) > MAX_BYTES:
        raise SpecError(f"{path} is larger than {MAX_BYTES} bytes")
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise SpecError(f"{path} is not valid JSON: {exc}") from None
    problems = validate_spec(data)
    if problems:
        raise SpecError(f"{path}: " + "; ".join(problems))
    return data
