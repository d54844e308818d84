"""Shared formatting/reporting helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper, asserts the
qualitative shape the paper reports, prints the reproduction next to the
paper's printed numbers, and persists two artifacts under
``benchmarks/results/``:

* ``<name>.txt`` — the rendered monospace table (for EXPERIMENTS.md);
* ``<name>.json`` — the same data machine-readable: header + rows plus
  environment info (cpu count, python, platform, git revision),
  schema-tagged so downstream tooling can diff runs.

Both files are written atomically (temp file + ``os.replace``) so an
interrupted or parallel run never leaves truncated results behind.
End-to-end performance is measured by ``benchmarks/e2e/`` instead.
"""

import json
import os
import subprocess
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.obs.report import atomic_write_text, environment_info

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Schema tag stamped into every ``<name>.json`` row file.
ROW_SCHEMA = "repro.bench_rows/1"

NS = 1e-9


def ns(value: float) -> str:
    """Format a time in nanoseconds with three significant digits."""
    return f"{value / NS:.3g}"


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The short git revision of ``cwd`` (or CWD), ``None`` outside a
    checkout or without a ``git`` binary."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def render_table(
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
) -> str:
    """Render a monospace table with a title line."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = [title]
    lines.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def report(
    name: str,
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    extra: Optional[Dict[str, Any]] = None,
    notes: Sequence[str] = (),
) -> None:
    """Print the table and persist ``<name>.txt`` + ``<name>.json``.

    ``extra`` carries benchmark-specific scalars (speedups, corpus sizes)
    into the JSON row file alongside the tabulated data; ``notes`` are
    lines printed after the table and written to ``<name>.txt`` only.
    """
    rows = [list(map(str, row)) for row in rows]
    text = "\n".join([render_table(title, header, rows), *notes])
    print("\n" + text + "\n")
    atomic_write_text(os.path.join(RESULTS_DIR, f"{name}.txt"), text + "\n")
    environment = environment_info()
    environment["git_rev"] = git_revision(os.path.dirname(__file__))
    payload = {
        "schema": ROW_SCHEMA,
        "name": name,
        "title": title,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0"),
        "environment": environment,
        "header": list(header),
        "rows": rows,
        "extra": dict(extra or {}),
    }
    atomic_write_text(
        os.path.join(RESULTS_DIR, f"{name}.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def load_rows(name: str) -> Dict[str, Any]:
    """Read back a benchmark's JSON row file (for tooling/tests)."""
    with open(os.path.join(RESULTS_DIR, f"{name}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)
