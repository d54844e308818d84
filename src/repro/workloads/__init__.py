"""Workloads: the paper's circuits and seeded benchmark generators."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workloads.generators": [
        "clock_tree_family", "corner_batch", "line_family", "mixed_corpus",
        "random_design", "random_tree_corpus",
    ],
    "repro.workloads.paper": [
        "FIG1_PROBES", "TABLE1_PAPER", "TABLE2_PAPER", "TABLE2_RISE_TIMES",
        "TREE25_PROBES", "fig1_tree", "tree25",
    ],
})

__all__ = [
    "fig1_tree",
    "FIG1_PROBES",
    "TABLE1_PAPER",
    "tree25",
    "TREE25_PROBES",
    "TABLE2_PAPER",
    "TABLE2_RISE_TIMES",
    "random_tree_corpus",
    "line_family",
    "clock_tree_family",
    "mixed_corpus",
    "corner_batch",
    "random_design",
]
