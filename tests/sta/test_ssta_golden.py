"""Pinned SSTA golden over a routed random design.

The canonical walk adds labelled forms and takes Clark maxima in the
order the timing graph visits pins; its backward pass splits
criticality over fan-in.  This pins every pin's arrival ``(mu, sigma)``
and ``pin_criticality`` for one seeded design under an explicit
process model, so a walk change that moves a single bit fails here.
"""

import hashlib

from repro.core.variation import VariationModel
from repro.sta.ssta import ProcessModel, analyze_ssta
from repro.workloads import random_design

MODEL = ProcessModel(
    VariationModel(resistance_sigma=0.08, capacitance_sigma=0.06),
    rho_r=0.5, rho_c=0.3, cell_sigma=0.05, rho_cell=0.4,
)
CRITICAL = (4.689915710348573e-10, 1.6210100188275598e-11)
FORMS_SHA256 = (
    "5243393dfd5adfcb49c326eb156ba03ed5fd71b2608c2362139962bee36285da"
)


def forms_digest(report):
    rows = sorted(
        (p.instance, p.pin, form.mu, form.sigma,
         report.pin_criticality.get(p))
        for p, form in report.arrival.items()
    )
    rows += sorted(report.criticality.items())
    blob = "\n".join(repr(row) for row in rows)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_random_design_ssta_golden():
    report = analyze_ssta(random_design(5, 8, seed=2), MODEL)
    assert len(report.arrival) == 134
    assert report.pin_criticality.keys() <= report.arrival.keys()
    assert (report.critical.mu, report.critical.sigma) == CRITICAL
    assert forms_digest(report) == FORMS_SHA256
