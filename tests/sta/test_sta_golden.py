"""Pinned STA golden over a routed random design.

Every net of ``random_design`` is placed, so this pins net routing (MST
tie-breaks and the order routed nodes enter each RC tree) together with
the arrival walk.  Any change to either that moves a single bit of a
single arrival fails here.
"""

import hashlib

from repro.sta import analyze
from repro.workloads import random_design

CRITICAL_DELAY = 3.906060806893561e-09
ARRIVALS_SHA256 = (
    "97db369fc6af69cebf82dfa29ddcd65ffc09f9f74d80dc702d714738c7daa783"
)


def arrivals_digest(result):
    items = sorted((p.instance, p.pin, t) for p, t in result.arrival.items())
    blob = "\n".join(f"{inst}.{pin}={t!r}" for inst, pin, t in items)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_random_design_elmore_golden():
    result = analyze(random_design(20, 50, seed=1), "elmore")
    assert len(result.arrival) == 3065
    assert result.critical_delay == CRITICAL_DELAY
    assert arrivals_digest(result) == ARRIVALS_SHA256
