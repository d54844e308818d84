"""Pinned STA goldens over routed random designs.

Every net of ``random_design`` is placed, so this pins net routing (MST
tie-breaks and the order routed nodes enter each RC tree) together with
the arrival walk.  Any change to either that moves a single bit of a
single arrival fails here.  The slew, critical-path and slack digests
pin the rest of the nominal walk and the backward pass on two designs
and two delay models.
"""

import hashlib

import pytest

from repro.sta import analyze, compute_slacks
from repro.workloads import random_design

CRITICAL_DELAY = 3.906060806893561e-09
ARRIVALS_SHA256 = (
    "97db369fc6af69cebf82dfa29ddcd65ffc09f9f74d80dc702d714738c7daa783"
)

#: ``(design args, delay model)`` -> slew, critical-path and slack
#: digests and the worst slack pin, with required time 1.1 x the
#: critical delay at every output.
WALK_GOLDENS = {
    ((20, 50, 1), "elmore"): (
        "cbef8e6484ffc729f72c80d481f137012b56f4111ef13cd4e3fa2685d68c7e17",
        "9ea02a467225d8c3e69ba69e638669500103e9ada30d676f00a0eb05392403e0",
        "ae76f717f3709b43603b7a43f5af9d7fffe94dc939754d78c0bddc108e97fa83",
        "g18_34.y",
    ),
    ((8, 40, 3), "d2m"): (
        "167a95c407f98330c18a19c86a703d5e8417937d92632df2b5f946e8e3a532fb",
        "f359bba778ca0779260577b7d626fdff2bada0b917c954126b34150722536ce1",
        "cccbd25ec3b841c751f58143fe0ade0f7378b216cf90f6f8fc95c8b8c62397b3",
        "o2",
    ),
}


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def pin_lines(values):
    items = sorted((p.instance, p.pin, t) for p, t in values.items())
    return [f"{inst}.{pin}={t!r}" for inst, pin, t in items]


def arrivals_digest(result):
    return digest(pin_lines(result.arrival))


def path_digest(result):
    return digest(f"{e.kind}:{e.name}:{e.delay!r}:{e.arrival!r}"
                  for e in result.critical_path())


def slack_digest(report):
    return digest(pin_lines(report.required) + ["--"]
                  + pin_lines(report.slack)
                  + [f"worst={report.worst_pin}:{report.worst_slack!r}"])


def test_random_design_elmore_golden():
    result = analyze(random_design(20, 50, seed=1), "elmore")
    assert len(result.arrival) == 3065
    assert result.critical_delay == CRITICAL_DELAY
    assert arrivals_digest(result) == ARRIVALS_SHA256


@pytest.mark.parametrize("args, model", list(WALK_GOLDENS))
def test_slews_path_and_slacks_golden(args, model):
    slews, path, slacks, worst = WALK_GOLDENS[args, model]
    design = random_design(*args)
    result = analyze(design, model)
    assert digest(pin_lines(result.slew)) == slews
    assert path_digest(result) == path
    report = compute_slacks(design, result, 1.1 * result.critical_delay)
    assert str(report.worst_pin) == worst
    assert slack_digest(report) == slacks
