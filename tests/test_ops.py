"""Parity suite for the operation registry (:mod:`repro.ops`).

Every case is generated from ``OPS``, so a new op gets it for free: the
command line and the HTTP route accept the same parameters with the
same defaults, refuse the same out-of-range and non-finite values with
the same message, and print the same text for the same result.
"""

import argparse
import dataclasses
import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro._exceptions import ValidationError
from repro.circuit import parse_rc_tree
from repro.cli import build_parser, main
from repro.ops import OPS, Context
from repro.serve import ServeConfig, ServerThread

DATA = Path(__file__).parent / "data"
LINE4 = str(DATA / "line4.sp")

#: What an op needs on each surface before any parameter is optional.
REQUIRED_ARGV = {"verify": [LINE4]}
REQUIRED_BODY = {"verify": {"workload": "fig1"}}


def _line4_body():
    """``tests/data/line4.sp`` as an inline ``tree`` request field."""
    with open(LINE4, encoding="utf-8") as handle:
        tree, _ = parse_rc_tree(handle.read())
    return {
        "input": tree.input_node,
        "nodes": [
            {"name": name, "parent": tree.parent_of(name),
             "r": float(r), "c": float(c)}
            for name, r, c in zip(tree.node_names, tree.resistances,
                                  tree.capacitances)
        ],
    }


#: (op, argv, body).  Both surfaces must print ``tests/data/ops/<op>.txt``,
#: the command line's stdout for argv captured before the registry.
PINNED = [
    ("sta", ["--layers", "3", "--width", "4"], {"layers": 3, "width": 4}),
    ("ssta",
     ["--layers", "3", "--width", "4", "--samples", "1200",
      "--required", "2.5e-10"],
     {"layers": 3, "width": 4, "samples": 1200, "required": 2.5e-10}),
    ("verify", [LINE4], None),
]


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServeConfig(port=0, manage_pool=False)) as thread:
        yield thread


def _post(url, path, data: bytes):
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=120.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _op_parser(name):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return subparsers.choices[name]


def _dests(parser):
    return {action.dest for action in parser._actions
            if action.dest != "help"}


@pytest.mark.parametrize("name", sorted(OPS))
def test_cli_flags_and_http_fields_match(name):
    op = OPS[name]
    # Flags every subcommand shares, plus the engine settings of Context.
    shared = _dests(_op_parser("table1")) | {
        field.name for field in dataclasses.fields(Context)
    }
    parser = _op_parser(name)
    assert _dests(parser) - shared == {param.name for param in op.params}
    defaults = {action.dest: action.default for action in parser._actions}
    parsed = op.parse_json(dict(REQUIRED_BODY.get(name, {})))
    for param in op.params:
        if param.positional:
            continue  # required on both surfaces
        assert defaults[param.name] == param.default, param.name
        assert getattr(parsed, param.name) == param.default, param.name
    # The body accepts exactly the parameters' fields plus timeout_ms.
    with pytest.raises(ValidationError) as excinfo:
        op.parse_json({"no-such-field": 1})
    accepted = {key for param in op.params for key in param.json_fields}
    assert str(sorted(accepted | {"timeout_ms"})) in str(excinfo.value)


def _bound_cases():
    for name, op in OPS.items():
        for param in op.params:
            cases = []
            if param.minimum is not None:
                cases.append(("min-1", param.minimum - 1,
                              f"must be >= {param.minimum}"))
            if param.maximum is not None:
                cases.append(("max+1", param.maximum + 1,
                              f"must be <= {param.maximum}"))
            if cases and param.type is int:
                cases.append(("inf", "1e999", "must be an integer"))
            elif cases:
                # 1e999 parses as infinity; the 401-digit integer is
                # beyond float range and json.loads keeps it exact.
                cases.append(("inf", "1e999", "must be finite"))
                cases.append(("huge", "1" + "0" * 400, "must be finite"))
            for case, value, fragment in cases:
                yield pytest.param(name, param, str(value), fragment,
                                   id=f"{name}-{param.name}-{case}")


@pytest.mark.parametrize("name,param,literal,fragment",
                         list(_bound_cases()))
def test_bounds_agree_on_both_surfaces(server, capsys, name, param,
                                       literal, fragment):
    with pytest.raises(SystemExit) as excinfo:
        main([name, *REQUIRED_ARGV.get(name, []),
              f"{param.flag}={literal}"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"{param.flag} {fragment}" in err and "Traceback" not in err
    # Spliced in as a JSON literal, which json.dumps cannot write.
    body = json.dumps({**REQUIRED_BODY.get(name, {}), param.name: "?"})
    body = body.replace('"?"', literal)
    status, payload = _post(server.url, f"/v1/{name}", body.encode())
    assert status == 400
    assert f"'{param.name}' {fragment}" in payload["error"]["message"]


@pytest.mark.parametrize("name,argv,body", PINNED,
                         ids=[case[0] for case in PINNED])
def test_cli_output_is_render_of_http_body(server, capsys, name, argv,
                                           body):
    expected = (DATA / "ops" / f"{name}.txt").read_text(encoding="utf-8")
    assert main([name, *argv]) == 0
    assert capsys.readouterr().out == expected
    if body is None:
        body = {"tree": _line4_body()}
    status, result = _post(server.url, f"/v1/{name}",
                           json.dumps(body).encode())
    assert status == 200
    assert OPS[name].render(result, Context()) == 0
    assert capsys.readouterr().out == expected


def test_unknown_node_is_refused_before_running(server, capsys):
    assert main(["verify", LINE4, "--nodes", "n1,ghost"]) == 2
    assert "unknown node 'ghost'" in capsys.readouterr().err
    status, payload = _post(
        server.url, "/v1/verify",
        json.dumps({"workload": "fig1", "nodes": ["ghost"]}).encode(),
    )
    assert status == 400
    assert "unknown node 'ghost'" in payload["error"]["message"]


def test_delay_model_choices_match_the_timing_engine():
    from repro.sta.timing import DELAY_MODELS

    choices = next(param.choices for param in OPS["sta"].params
                   if param.name == "delay_model")
    assert sorted(choices) == sorted(DELAY_MODELS)


def test_non_elmore_sta_on_a_sharded_server(capsys):
    """Every delay model rides the sharded fan-out: a jobs=2 server
    answers the exact model over >= 2 shards (the 8x40 design has ~360
    nets), bit-identical to a serial in-process run."""
    from repro.obs.metrics import counter
    from repro.sta import analyze
    from repro.workloads import random_design

    shards = counter("parallel_shards_total")
    before = shards.value
    with ServerThread(ServeConfig(port=0, jobs=2,
                                  manage_pool=False)) as thread:
        status, body = _post(
            thread.url, "/v1/sta",
            json.dumps({"layers": 8, "width": 40, "seed": 1,
                        "delay_model": "exact"}).encode(),
        )
    assert status == 200
    assert shards.value - before >= 2
    result = analyze(random_design(layers=8, width=40, seed=1), "exact")
    assert body["critical_output"] == result.critical_output
    assert body["critical_delay"] == float(result.critical_delay)
    OPS["sta"].render(body, Context())
    assert "(exact delay model)" in capsys.readouterr().out
