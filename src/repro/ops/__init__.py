"""Operation registry: verify, sta and ssta, each declared once.

An op module declares one :class:`Op`: typed :class:`Param` s, a pure
``run(params, ctx)`` returning the JSON-ready ``/v1/<op>`` response body,
and ``render(result, ctx)`` printing the command-line text for that body
and returning the exit code.  :mod:`repro.cli` generates a subcommand and
:mod:`repro.serve.app` a ``POST /v1/<op>`` route for every entry of
:data:`OPS`, so a new op is one module plus one entry there.

Module-level imports here and in the op modules stay stdlib-only:
``repro serve`` imports the registry at startup, so each ``run`` imports
the library it needs when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional, Tuple

from repro._exceptions import ValidationError

__all__ = ["Context", "Op", "OPS", "Param", "TIMEOUT_MS", "format_ns",
           "reject_unknown_keys", "require_mapping", "timeout_seconds"]


def format_ns(value: float) -> str:
    """A time in seconds as nanoseconds to four significant digits."""
    return f"{value / 1e-9:.4g}"


def require_mapping(payload: Any, what: str) -> Dict[str, Any]:
    """``payload`` itself, or a :class:`ValidationError` if it is not a
    JSON object."""
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} must be a JSON object, "
                              f"got {type(payload).__name__}")
    return payload


def reject_unknown_keys(payload: Dict[str, Any], allowed: Tuple[str, ...],
                        what: str) -> None:
    """Refuse a JSON object carrying keys outside ``allowed``."""
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown {what} field(s) {unknown}; "
            f"expected a subset of {sorted(allowed)}"
        )


@dataclass(frozen=True)
class Param:
    """One typed, validated operation parameter.

    A scalar parameter is a ``--name`` flag on the command line and a
    ``"name"`` field in the request body, both checked by :meth:`check`.
    A parameter with another form on each surface supplies converters
    instead: ``from_cli(text, params)`` takes the raw argparse string and
    ``from_json(payload, params)`` reads the request body (its keys are
    ``fields``).  Both see the parameters declared before this one in
    ``params`` and raise :class:`ValidationError` on bad input.
    """

    name: str
    type: type = str
    default: Any = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    choices: Tuple[str, ...] = ()
    help: str = ""
    metavar: Optional[str] = None
    positional: bool = False
    fields: Tuple[str, ...] = ()
    from_cli: Optional[Callable[[Optional[str], SimpleNamespace], Any]] = None
    from_json: Optional[Callable[[Dict[str, Any], SimpleNamespace], Any]] = None

    @property
    def flag(self) -> str:
        """The command-line spelling, ``--cell-sigma`` for ``cell_sigma``."""
        return "--" + self.name.replace("_", "-")

    @property
    def json_fields(self) -> Tuple[str, ...]:
        """Request-body keys this parameter reads."""
        return self.fields or (self.name,)

    def check(self, value: Any, label: str) -> Any:
        """Validate ``value`` and return it as ``type``; ``label`` names it
        in the message (``--name`` on the command line, ``'name'`` over
        HTTP)."""
        if self.type is str:
            if self.choices and value not in self.choices:
                raise ValidationError(
                    f"unknown {self.name.replace('_', ' ')} {value!r}; "
                    f"expected one of {sorted(self.choices)}"
                )
            return value
        integer = self.type is int
        if isinstance(value, bool) or not isinstance(
            value, int if integer else (int, float)
        ):
            kind = "an integer" if integer else "a number"
            raise ValidationError(f"{label} must be {kind}, got {value!r}")
        if not integer:
            try:
                number = float(value)
            except OverflowError:  # an integer literal beyond float range
                number = math.inf
            if number != number:
                raise ValidationError(f"{label} must not be NaN")
            if math.isinf(number):
                raise ValidationError(f"{label} must be finite, got {number}")
        if self.minimum is not None and value < self.minimum:
            raise ValidationError(
                f"{label} must be >= {self.minimum}, got {value}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ValidationError(
                f"{label} must be <= {self.maximum}, got {value}"
            )
        return self.type(value)

    def parse_text(self, token: str, label: str) -> Any:
        """Convert a command-line token, then :meth:`check` it; a token
        that does not convert fails the type check there."""
        try:
            token = self.type(token)
        except ValueError:
            pass
        return self.check(token, label)


#: Per-request deadline field every op (and ``/v1/stats``) accepts.
TIMEOUT_MS = Param("timeout_ms", float, minimum=1, maximum=3_600_000)


def timeout_seconds(payload: Dict[str, Any]) -> Optional[float]:
    """The body's ``timeout_ms`` in seconds (``None`` when absent)."""
    value = payload.get("timeout_ms")
    if value is None:
        return None
    return TIMEOUT_MS.check(value, "'timeout_ms'") / 1e3


@dataclass(frozen=True)
class Context:
    """Engine settings an op runs under (the server's, over HTTP)."""

    jobs: Optional[int] = None
    backend: Optional[str] = None
    checkpoint: Optional[str] = None
    resume: bool = False


@dataclass(frozen=True)
class Op:
    """A registered operation; see the module docstring."""

    name: str
    help: str
    params: Tuple[Param, ...]
    run: Callable[[SimpleNamespace, Context], Dict[str, Any]]
    render: Callable[[Dict[str, Any], Context], int]

    def from_cli(self, args: Any) -> SimpleNamespace:
        """The op's parameters from parsed argparse ``args``."""
        params = SimpleNamespace()
        for param in self.params:
            value = getattr(args, param.name)
            if param.from_cli is not None:
                value = param.from_cli(value, params)
            setattr(params, param.name, value)
        return params

    def parse_json(self, payload: Any) -> SimpleNamespace:
        """Validate a request body: the op's parameters plus the
        request's ``timeout_s``."""
        payload = require_mapping(payload, "request body")
        reject_unknown_keys(
            payload,
            tuple(key for param in self.params
                  for key in param.json_fields) + ("timeout_ms",),
            f"{self.name} request",
        )
        params = SimpleNamespace()
        for param in self.params:
            if param.from_json is not None:
                value = param.from_json(payload, params)
            else:
                value = payload.get(param.name)
                value = param.default if value is None \
                    else param.check(value, repr(param.name))
            setattr(params, param.name, value)
        params.timeout_s = timeout_seconds(payload)
        return params


# The op modules import Param/Op from this package, so they load last.
from repro.ops import ssta, sta, verify  # noqa: E402

#: Every registered operation, by name (CLI subcommand and route order).
OPS: Dict[str, Op] = {op.name: op for op in (verify.OP, sta.OP, ssta.OP)}
