"""JSON and CSV serialization.

Function definition format (also the CLI input):

    {
      "functions": {
        "f": {
          "domain": [lo, hi],              // "-inf"/"inf" allowed
          "pieces": [
            {"on": [a, b], "lower": "<expr>", "upper": "<expr>",   // upper optional
             "envelopes": {"left": {"liminf": ..., "limsup": ...,  // optional
                                    "provenance": "declared"},
                           "right": {...}},                        // optional
             "upper_envelopes": {"left": {...}, "right": {...}}}   // optional
          ],
          "points": [{"x": ..., "value": [lo, hi]}]
        }
      }
    }

A piece entry maps onto the piece's two `piecewise.Bound` records:
``lower`` and ``envelopes`` are the lower record's expression and its
one-sided envelopes, ``upper`` and ``upper_envelopes`` the upper
record's.  A piece without ``upper``, or with ``upper`` equal to
``lower``, is real-valued and holds one record as both bounds, so
``upper_envelopes`` there is an error.  Otherwise the upper record takes
the ``envelopes`` too unless ``upper_envelopes`` is present; with it, the
upper record takes only the ends listed there and computes the others.
An envelope's ``provenance`` is "declared" (the default) or "estimated".
Envelopes belong to finite piece ends only: one at "-inf" or "inf" is refused.

The writer stores only envelopes that are declared or estimated, with
their provenance, and writes ``upper_envelopes`` only for a piece whose
upper record's stored envelopes differ from its lower record's.  Evaluated
envelopes are not stored: reading a piece back recomputes them exactly, so
they keep their provenance.

Scalars serialize as integers where possible and as exact strings
otherwise in rational mode ("0.25" or "1/3"), and as plain numbers in
float mode.  Grid functions serialize to CSV with the fixed header
``x,lo,hi``.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import Dict, List, Optional, TextIO

from . import expr as ex
from . import piecewise as pw
from .baire import GridFunction
from .errors import EngineError
from .interval import Interval
from .piecewise import Domain, HFunction
from .scalars import Scalar, format_scalar, scalar_eq, to_scalar


def scalar_to_json(value: Scalar):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return format_scalar(value)
    return float(value)


def scalar_from_json(data) -> Scalar:
    if isinstance(data, bool):
        raise EngineError("booleans are not scalars")
    if isinstance(data, (int, float, str)):
        return to_scalar(data)
    raise EngineError(f"cannot read scalar from {data!r}")


def _end_from_json(data, which: str) -> Optional[Scalar]:
    if isinstance(data, str) and data.strip() in ("-inf", "inf", "+inf"):
        text = data.strip()
        if which == "lo" and text == "-inf":
            return None
        if which == "hi" and text in ("inf", "+inf"):
            return None
        raise EngineError(f"{text!r} is not a valid {which} domain end")
    return scalar_from_json(data)


def _end_to_json(value: Optional[Scalar], which: str):
    if value is None:
        return "-inf" if which == "lo" else "inf"
    return scalar_to_json(value)


def interval_to_json(a: Interval):
    if a.is_point:
        return scalar_to_json(a.lo)
    return [scalar_to_json(a.lo), scalar_to_json(a.hi)]


def interval_from_json(data) -> Interval:
    if isinstance(data, (list, tuple)):
        if len(data) != 2:
            raise EngineError(f"interval needs two entries, got {data!r}")
        return Interval.of(scalar_from_json(data[0]), scalar_from_json(data[1]))
    return Interval.point(scalar_from_json(data))


_REQUIRED = object()
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def _entry(data, key: str, what: str, kind: type = object, default=_REQUIRED):
    """``data[key]``, or ``default`` when the key is absent and a default is
    given.  EngineError when ``data`` is not a JSON object, a required key is
    missing, or the value is not a ``kind``."""
    if not isinstance(data, dict):
        raise EngineError(f"{what} must be a JSON object, got {data!r}")
    value = data.get(key, default)
    if value is _REQUIRED:
        raise EngineError(f"{what} has no {key!r}")
    if value is not default and not isinstance(value, kind):
        raise EngineError(f"{key!r} of {what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _span_from_json(data, what: str):
    if not isinstance(data, list) or len(data) != 2:
        raise EngineError(f"{what} needs [lo, hi], got {data!r}")
    return _end_from_json(data[0], "lo"), _end_from_json(data[1], "hi")


# "evaluated" marks the engine's own exact limits, which the writer never
# stores; read from a file, such data is a declaration like any other
_READ_PROVENANCE = {
    pw.DECLARED: pw.DECLARED, pw.ESTIMATED: pw.ESTIMATED, pw.EVALUATED: pw.DECLARED,
}


def _envelope_from_json(envelopes, side: str):
    data = _entry(envelopes, side, "envelopes", default=None)
    if data is None:
        return None
    provenance = _entry(data, "provenance", "an envelope", str, pw.DECLARED)
    if provenance not in _READ_PROVENANCE:
        raise EngineError(f"unknown envelope provenance {provenance!r}")
    return (
        scalar_from_json(_entry(data, "liminf", "an envelope")),
        scalar_from_json(_entry(data, "limsup", "an envelope")),
        _READ_PROVENANCE[provenance],
    )


def _envelope_pair_from_json(envelopes):
    """(left, right) envelope data of one entry; None where a side is absent."""
    return _envelope_from_json(envelopes, "left"), _envelope_from_json(envelopes, "right")


def hfunction_from_json(data: dict) -> HFunction:
    domain = Domain(*_span_from_json(_entry(data, "domain", "a function"), "a domain"))
    points = []
    for entry in _entry(data, "points", "a function", list, ()):
        x = scalar_from_json(_entry(entry, "x", "a point"))
        points.append((x, interval_from_json(_entry(entry, "value", "a point"))))
    points.sort(key=lambda t: t[0])
    piece_specs = []
    for entry in _entry(data, "pieces", "a function", list, ()):
        lo, hi = _span_from_json(_entry(entry, "on", "a piece"), "a piece")
        lower = ex.parse(_entry(entry, "lower", "a piece", str))
        upper = _entry(entry, "upper", "a piece", str, None)
        left, right = _envelope_pair_from_json(_entry(entry, "envelopes", "a piece", default={}))
        upper_envelopes = _entry(entry, "upper_envelopes", "a piece", default=None)
        piece = pw.make_piece(
            lo,
            hi,
            lower,
            None if upper is None else ex.parse(upper),
            declared_left=left,
            declared_right=right,
            declared_upper=(
                None if upper_envelopes is None else _envelope_pair_from_json(upper_envelopes)
            ),
        )
        piece_specs.append((lo, hi, piece))
    piece_specs.sort(key=lambda t: (t[0] is not None, t[0]))
    return pw.hfunction(domain, points, [p for _, _, p in piece_specs])


def _envelopes_to_json(bound: pw.Bound):
    # evaluated envelopes are exact limits that make_piece recomputes on load;
    # written out, they would come back as declared data
    return {
        side: {
            "liminf": scalar_to_json(env.liminf),
            "limsup": scalar_to_json(env.limsup),
            "provenance": env.provenance,
        }
        for side, env in (("left", bound.left), ("right", bound.right))
        if env is not None and env.provenance != pw.EVALUATED
    }


def hfunction_to_json(f: HFunction) -> dict:
    pieces = []
    for piece in f.pieces:
        entry = {
            "on": [_end_to_json(piece.lo, "lo"), _end_to_json(piece.hi, "hi")],
            "lower": ex.to_text(piece.lower.expr),
        }
        if not piece.is_real:
            entry["upper"] = ex.to_text(piece.upper.expr)
        envelopes = _envelopes_to_json(piece.lower)
        if envelopes:
            entry["envelopes"] = envelopes
        upper_envelopes = _envelopes_to_json(piece.upper)
        if upper_envelopes != envelopes:
            entry["upper_envelopes"] = upper_envelopes
        pieces.append(entry)
    return {
        "domain": [_end_to_json(f.domain.lo, "lo"), _end_to_json(f.domain.hi, "hi")],
        "pieces": pieces,
        "points": [
            {"x": scalar_to_json(p.x), "value": interval_to_json(p.value)}
            for p in f.points
        ],
    }


def load_defs(path: str) -> Dict[str, HFunction]:
    """Read a definitions file.

    Normally a {"functions": {...}} map; a bare function object (as written
    by the CLI ``op`` command) is accepted too and bound to the name
    "result", so operation outputs can be fed straight back in.
    """
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    if not isinstance(data, dict):
        raise EngineError("definition files must hold a JSON object")
    if "functions" in data:
        return {
            name: hfunction_from_json(body)
            for name, body in _entry(data, "functions", "a definitions file", dict).items()
        }
    if "domain" in data and "pieces" in data:
        return {"result": hfunction_from_json(data)}
    raise EngineError("definition files need a top-level 'functions' map")


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def grid_to_csv(grid: GridFunction, fp: TextIO) -> None:
    writer = csv.writer(fp)
    writer.writerow(["x", "lo", "hi"])
    for i, value in enumerate(grid.values):
        writer.writerow(
            [format_scalar(grid.x(i)), format_scalar(value.lo), format_scalar(value.hi)]
        )


def grid_from_csv(fp: TextIO) -> GridFunction:
    reader = csv.reader(fp)
    header = next(reader)
    if header != ["x", "lo", "hi"]:
        raise EngineError("grid CSV must start with the header x,lo,hi")
    xs: List[Scalar] = []
    values: List[Interval] = []
    for row in reader:
        if len(row) != 3:
            raise EngineError(f"grid CSV rows need three columns, got {row!r}")
        xs.append(to_scalar(row[0]))
        values.append(Interval.of(row[1], row[2]))
    if len(xs) < 1:
        raise EngineError("empty grid CSV")
    h = xs[1] - xs[0] if len(xs) > 1 else to_scalar(1)
    for i, x in enumerate(xs):
        if not scalar_eq(x, xs[0] + i * h):
            raise EngineError(
                f"grid CSV x values must be evenly spaced: row {i + 1} has "
                f"{format_scalar(x)}, not {format_scalar(xs[0] + i * h)}"
            )
    return GridFunction(xs[0], h, tuple(values))
