import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hfring import baire, formats
from hfring import expr as ex
from hfring import piecewise as pw
from hfring import scalars, suite
from hfring.baire import GridFunction, grid_sample
from hfring.errors import EngineError, RepresentationError
from hfring.interval import Interval
from hfring.piecewise import Domain

from conftest import DATA_DIR, make_oscillation_pair, make_step_pair


class TestScalars:
    def test_integers_stay_numbers(self):
        assert formats.scalar_to_json(pw.to_scalar(3)) == 3

    def test_fractions_become_exact_strings(self):
        assert formats.scalar_to_json(Fraction(1, 3)) == "1/3"
        assert formats.scalar_to_json(Fraction(1, 4)) == "0.25"

    def test_round_trip(self):
        for text in ("3", "1/3", "0.25", "-7/2"):
            value = formats.scalar_from_json(formats.scalar_to_json(pw.to_scalar(text)))
            assert value == pw.to_scalar(text)

    def test_float_mode_uses_numbers(self):
        scalars.set_mode(scalars.FLOAT)
        assert formats.scalar_to_json(0.5) == 0.5

    def test_interval_point_collapses(self):
        assert formats.interval_to_json(Interval.of(2, 2)) == 2
        assert formats.interval_to_json(Interval.of(1, 2)) == [1, 2]
        assert formats.interval_from_json(5) == Interval.of(5, 5)


class TestFunctionJson:
    def test_step_pair_file_loads(self, step_pair):
        loaded = formats.load_defs(f"{DATA_DIR}/step_pair.json")
        f, g = step_pair
        assert pw.func_equal(loaded["f"], f)
        assert pw.func_equal(loaded["g"], g)
        assert pw.func_equal(loaded["one"], pw.constant_function(f.domain, 1))

    def test_round_trip_suite(self):
        for f in suite.h_continuous_suite(71, 10):
            data = formats.hfunction_to_json(f)
            back = formats.hfunction_from_json(json.loads(json.dumps(data)))
            assert pw.func_equal(back, f)
            # evaluated envelopes are recomputed, not read back as declared
            assert back.pieces == f.pieces

    def test_declared_envelopes_survive(self, float_mode):
        loaded = formats.load_defs(f"{DATA_DIR}/oscillation_pair.json")
        f = loaded["f"]
        written = formats.hfunction_from_json(formats.hfunction_to_json(f))
        for g in (f, written):
            env = g.pieces[0].lower.right
            assert env.provenance == "declared"
            assert env.liminf == -1 and env.limsup == 1

    def test_estimated_envelopes_stay_estimated(self, float_mode):
        loaded = formats.load_defs(f"{DATA_DIR}/oscillation_pair.json")
        s = pw.pointwise_add(loaded["f"], loaded["g"])
        assert s.pieces[1].lower.left.provenance == pw.ESTIMATED
        back = formats.hfunction_from_json(formats.hfunction_to_json(s))
        assert back.pieces[1].lower.left == s.pieces[1].lower.left
        assert back.pieces[1].upper.left == s.pieces[1].upper.left

    def test_upper_envelopes_written_where_they_differ(self, float_mode):
        # a proper piece whose bounds oscillate differently at 0
        f = pw.hfunction(
            Domain.of(0, 1), [],
            [pw.make_piece(0.0, 1.0, ex.parse("sin(1/x) - 2"), ex.parse("cos(1/x) + 2"),
                           declared_left=(-3, -1))],
        )
        upper = f.pieces[0].upper._replace(left=pw.EndEnvelope(1.0, 3.0, pw.ESTIMATED))
        f = pw.HFunction(f.domain, f.points, (replace(f.pieces[0], upper=upper),))
        data = formats.hfunction_to_json(f)
        piece = data["pieces"][0]
        assert piece["envelopes"]["left"]["provenance"] == "declared"
        assert piece["upper_envelopes"] == {
            "left": {"liminf": 1.0, "limsup": 3.0, "provenance": "estimated"}
        }
        back = formats.hfunction_from_json(json.loads(json.dumps(data)))
        assert back.pieces == f.pieces

    def test_evaluated_upper_end_is_recomputed(self, float_mode):
        # the lower bound's envelope is declared, the upper bound's is an
        # exact limit: upper_envelopes lists no left end, which is computed
        f = pw.hfunction(
            Domain.of(0, 1), [],
            [pw.make_piece(0.0, 1.0, ex.parse("sin(1/x) - 2"), ex.parse("x + 2"),
                           declared_left=(-3, -1), declared_upper=(None, None))],
        )
        assert f.pieces[0].upper.left.provenance == pw.EVALUATED
        data = formats.hfunction_to_json(f)
        assert data["pieces"][0]["upper_envelopes"] == {}
        assert formats.hfunction_from_json(data).pieces == f.pieces

    def test_unknown_provenance_rejected(self):
        data = {
            "domain": [-1, 1],
            "pieces": [{"on": [-1, 1], "lower": "x",
                        "envelopes": {"left": {"liminf": -1, "limsup": -1,
                                               "provenance": "guessed"}}}],
        }
        with pytest.raises(EngineError, match="provenance"):
            formats.hfunction_from_json(data)

    @pytest.mark.parametrize("upper", [None, "x"])
    def test_upper_envelopes_of_a_real_piece_rejected(self, upper):
        # a piece whose bounds are equal shares one envelope for both
        piece = {"on": [-1, 1], "lower": "x",
                 "upper_envelopes": {"left": {"liminf": -2, "limsup": 0}}}
        if upper is not None:
            piece["upper"] = upper
        with pytest.raises(EngineError, match="upper envelopes"):
            formats.hfunction_from_json({"domain": [-1, 1], "pieces": [piece]})

    def test_proper_piece_completion_survives_round_trip(self):
        # a proper piece [0, 1] on both sides of x = 1, with point value 0
        f = pw.hfunction(
            Domain.of(0, 2),
            [(pw.to_scalar(1), Interval.of(0, 0))],
            [pw.make_piece(pw.to_scalar(0), pw.to_scalar(1), ex.parse("0"), ex.parse("1")),
             pw.make_piece(pw.to_scalar(1), pw.to_scalar(2), ex.parse("0"), ex.parse("1"))],
        )
        back = formats.hfunction_from_json(
            json.loads(json.dumps(formats.hfunction_to_json(f)))
        )
        assert baire.graph_completion(back).eval_at(1) == Interval.of(0, 1)

    def test_upper_defaults_to_lower(self):
        data = {
            "domain": [-1, 1],
            "pieces": [{"on": [-1, 1], "lower": "x"}],
            "points": [],
        }
        f = formats.hfunction_from_json(data)
        assert f.pieces[0].is_real

    def test_missing_functions_key(self, tmp_path):
        path = tmp_path / "defs.json"
        path.write_text("{}")
        with pytest.raises(EngineError):
            formats.load_defs(str(path))


def _same_envelope(a, b):
    if a is None or b is None:
        return a is b
    return (a.provenance == b.provenance and scalars.scalar_eq(a.liminf, b.liminf)
            and scalars.scalar_eq(a.limsup, b.limsup))


def _envelopes(f):
    return [(p.lower.left, p.lower.right, p.upper.left, p.upper.right) for p in f.pieces]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from([(scalars.RATIONAL, None), (scalars.FLOAT, 1e-9)]),
    kind=st.sampled_from(["h", "s", "oscillation"]),
    combine=st.sampled_from(["none", "add", "mul"]),
)
def test_json_round_trip_is_lossless(seed, mode, kind, combine):
    # the oscillating pair has declared envelopes and exists in float mode only
    assume(kind != "oscillation" or mode[0] == scalars.FLOAT)
    with scalars.engine_mode(*mode):
        if kind == "oscillation":
            f, g = make_oscillation_pair()
        else:
            make = suite.h_continuous_suite if kind == "h" else suite.s_continuous_suite
            f, g = make(seed, 2)
        try:
            if combine == "add":
                f = pw.pointwise_add(f, g)
            elif combine == "mul":
                f = pw.pointwise_mul(f, g)
        except RepresentationError:
            # a product of proper interval pieces whose winning bound
            # product changes inside a piece
            assume(False)
        back = formats.hfunction_from_json(
            json.loads(formats.dumps_json(formats.hfunction_to_json(f)))
        )
        assert pw.func_equal(back, f)
        assert len(back.pieces) == len(f.pieces)
        for ours, theirs in zip(_envelopes(back), _envelopes(f)):
            assert all(map(_same_envelope, ours, theirs))


class TestGridCsv:
    def test_header_and_round_trip(self, step_pair):
        f, _ = step_pair
        grid = grid_sample(f, -1, "1/2", 5)
        buffer = io.StringIO()
        formats.grid_to_csv(grid, buffer)
        text = buffer.getvalue()
        assert text.splitlines()[0] == "x,lo,hi"
        back = formats.grid_from_csv(io.StringIO(text))
        assert back.values == grid.values
        assert back.x0 == grid.x0 and back.h == grid.h

    @pytest.mark.parametrize("text", [
        "x,lo,hi\n0,1,1\n1,2,2\n3,4,4\n",
        "x,lo,hi\n0,1,1\n1,2\n",
        "x,lo,hi\n0,1,1\n1/0,2,2\n",
    ], ids=["uneven-spacing", "two-columns", "zero-denominator"])
    def test_malformed_rows_rejected(self, text):
        with pytest.raises(EngineError):
            formats.grid_from_csv(io.StringIO(text))

    def test_single_row(self):
        grid = GridFunction(pw.to_scalar(0), pw.to_scalar(1), (Interval.of(5, 5),))
        buffer = io.StringIO()
        formats.grid_to_csv(grid, buffer)
        assert buffer.getvalue().splitlines() == ["x,lo,hi", "0,5,5"]
