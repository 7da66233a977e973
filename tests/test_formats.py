import io
import json
from fractions import Fraction

import pytest

from hfring import baire, formats
from hfring import expr as ex
from hfring import piecewise as pw
from hfring import scalars, suite
from hfring.baire import GridFunction, grid_sample
from hfring.errors import EngineError
from hfring.interval import Interval
from hfring.piecewise import Domain

from conftest import DATA_DIR, make_step_pair


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
            env = g.pieces[0].lower_right
            assert env.provenance == "declared"
            assert env.liminf == -1 and env.limsup == 1

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
