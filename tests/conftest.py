import os
import warnings

import pytest

from hfring import expr as ex
from hfring import piecewise as pw
from hfring import scalars
from hfring.interval import Interval
from hfring.piecewise import Domain

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# hypothesis imports this module (and through it libcst) only once a
# property has failed; some libcst releases raise a DeprecationWarning on
# import, which under `-W error` aborts the whole run with INTERNALERROR
# instead of reporting the failure.  Importing it here, warnings muted,
# leaves nothing to warn later.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(autouse=True)
def rational_mode():
    """Each test starts in exact mode with default settings."""
    with scalars.engine_mode(scalars.RATIONAL, scalars.DEFAULT_TOLERANCE, scalars.DEFAULT_SEED):
        yield


def make_step_pair():
    """Unit step with jump at 0 and its reflection: the classic pair whose
    pointwise sum spikes to [-1, 1] at the origin."""
    dom = Domain(None, None)
    zero = pw.to_scalar(0)
    f = pw.hfunction(
        dom,
        [(zero, Interval.of(0, 1))],
        [
            pw.make_piece(None, zero, ex.parse("0")),
            pw.make_piece(zero, None, ex.parse("1")),
        ],
    )
    g = pw.hfunction(
        dom,
        [(zero, Interval.of(-1, 0))],
        [
            pw.make_piece(None, zero, ex.parse("0")),
            pw.make_piece(zero, None, ex.parse("-1")),
        ],
    )
    return f, g


def make_oscillation_pair():
    """sin(1/x) and cos(1/x) with declared [-1, 1] envelopes at 0.
    Float mode only."""
    dom = Domain(None, None)
    zero = pw.to_scalar(0)
    def osc(name):
        return pw.hfunction(
            dom,
            [(zero, Interval.of(-1, 1))],
            [
                pw.make_piece(None, zero, ex.parse(f"{name}(1/x)"),
                              declared_right=(-1, 1)),
                pw.make_piece(zero, None, ex.parse(f"{name}(1/x)"),
                              declared_left=(-1, 1)),
            ],
        )
    return osc("sin"), osc("cos")


@pytest.fixture
def step_pair():
    return make_step_pair()


@pytest.fixture
def float_mode():
    with scalars.engine_mode(scalars.FLOAT, 1e-9):
        yield


@pytest.fixture
def oscillation_pair(float_mode):
    return make_oscillation_pair()
