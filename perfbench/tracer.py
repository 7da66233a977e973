"""Per-layer tracing of hfring from outside the package.

`Tracer.install` replaces the public functions listed in `LAYERS` with
wrappers that record one span per call; `Tracer.remove` puts the originals
back.  Nothing under ``src/`` changes: every call between hfring modules
goes through a module attribute (``pw.normalize``, ``ex.canonical``...), so
replacing the attribute also catches calls made inside the package.

A span's self time is its duration minus the time its child spans cover.
The tracer's own bookkeeping runs after a span ends and is counted as
covered by the parent, so it lands in no layer's self time; it shows only in
the traced pass time, and so in ``trace_overhead_frac``.

``interval`` and ``scalars`` stay unwrapped: their calls take well under a
microsecond, so per-call overhead would swamp them.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter_ns

from hfring import algebra, baire, cli, formats, order
from hfring import expr as ex
from hfring import piecewise as pw

_TIMED, _COUNTED, _OUTERMOST = "timed", "counted", "outermost"


def _canonical_noop(args, result):
    return "expr.canonical.noop", result == args[0]


def _func_equal_true(args, result):
    return "piecewise.func_equal.true", result is True


def _envelope_estimated(args, result):
    return (
        "piecewise.one_sided_envelope.estimated",
        result is not None and result.provenance == pw.ESTIMATED,
    )


def _json_bytes(args, result):
    return "formats.bytes_written", len(result.encode("utf-8"))


def _csv_bytes(args, result):
    # cli's `sample` hands grid_to_csv a freshly opened file, so the position
    # after the call is the number of bytes written
    return "formats.bytes_written", args[1].tell()


def _defs_bytes(args, result):
    return "formats.bytes_read", os.path.getsize(args[0])


# (metric prefix, owner, attribute, kind, observer).  A "counted" entry only
# counts calls: one_sided_envelope runs for every piece end, so spans there
# would mostly measure the tracer.  poly_coeffs recurses once per tree node;
# its "outermost" entry counts only the calls made from outside poly_coeffs,
# and the calls inside reach the original directly, at no cost.
LAYERS = (
    ("expr.parse", ex, "parse", _TIMED, None),
    ("expr.canonical", ex, "canonical", _TIMED, _canonical_noop),
    ("expr.poly_coeffs", ex, "poly_coeffs", _OUTERMOST, None),
    ("expr.exact_equal", ex, "exact_equal", _TIMED, None),
    ("piecewise.align", pw, "align", _TIMED, None),
    ("piecewise.pointwise_add", pw, "pointwise_add", _TIMED, None),
    ("piecewise.pointwise_mul", pw, "pointwise_mul", _TIMED, None),
    ("piecewise.normalize", pw, "normalize", _TIMED, None),
    ("piecewise.func_equal", pw, "func_equal", _TIMED, _func_equal_true),
    ("piecewise.HFunction.eval_at", pw.HFunction, "eval_at", _TIMED, None),
    ("piecewise.validate_envelopes", pw, "validate_envelopes", _TIMED, None),
    ("piecewise.one_sided_envelope", pw, "one_sided_envelope", _COUNTED,
     _envelope_estimated),
    ("baire.fis", baire, "fis", _TIMED, None),
    ("baire.fsi", baire, "fsi", _TIMED, None),
    ("baire.graph_completion", baire, "graph_completion", _TIMED, None),
    ("baire.grid_sample", baire, "grid_sample", _TIMED, None),
    ("baire.grid_fis", baire, "grid_fis", _TIMED, None),
    ("algebra.oplus_def1", algebra, "oplus_def1", _TIMED, None),
    ("algebra.otimes_def1", algebra, "otimes_def1", _TIMED, None),
    ("algebra.oplus_def2", algebra, "oplus_def2", _TIMED, None),
    ("algebra.otimes_def2", algebra, "otimes_def2", _TIMED, None),
    ("algebra.extend", algebra, "extend", _TIMED, None),
    ("order.infconv_approx", order, "infconv_approx", _TIMED, None),
    ("order.order_limit_stabilized", order, "order_limit_stabilized", _TIMED, None),
    ("order.order_limit_monotone", order, "order_limit_monotone", _TIMED, None),
    ("order.max_deviation", order, "max_deviation", _TIMED, None),
    ("formats.hfunction_to_json", formats, "hfunction_to_json", _TIMED, None),
    ("formats.hfunction_from_json", formats, "hfunction_from_json", _TIMED, None),
    ("formats.load_defs", formats, "load_defs", _TIMED, _defs_bytes),
    ("formats.dumps_json", formats, "dumps_json", _COUNTED, _json_bytes),
    ("formats.grid_to_csv", formats, "grid_to_csv", _COUNTED, _csv_bytes),
    ("cli.main", cli, "main", _TIMED, None),
)

# counters reported as a share of their function's calls: (metric, counter, calls of)
RATIOS = (
    ("expr.canonical.noop_frac", "expr.canonical.noop", "expr.canonical"),
    ("piecewise.func_equal.true_frac", "piecewise.func_equal.true",
     "piecewise.func_equal"),
    ("piecewise.one_sided_envelope.estimated_frac",
     "piecewise.one_sided_envelope.estimated", "piecewise.one_sided_envelope"),
)

# wrapped only to feed a counter; their own calls are not reported
_UNREPORTED_CALLS = {"formats.dumps_json", "formats.grid_to_csv"}


class Tracer:
    """Call counts, self time and counters, summed over every installed
    period."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter()
        self._covered = [0]  # per open span: ns covered by its children
        self._originals = []

    def install(self) -> None:
        for name, owner, attr, kind, observe in LAYERS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, owner, attr, original, kind, observe))

    def remove(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, owner, attr, original, kind, observe):
        calls, self_ns, counters, covered = (
            self.calls, self.self_ns, self.counters, self._covered
        )

        def observed(args, result):
            key, amount = observe(args, result)
            counters[key] += amount

        if kind == _COUNTED:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                calls[name] += 1
                if observe is not None:
                    start = perf_counter_ns()
                    observed(args, result)
                    covered[-1] += perf_counter_ns() - start
                return result

            return counted

        if kind == _OUTERMOST:
            def outermost(*args, **kwargs):
                setattr(owner, attr, original)
                try:
                    return original(*args, **kwargs)
                finally:
                    setattr(owner, attr, outermost)
                    calls[name] += 1

            return outermost

        def timed(*args, **kwargs):
            start = perf_counter_ns()
            covered.append(0)
            returned = False
            try:
                result = original(*args, **kwargs)
                returned = True
            finally:
                self_ns[name] += perf_counter_ns() - start - covered.pop()
                calls[name] += 1
                if returned and observe is not None:
                    observed(args, result)
                covered[-1] += perf_counter_ns() - start
            return result

        return timed

    def metrics(self, passes: int) -> dict:
        """Per-pass means over `passes` traced passes."""
        out = {}
        for name, _, _, kind, _ in LAYERS:
            if name in _UNREPORTED_CALLS:
                continue
            out[f"{name}.calls"] = self.calls[name] / passes
            if kind == _TIMED:
                out[f"{name}.self_s"] = self.self_ns[name] / 1e9 / passes
        for metric, counter, of in RATIOS:
            out[metric] = self.counters[counter] / self.calls[of] if self.calls[of] else 0.0
        out["formats.bytes_written"] = self.counters["formats.bytes_written"] / passes
        out["formats.bytes_read"] = self.counters["formats.bytes_read"] / passes
        return out
