"""Per-layer spans recorded from outside veridyn.

The tracer wraps veridyn's public functions and methods, replacing each one
in every veridyn module namespace that imported it, so calls made through
`from .x import f` are timed too.  A span is (name, start, end, parent);
a call nested directly inside a span of the same name is folded into it
(write_json -> write_text, a pipeline map calling its parts), so a span
marks the outermost call into a layer.  Self time is a span's duration
minus the durations of its child spans.

Spans are kept in memory for one operation at a time and summarised by
`summary()` into the per-layer metrics of PER_LAYER.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

# (metric, unit, better); "s" metrics are self times of the span named by
# the metric minus its "_s" suffix, except cli.self_s.
PER_LAYER = (
    ("cli.self_s", "s", "lower"),
    ("scenario.parse_s", "s", "lower"),
    ("formats.write_s", "s", "lower"),
    ("formats.bytes", "bytes", "lower"),
    ("dynamics.map_evals", "count", "lower"),
    ("dynamics.map_eval_s", "s", "lower"),
    ("dynamics.sweep_s", "s", "lower"),
    ("dynamics.critical_s", "s", "lower"),
    ("dynamics.fixed_point_calls", "count", "lower"),
    ("dynamics.simulate_s", "s", "lower"),
    ("dynamics.lyapunov_s", "s", "lower"),
    ("cascade.spectrum_s", "s", "lower"),
    ("cascade.spectrum_calls", "count", "lower"),
    ("cascade.eigs_verified", "count", "higher"),
    ("cascade.max_residual", "ratio", "lower"),
    ("cascade.fixed_points_s", "s", "lower"),
    ("category.squares_s", "s", "lower"),
    ("category.squares_checked", "count", "higher"),
    ("category.functor_laws_s", "s", "lower"),
    ("coalgebra.theta_s", "s", "lower"),
    ("coalgebra.theta_iterations", "count", "lower"),
    ("entropy.probstates", "count", "lower"),
    ("entropy.probstate_s", "s", "lower"),
    ("entropy.shannon_s", "s", "lower"),
    ("entropy.pushforward_s", "s", "lower"),
    ("phase.lock_space_s", "s", "lower"),
    ("phase.pairing_s", "s", "lower"),
    ("phase.pairs", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

SELF_TIME = {"cli": "cli.self_s", "scenario.parse": "scenario.parse_s",
             "formats.write": "formats.write_s"}


def _written_bytes(counts, result, args):
    path, payload = args[0], args[1]
    counts["formats.bytes"] += (len(payload.encode("utf-8")) if isinstance(payload, str)
                                else os.path.getsize(path))


def _squares(counts, result, args):
    counts["category.squares_checked"] += (
        sum(e["status"] == "checked" for e in result) if isinstance(result, list) else 1)


def _spectrum(counts, result, args):
    counts["cascade.spectrum_calls"] += 1
    counts["cascade.eigs_verified"] += len(result.residuals)
    counts["cascade.max_residual"] = max(counts["cascade.max_residual"],
                                         max(result.residuals, default=0.0))


def _theta(counts, result, args):
    counts["coalgebra.theta_iterations"] += result.iterations


def _counter(metric):
    def count(counts, result, args):
        counts[metric] += 1
    return count


def _pairs(counts, result, args):
    counts["phase.pairs"] += result.size


def _targets():
    """(owner, attribute, span name or None, count callback) for every wrapped call.

    A span name of None wraps for counting only: the time stays with the caller.
    """
    from veridyn import (_formats, cascade, category, cli, coalgebra, dynamics,
                         entropy, phase, scenario)
    out = [(cli, "main", "cli", None)]
    out += [(cli, n, "cli", None) for n in dir(cli) if n.startswith("cmd_")]
    out += [(scenario, n, "scenario.parse", None)
            for n in ("load_scenario", "parse_universe", "parse_map_spec",
                      "parse_cascade_spec", "parse_entropy_params", "parse_theta_operator")]
    out += [(_formats, "write_text", "formats.write", _written_bytes),
            (_formats, "write_json", "formats.write", _written_bytes)]
    out += [(cls, "__call__", "dynamics.map_eval", _counter("dynamics.map_evals"))
            for cls in (dynamics.AffineMap, dynamics.PolynomialMap,
                        dynamics.PipelineMap, dynamics.WeightedSumMap)]
    out += [(dynamics, "sweep_bifurcation", "dynamics.sweep", None),
            (dynamics, "find_critical_r", "dynamics.critical", None),
            (dynamics, "find_fixed_point", None, _counter("dynamics.fixed_point_calls")),
            (dynamics, "simulate_coupled", "dynamics.simulate", None),
            (dynamics, "lyapunov_trace", "dynamics.lyapunov", None),
            (cascade, "spectrum", "cascade.spectrum", _spectrum),
            (cascade, "cascade_fixed_points", "cascade.fixed_points", None),
            (category.Universe, "all_square_checks", "category.squares", _squares),
            (category, "check_observer_square", "category.squares", _squares),
            (category, "check_verification_square", "category.squares", _squares),
            (category, "validate_functor", "category.functor_laws", None),
            (coalgebra, "iterate_to_theta", "coalgebra.theta", _theta),
            (coalgebra, "verify_theta", "coalgebra.theta", None),
            (coalgebra, "build_chain", "coalgebra.theta", None),
            (entropy.ProbState, "__init__", "entropy.probstate",
             _counter("entropy.probstates")),
            (entropy, "shannon_entropy", "entropy.shannon", None),
            (entropy, "pushforward", "entropy.pushforward", None),
            (phase, "phase_lock_space", "phase.lock_space", None),
            (phase, "interference_pairing", "phase.pairing", _pairs)]
    return out


class Tracer:
    """Installs span wrappers on veridyn and turns each operation's spans into metrics."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, result, args)
            return result

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, result, args)
            return result

        return spanned if name is not None else counted

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "veridyn" or k.startswith("veridyn.")]
        for owner, attr, name, count in _targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, count)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def summary(self) -> tuple[dict[str, float], float]:
        """Per-layer metrics of the spans recorded since reset, and their summed self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs: defaultdict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            selfs[name] += end - start - inner
        metrics = {m: 0.0 for m, _, _ in PER_LAYER if m != "trace.overhead_s"}
        for name, value in selfs.items():
            metrics[SELF_TIME.get(name, name + "_s")] = value
        metrics.update(self.counts)
        return metrics, sum(selfs.values())
