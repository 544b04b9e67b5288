"""Per-layer timings and counts taken from the package's own calls.

``traced(tracer)`` replaces public functions of the package's modules with
wrappers that time each call and count what it returns, and puts the
originals back when it ends.  The package calls these functions through
module attributes (``_linsys.monomial_system``, ``_poly.hull``,
``check_stratum_rank`` inside ``qscheck``, ...), so the wrappers see
exactly the calls ``cli.run`` makes, and a change to which calls it makes
shows in the figures.  Nothing in ``src/`` is edited.

Times are inclusive: ``linsys.build`` holds the ``polytope.hull`` calls
made inside it, and ``polytope.hull`` holds every hull call wherever it
is made.  A function that calls itself is timed at its outermost call.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from qsmooth import delsarte, duality, linsys, polytope, qscheck, toric

# span name -> (module, function)
SPANS = {
    "toric.parse": (toric, "parse_ambient_text"),
    "toric.relevant_subsets": (toric, "relevant_subsets"),
    "linsys.parse": (linsys, "parse_monomials_text"),
    "linsys.build": (linsys, "monomial_system"),
    "linsys.strata": (linsys, "base_locus_strata"),
    "polytope.hull": (polytope, "hull"),
    "polytope.load": (polytope, "load_polytope"),
    "polytope.polar": (polytope, "polar_dual"),
    "polytope.lattice_points": (polytope, "lattice_points"),
    "polytope.canonical": (polytope, "is_canonical"),
    "qscheck.decide": (qscheck, "is_quasismooth"),
    "qscheck.rank": (qscheck, "check_stratum_rank"),
    "qscheck.polytope": (qscheck, "check_stratum_polytope"),
    "qscheck.render": (qscheck, "certificate_lines"),
    "delsarte.classify": (delsarte, "classify_atomic"),
    "delsarte.transpose": (delsarte, "transpose_dual"),
    "duality.goodpair": (duality, "good_pair_check"),
    "duality.induce": (duality, "induced_system"),
}

# name -> unit; a time is the span's total per system over one pass
LAYER_METRICS = {
    "cli.run_ms": "ms",
    "cli.run_p50_ms": "ms",
    "trace.total_p50_ms": "ms",
    "trace.overhead": "ratio",
    "trace.systems": "count",
    "toric.parse_ms": "ms",
    "toric.relevant_subsets_ms": "ms",
    "toric.relevant_subsets": "count",
    "linsys.parse_ms": "ms",
    "linsys.build_ms": "ms",
    "linsys.hull_systems": "count",
    "linsys.vertex_fraction": "ratio",
    "linsys.strata_ms": "ms",
    "linsys.strata": "count",
    "linsys.strata_yield": "ratio",
    "polytope.hull_ms": "ms",
    "polytope.load_ms": "ms",
    "polytope.polar_ms": "ms",
    "polytope.lattice_points_ms": "ms",
    "polytope.canonical_ms": "ms",
    "qscheck.rank_ms": "ms",
    "qscheck.polytope_ms": "ms",
    "qscheck.strata_checked": "count",
    "qscheck.strata_needed": "count",
    "qscheck.useful_ratio": "ratio",
    "qscheck.render_ms": "ms",
    "delsarte.classify_ms": "ms",
    "delsarte.transpose_ms": "ms",
    "duality.goodpair_ms": "ms",
    "duality.induce_ms": "ms",
}


class Tracer:
    """Span times (seconds) and counts for one pass."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._open = defaultdict(int)
        self._build_hulled = False
        self._tested = None  # stratum -> failed, for the decision under way

    def wrap(self, name, fn):
        def span(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            self._enter(name)
            self._open[name] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[name] += perf_counter() - start
                self._open[name] -= 1
            self._leave(name, args, out)
            return out

        return span

    def _enter(self, name):
        if name == "linsys.build":
            self._build_hulled = False
        elif name == "polytope.hull" and self._open["linsys.build"]:
            self._build_hulled = True
        elif name == "qscheck.decide":
            self._tested = {}

    def _leave(self, name, args, out):
        c = self.counts
        if name == "toric.relevant_subsets":
            c["toric.relevant_subsets"] += len(out)
        elif name == "linsys.build":
            c["linsys.rows"] += len(out.exponents)
            c["linsys.vertex_rows"] += len(out.vertex_rows)
            c["linsys.hull_systems"] += self._build_hulled
        elif name == "linsys.strata":
            c["linsys.strata"] += len(out)
        elif name in ("qscheck.rank", "qscheck.polytope") and self._tested is not None:
            key = tuple(sorted(args[1]))
            self._tested[key] = self._tested.get(key, False) or isinstance(out, qscheck.StratumFailure)
        elif name == "qscheck.decide":
            failed = list(self._tested.values())  # in the order the strata were first tested
            c["qscheck.strata_checked"] += len(failed)
            c["qscheck.strata_needed"] += failed.index(True) + 1 if True in failed else len(failed)
            self._tested = None


@contextmanager
def traced(tracer):
    """Route the package's calls of the ``SPANS`` functions through ``tracer``."""
    originals = [(module, attr, getattr(module, attr)) for module, attr in SPANS.values()]
    for name, (module, attr) in SPANS.items():
        setattr(module, attr, tracer.wrap(name, getattr(module, attr)))
    try:
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def summary(tr, untraced_seconds, traced_seconds):
    """Per-layer metrics of one traced pass, in LAYER_METRICS order.

    ``untraced_seconds`` and ``traced_seconds`` hold each system's sequence
    time in the untraced and the traced pass over the same cases.
    """
    n = len(untraced_seconds)

    def ratio(a, b):
        return a / b if b else 0.0

    c = tr.counts
    cli_p50 = sorted(untraced_seconds)[n // 2] * 1e3
    traced_p50 = sorted(traced_seconds)[n // 2] * 1e3
    values = {
        "cli.run_ms": sum(untraced_seconds) * 1e3 / n,
        "cli.run_p50_ms": cli_p50,
        "trace.total_p50_ms": traced_p50,
        "trace.overhead": ratio(traced_p50, cli_p50) - 1.0,
        "trace.systems": n,
        "toric.relevant_subsets": c["toric.relevant_subsets"],
        "linsys.hull_systems": c["linsys.hull_systems"],
        "linsys.vertex_fraction": ratio(c["linsys.vertex_rows"], c["linsys.rows"]),
        "linsys.strata": c["linsys.strata"],
        "linsys.strata_yield": ratio(c["linsys.strata"], c["toric.relevant_subsets"]),
        "qscheck.strata_checked": c["qscheck.strata_checked"],
        "qscheck.strata_needed": c["qscheck.strata_needed"],
        "qscheck.useful_ratio": ratio(c["qscheck.strata_needed"], c["qscheck.strata_checked"]),
    }
    for name in LAYER_METRICS:
        if name not in values:
            values[name] = tr.seconds[name[:-3]] * 1e3 / n
    return values
