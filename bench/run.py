"""Seeded, self-checking benchmark of the ``qsmooth`` command line.

    python3 bench/run.py --workload wps_wide --seed 1 --seconds 25 --trace 0

One timed operation is one in-process ``cli.run`` on a ``RunConfig``, from
parsing the input files to the finished report; a system's command
sequence is the operations run on one input system.  Argument parsing
(``cli.config_from_args``) is left out: a user pays it once per process.
The timed loop runs whole passes over the shuffled cases, at least one,
and stops at the pass boundary nearest ``--seconds``; a system's time is
the median over the passes.  Every output
is then checked against ``reference.py``, which shares no code with the
package.  ``--trace 1`` instead runs every case once untraced and once
with the package's functions wrapped by ``layers.py``, and prints
per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from qsmooth import cli  # noqa: E402

import reference as ref  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

_IMPORTED = time.perf_counter()

WARMUP_STRIDE = 4  # every 4th case in build order is run once before timing
VERTEX_SAMPLE = 40  # systems per run whose newton_vertices get the exact in-hull test
DUALIZE_SAMPLE = 24  # dualizable pairs per run that are dualized twice

END_TO_END = {
    "setup_s": "s",
    "systems_per_s": "1/s",
    "system_p50_ms": "ms",
    "system_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# verdicts of the worked fixtures of acceptance criteria 01-04
FIXTURE_EXPECT = {
    "product": ("quasismooth", None, None),
    "triple_line": ("not_quasismooth", "x2 x4", "no_degenerate_subcollection"),
    "p4": ("not_quasismooth", "x1 x2 x3", "all_faces_empty"),
    "blowup": ("quasismooth", None, None),
}


def _startup_age():
    """Seconds between the start of this process and ``_START``."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    age = uptime - start_ticks / os.sysconf("SC_CLK_TCK") - (time.perf_counter() - _START)
    return max(age, 0.0)


_STARTUP = _startup_age()


def sequence(case):
    """Fresh ``RunConfig``s for the command sequence of one case."""
    f = case.files

    def check(ambient, monomials):
        return cli.RunConfig("check", ambient_path=ambient, monomials_path=monomials,
                             method="both", output="machine", witness=True)

    if case.kind == "check":
        return [check(f["ambient"], f["monomials"])]
    if case.kind == "wps":
        return [check(f["ambient"], f["monomials"])] + [
            cli.RunConfig(cmd, ambient_path=f["ambient"], monomials_path=f["monomials"], output="machine")
            for cmd in ("delsarte", "transpose")
        ]
    return [
        cli.RunConfig("goodpair", p1_path=f["p1"], p2_path=f["p2"], output="machine"),
        cli.RunConfig("induce", p1_path=f["p1"], p2_path=f["p2"], output="machine",
                      out_ambient=f["induced_ambient"], out_monomials=f["induced_monomials"]),
        check(f["induced_ambient"], f["induced_monomials"]),
    ]


# ---------------------------------------------------------------------------
# output checks


def _verify_system(case, code, report, vertices):
    """``vertices``: True for the exact in-hull test of newton_vertices,
    False to skip it, or the expected 1-based vertex rows."""
    if vertices is True:
        vertices = ref.hull_vertices(case.rows)
    elif vertices is False:
        vertices = None
    qs = ref.check_report(report, case.rows, case.num_vars, case.relevant, vertices)
    ref.expect(code == (0 if qs else 1), f"check exit code {code} for quasismooth={qs}")
    if case.kind == "wps":
        ref.expect(qs, "atomic sum not quasismooth")
    fixture = case.data.get("fixture")
    if fixture:
        secs = ref.sections(report)
        status, failing, reason = FIXTURE_EXPECT[fixture]
        ref.expect(ref.section(secs, "verdict")["status"] == status, f"{fixture}: wrong verdict")
        if failing:
            fail = ref.section(secs, "failing_stratum")
            ref.expect((fail["vars"], fail["reason"]) == (failing, reason), f"{fixture}: wrong failure")
        witnesses = {w["vars"]: w for w in ref.witness_sections(secs)}
        if fixture == "product":
            w = witnesses["x2 x3"]
            ref.expect((w["rank_small"], w["rank_big"]) == ("2", "3"), "product: wrong witness ranks")
        if fixture == "blowup":
            ref.expect(witnesses["x2 x6"]["k"] == "1", "blowup: stratum x2 x6 is not k = 1")


def verify(case, results, vertices):
    """Check one case's command results; raises ``ref.Mismatch``."""
    codes = [code for code, _ in results]
    reports = [report for _, report in results]
    if case.kind == "check":
        _verify_system(case, codes[0], reports[0], vertices)
    elif case.kind == "wps":
        _verify_system(case, codes[0], reports[0], vertices)
        ref.expect(codes[1:] == [0, 0], "delsarte or transpose did not exit 0")
        ref.check_delsarte(reports[1], case.rows)
        ref.check_transpose(reports[2], case.rows, case.data["weights"], case.data["degree"])
    else:
        p1, p2 = case.data["p1"], case.data["p2"]
        good = ref.check_goodpair(reports[0], p1, p2)
        ref.expect(codes[0] == (0 if good else 1), "goodpair exit code")
        ref.expect(codes[1] == 0, "induce did not exit 0")
        with open(case.files["induced_ambient"], encoding="utf-8") as fh:
            ambient_text = fh.read()
        with open(case.files["induced_monomials"], encoding="utf-8") as fh:
            monomials_text = fh.read()
        rows, cones, corners = ref.check_induced(ambient_text, monomials_text, p1, p2)
        induced = workloads.Case(case.name, "check", {}, len(rows[0]), rows, ref.relevant_from_cones(cones))
        _verify_system(induced, codes[2], reports[2], corners)


def dualize_twice(case):
    """Reports of ``dualize`` on the pair and on its output (outside the timed loop)."""
    f = case.files
    code, first = cli.run(cli.RunConfig("dualize", p1_path=f["p1"], p2_path=f["p2"]))
    ref.expect(code == 0, "dualize did not exit 0")
    q1, q2 = f["p1"] + ".dual", f["p2"] + ".dual"
    for path, text in zip((q1, q2), first.split("# dual pair, second polytope")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    code, back = cli.run(cli.RunConfig("dualize", p1_path=q1, p2_path=q2))
    ref.expect(code == 0, "second dualize did not exit 0")
    return first, back


# ---------------------------------------------------------------------------
# runs


def run_sequence(case):
    cfgs = sequence(case)
    start = time.perf_counter()
    results = [cli.run(cfg) for cfg in cfgs]
    return time.perf_counter() - start, results


def timed(cases, seconds):
    """Whole passes over the cases, stopping at the pass boundary nearest ``seconds``.

    Returns each case's median sequence time, the loop time, the number of
    sequences run, the first pass's results, the operations attempted and
    failed, and the cases whose output changed between passes.
    """
    times = {case.name: [] for case in cases}
    first, attempted, failed, mismatched, passes = {}, 0, 0, set(), 0
    start = time.perf_counter()
    while True:
        for case in cases:
            elapsed, results = run_sequence(case)
            times[case.name].append(elapsed)
            attempted += len(results)
            failed += sum(1 for code, _ in results if code == cli.EXIT_ERROR)
            if case.name not in first:
                first[case.name] = results
            elif results != first[case.name]:
                mismatched.add(case.name)
        passes += 1
        loop_seconds = time.perf_counter() - start
        if loop_seconds + loop_seconds / passes / 2 >= seconds:
            break
    medians = [statistics.median(t) for t in times.values()]
    return medians, loop_seconds, passes * len(cases), first, attempted, failed, sorted(mismatched)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _pin_to_one_cpu():
    """Run on the lowest-numbered CPU this process may use.

    The cores of a shared virtual machine can differ in speed (one ran a
    fixed loop 20 % slower than the other here), and a run landing on
    either one at random would spread the figures.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    _pin_to_one_cpu()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work):
    rng = random.Random(f"{args.workload}:{args.seed}")
    started = time.perf_counter()
    cases = workloads.BUILDERS[args.workload](rng, work)
    warmup = cases[::WARMUP_STRIDE]  # build order: the same structural mix at every seed
    rng.shuffle(cases)
    vertex_sample = {c.name for c in rng.sample(cases, min(VERTEX_SAMPLE, len(cases)))}
    generated = time.perf_counter()
    for case in warmup:
        run_sequence(case)
    setup_s = _STARTUP + time.perf_counter() - _START
    print(f"set-up {setup_s:.3f} s: interpreter {_STARTUP:.3f} s, imports {_IMPORTED - _START:.3f} s, "
          f"inputs {generated - started:.3f} s, warm-up {time.perf_counter() - generated:.3f} s")

    if args.trace:
        # each case runs untraced and traced back to back, in alternating
        # order, so that both runs of a case see the same host speed
        tr, untraced, traced = layers.Tracer(), [], []
        for i, case in enumerate(cases):
            for traced_now in (i % 2 == 1, i % 2 == 0):
                if traced_now:
                    with layers.traced(tr):
                        traced.append(run_sequence(case))
                else:
                    untraced.append(run_sequence(case))
        first = {case.name: results for case, (_, results) in zip(cases, untraced)}
        everything = [results for _, results in untraced + traced]
        attempted = sum(len(results) for results in everything)
        failed = sum(1 for results in everything for code, _ in results if code == cli.EXIT_ERROR)
        mismatched = [f"{case.name}: traced output differs" for case, (_, a), (_, b)
                      in zip(cases, untraced, traced) if a != b]
        values = layers.summary(tr, [t for t, _ in untraced], [t for t, _ in traced])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.LAYER_METRICS.items()}
    else:
        medians, loop_s, sequences, first, attempted, failed, mismatched = timed(cases, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "systems_per_s": sequences / loop_s,
            "system_p50_ms": percentile(medians, 0.50) * 1e3,
            "system_p95_ms": percentile(medians, 0.95) * 1e3,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"timed {sequences} command sequences over {len(cases)} distinct cases in {loop_s:.2f} s")
        mismatched = [f"{name}: output differs between passes" for name in mismatched]

    problems, dualized = list(mismatched), 0
    for case in cases:
        results = first[case.name]
        if any(code == cli.EXIT_ERROR for code, _ in results):
            report = next(report for code, report in results if code == cli.EXIT_ERROR)
            problems.append(f"{case.name}: failed operation: {report!r}")
            continue
        try:
            verify(case, results, case.name in vertex_sample)
            pair = case.data.get("p1"), case.data.get("p2")
            if case.kind == "pair" and dualized < DUALIZE_SAMPLE and ref.dualizable(*pair):
                ref.check_dualize(*dualize_twice(case), *pair)
                dualized += 1
        except Exception as exc:  # any check that cannot complete is a wrong output
            problems.append(f"{case.name}: {exc!r}")
    for line in problems[:20]:
        print(f"CHECK FAILED {line}", file=sys.stderr)

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1

if __name__ == "__main__":
    sys.exit(main())
