"""The CLI runs whose outputs ``tests/test_golden.py`` pins byte for byte.

Two sets of runs, each rendered as ``exit = <code>`` followed by the
report:

- every fixture pair: ``check --output machine --witness`` under each
  method and ``strata --output machine`` on all ambient x monomials
  pairs, and ``goodpair``, ``dualize`` and ``induce`` in text and machine
  output on all ordered polytope pairs.  The fixture directory in error
  messages is written ``<fixtures>``.  They are stored in full in
  ``golden/cli_outputs.txt``, each under a ``### <case>`` header.
- the 1,000 random fan systems of acceptance criterion 06, written to
  files and run through the same four system commands.  Their outputs
  are stored as one SHA-256 prefix per system in
  ``golden/criterion06.txt``.
- ``delsarte`` and ``transpose`` in text and machine output on seeded
  square systems on weighted projective spaces: atomic sums, square
  matrices with entries 0-4 (most of them not decomposable, some with a
  cross term x_i*x_j), and two kinds of bad input that exit 2: a system
  with one row fewer than variables, and a degree that does not exceed
  every weight.  The work directory is written ``<work>``.  They are
  stored in full in ``golden/delsarte.txt``.

Regenerate the files by hand with ``python3 tests/make_golden.py``,
only when an output is meant to change.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

from generators import (
    _monomials_of_degree,
    random_atomic_sum,
    random_fan_system,
    wps_weights_for,
)
from qsmooth.cli import RunConfig, run
from qsmooth.linsys import format_monomials
from qsmooth.toric import format_ambient, make_wps

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
CLI_OUTPUTS = GOLDEN / "cli_outputs.txt"
CRITERION06 = GOLDEN / "criterion06.txt"
DELSARTE = GOLDEN / "delsarte.txt"
HEADER = "### "
METHODS = ("both", "rank", "polytope")
CRITERION06_SEED = 60_601
CRITERION06_SYSTEMS = 1000
DELSARTE_SEED = 71_301


def _render(cfg: RunConfig, placeholders: dict[str, str]) -> str:
    code, report = run(cfg)
    text = f"exit = {code}\n{report}\n"
    for path, name in placeholders.items():
        text = text.replace(path, name)
    return text


def _system_configs(ambient: str, monomials: str):
    """(label, config) for the four system commands on one file pair."""
    for method in METHODS:
        yield f"check {method}", RunConfig(
            "check", ambient, monomials, method=method, output="machine", witness=True
        )
    yield "strata", RunConfig("strata", ambient, monomials, output="machine")


def fixture_outputs() -> dict[str, str]:
    """Outputs of every fixture case, keyed by case name, in a fixed order."""
    places = {str(FIXTURES): "<fixtures>"}
    outputs = {}
    ambients = sorted(FIXTURES.glob("ambient_*.txt"))
    monomials = sorted(FIXTURES.glob("monomials_*.txt"))
    for amb, mon in itertools.product(ambients, monomials):
        for label, cfg in _system_configs(str(amb), str(mon)):
            outputs[f"{label} {amb.stem} {mon.stem}"] = _render(cfg, places)
    polytopes = sorted(FIXTURES.glob("poly_*.txt"))
    for p1, p2 in itertools.product(polytopes, repeat=2):
        for command in ("goodpair", "dualize", "induce"):
            for output in ("text", "machine"):
                cfg = RunConfig(command, p1_path=str(p1), p2_path=str(p2), output=output)
                outputs[f"{command} {output} {p1.stem} {p2.stem}"] = _render(cfg, places)
    return outputs


def criterion06_digests(workdir: Path) -> list[str]:
    """One SHA-256 prefix per criterion 06 system over its four outputs."""
    rng = random.Random(CRITERION06_SEED)
    ambient_path = workdir / "ambient.txt"
    monomials_path = workdir / "monomials.txt"
    places = {str(workdir): "<work>"}
    digests = []
    while len(digests) < CRITERION06_SYSTEMS:
        out = random_fan_system(rng)
        if out is None:
            continue
        ambient_path.write_text(format_ambient(out[0]), encoding="utf-8")
        monomials_path.write_text(format_monomials(out[2].exponents), encoding="utf-8")
        sha = hashlib.sha256()
        for _, cfg in _system_configs(str(ambient_path), str(monomials_path)):
            sha.update(_render(cfg, places).encode("utf-8"))
        digests.append(sha.hexdigest()[:20])
    return digests


def _wps_square_cases(rng: random.Random):
    """(label, weights, rows) of every Delsarte case, in a fixed order."""
    for i in range(1, 13):
        _, rows = random_atomic_sum(rng, rng.randint(1, 6), max_exp=5)
        yield f"atomic {i}", wps_weights_for(rows)[0], rows
    found = 0
    while found < 12:
        n = rng.randint(2, 4)
        rows = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(n)]
        if found < 4:
            i, j = rng.sample(range(n), 2)
            rows[0] = tuple(int(k in (i, j)) for k in range(n))
        pair = wps_weights_for(rows) if len(set(rows)) == n else None
        if pair is None or any(pair[1] <= w for w in pair[0]) or any(sum(r) < 2 for r in rows):
            continue
        found += 1
        yield f"square {found}", pair[0], rows
    for i in range(1, 5):
        _, rows = random_atomic_sum(rng, rng.randint(2, 5), max_exp=5)
        weights = wps_weights_for(rows)[0]
        yield f"not square {i}", weights, rows[:-1]
    found = 0
    while found < 4:
        weights = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 3)))
        pool = _monomials_of_degree(weights, rng.randint(1, max(weights)))
        if len(pool) < len(weights):
            continue
        found += 1
        yield f"degree too small {found}", weights, rng.sample(pool, len(weights))


def delsarte_outputs(workdir: Path) -> dict[str, str]:
    """``delsarte`` and ``transpose`` outputs of every Delsarte case."""
    rng = random.Random(DELSARTE_SEED)
    ambient_path = workdir / "ambient.txt"
    monomials_path = workdir / "monomials.txt"
    places = {str(workdir): "<work>"}
    outputs = {}
    for label, weights, rows in _wps_square_cases(rng):
        ambient_path.write_text(format_ambient(make_wps(weights)), encoding="utf-8")
        monomials_path.write_text(format_monomials(rows), encoding="utf-8")
        for command in ("delsarte", "transpose"):
            for output in ("text", "machine"):
                cfg = RunConfig(command, str(ambient_path), str(monomials_path), output=output)
                outputs[f"{command} {output} {label}"] = _render(cfg, places)
    return outputs


def format_cli_outputs(outputs: dict[str, str]) -> str:
    for name, text in outputs.items():
        if any(line.startswith(HEADER) for line in text.splitlines()):
            raise ValueError(f"output of {name!r} contains a header line")
    return "".join(f"{HEADER}{name}\n{text}" for name, text in outputs.items())


def parse_cli_outputs(text: str) -> dict[str, str]:
    outputs: dict[str, str] = {}
    name = None
    for line in text.splitlines(keepends=True):
        if line.startswith(HEADER):
            name = line[len(HEADER) :].rstrip("\n")
            outputs[name] = ""
        else:
            outputs[name] += line
    return outputs


def format_criterion06(digests: list[str]) -> str:
    return "".join(f"{i} {d}\n" for i, d in enumerate(digests, start=1))


def parse_criterion06(text: str) -> list[str]:
    return [line.split()[1] for line in text.splitlines()]
