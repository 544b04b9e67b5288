"""CLI outputs stay byte-identical to the checked-in golden files.

The cases are listed in ``golden_cases.py``; ``make_golden.py`` rewrites
the files by hand when an output is meant to change.
"""

import pytest

import golden_cases as gc

EXPECTED = gc.parse_cli_outputs(gc.CLI_OUTPUTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def outputs():
    return gc.fixture_outputs()


def test_case_list_matches_golden_file(outputs):
    assert list(outputs) == list(EXPECTED)
    assert len(outputs) == 168


@pytest.mark.parametrize("name", list(EXPECTED))
def test_fixture_output(outputs, name):
    assert outputs[name] == EXPECTED[name]


def test_criterion06_systems(tmp_path):
    expected = gc.parse_criterion06(gc.CRITERION06.read_text(encoding="utf-8"))
    digests = gc.criterion06_digests(tmp_path)
    assert len(expected) == gc.CRITERION06_SYSTEMS
    mismatched = [i for i, (a, b) in enumerate(zip(digests, expected), start=1) if a != b]
    assert not mismatched, f"systems whose outputs changed: {mismatched[:20]}"


def test_delsarte_outputs(tmp_path):
    expected = gc.parse_cli_outputs(gc.DELSARTE.read_text(encoding="utf-8"))
    outputs = gc.delsarte_outputs(tmp_path)
    assert list(outputs) == list(expected)
    assert len(outputs) == 128
    mismatched = [name for name in outputs if outputs[name] != expected[name]]
    assert not mismatched, f"cases whose outputs changed: {mismatched[:20]}"
