"""Rewrite the golden CLI outputs that ``tests/test_golden.py`` compares.

Run by hand from the repository root, only when an output is meant to
change, and review the diff of ``tests/golden/`` before committing it::

    PYTHONPATH=src python3 tests/make_golden.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import golden_cases as gc  # noqa: E402


def main() -> None:
    gc.GOLDEN.mkdir(exist_ok=True)
    outputs = gc.fixture_outputs()
    gc.CLI_OUTPUTS.write_text(gc.format_cli_outputs(outputs), encoding="utf-8")
    with tempfile.TemporaryDirectory() as work:
        digests = gc.criterion06_digests(Path(work))
        delsarte = gc.delsarte_outputs(Path(work))
    gc.CRITERION06.write_text(gc.format_criterion06(digests), encoding="utf-8")
    gc.DELSARTE.write_text(gc.format_cli_outputs(delsarte), encoding="utf-8")
    print(f"wrote {len(outputs)} outputs to {gc.CLI_OUTPUTS}")
    print(f"wrote {len(digests)} system digests to {gc.CRITERION06}")
    print(f"wrote {len(delsarte)} outputs to {gc.DELSARTE}")


if __name__ == "__main__":
    main()
