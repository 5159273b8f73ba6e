"""Golden ``--help`` texts of the CLI.

Every flag, default, choice list and help string of ``repro --help``
and of each subcommand is compared byte for byte against
``tests/golden/cli_help/``.  argparse wraps help to the terminal width,
so the width is pinned through ``COLUMNS``.  Regenerate with
``PYTHONPATH=src python tests/test_cli_help.py`` only when a help
change is intentional.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli_help"
COMMANDS = (
    "plan", "run", "kmeans", "explain", "resiliency", "chaos", "workload",
    "continuous", "advise",
)
COLUMNS = "100"


def render_help(command: str | None) -> str:
    """What ``repro [command] --help`` prints at the pinned width."""
    argv = ["--help"] if command is None else [command, "--help"]
    out = io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": COLUMNS}):
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
            main(argv)
    assert exit_.value.code == 0
    return out.getvalue()


def golden_path(command: str | None) -> Path:
    return GOLDEN_DIR / f"{command or 'repro'}.txt"


@pytest.mark.parametrize("command", [None, *COMMANDS], ids=lambda c: c or "repro")
def test_help_matches_golden(command):
    expected = golden_path(command).read_text(encoding="utf-8")
    assert render_help(command) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in (None, *COMMANDS):
        golden_path(name).write_text(render_help(name), encoding="utf-8")
    sys.exit(0)
