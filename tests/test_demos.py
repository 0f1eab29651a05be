"""Every demo runs end to end on a short session.

The demos call the library the way a reader would, so a change to a public
signature (the ``RandomSource`` a sampling function takes, say) breaks them
first.  Each runs in-process as ``__main__`` with a small ``--rounds``.
"""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# Demos without a --rounds option run with their own arguments.
NO_ROUNDS = {"interception_collapse_table.py"}


@pytest.mark.parametrize(
    "name", sorted(path.name for path in DEMOS.glob("*.py"))
)
def test_demo_runs(name, monkeypatch, capsys):
    args = [] if name in NO_ROUNDS else ["--rounds", "300"]
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
