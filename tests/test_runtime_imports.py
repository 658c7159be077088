"""numpy is the only runtime dependency: no entry point imports scipy.

scipy is a test extra (the oracle of ``tests/test_core_multibit.py`` and
of the standard-normal pair in ``repro.core.noise_margin``), so a
runtime import of it would break ``pip install .`` without extras.
"""

import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: The CLI, the exhibits, the campaign driver, the server and the store.
ENTRY_POINTS = (
    "repro.cli",
    "repro.analysis.experiments",
    "repro.analysis.campaign",
    "repro.serve.server",
    "repro.store",
)


def test_entry_points_do_not_import_scipy():
    """A fresh interpreter, because this test process may hold scipy
    already (the oracle tests import it)."""
    code = (
        "import importlib, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
