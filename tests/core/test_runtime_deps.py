"""The package imports with the standard library alone.

numpy and scipy serve only the LP cross-check in :mod:`repro.core.mixed`
and its test, so they are a ``dev`` extra, not runtime dependencies:
nothing on the fleet or service path may pull them in.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_fleet_and_service_import_without_numpy_or_scipy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import repro.experiments.fleet, repro.service\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"
