"""The runtime needs numpy alone: scipy is a test dependency."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_runtime_imports_load_no_scipy():
    code = ("import json, sys\n"
            "import quantlio, quantlio.cli, quantlio.pipeline, quantlio.estimator\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'scipy' or m.startswith('scipy.'))))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == []
