"""Third-party dependencies load only when a feature needs them.

`import thinker` stays inside the standard library, so a run that never
builds an HTTP client or reads YAML does not pay for `requests` or PyYAML.
The checks run in a fresh interpreter: this test process has loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# certifi is left out: a site hook may load it before any user code runs.
_PROBE = """
import json, sys
watched = ("requests", "urllib3", "yaml")
loaded = lambda: sorted(m for m in watched if m in sys.modules)
snapshots = {}
import thinker, thinker.cli
snapshots["import"] = loaded()
from thinker import HttpBackend
from thinker.backend import BackendConfig
HttpBackend(BackendConfig(kind="http"))
snapshots["http_backend"] = loaded()
from thinker.config import load_config
load_config(None, ["eval.k=1"])
snapshots["override"] = loaded()
print(json.dumps(snapshots))
"""


def _snapshots() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_dependencies_load_on_first_use():
    snapshots = _snapshots()
    assert snapshots["import"] == []
    assert snapshots["http_backend"] == ["requests", "urllib3"]
    assert snapshots["override"] == ["requests", "urllib3", "yaml"]
