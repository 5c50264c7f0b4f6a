"""Third-party dependencies load only when a feature needs them.

`import thinker` stays inside the standard library, and so does the HTTP
backend: it speaks HTTP through `http.client`. Only reading YAML (a config
file, `--set`, `--print-config`) loads PyYAML; a shorthand flag such as
`--k` or `--p-fast` never does. The checks run in a fresh interpreter (this test process has loaded
PyYAML) where `requests` cannot be imported at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from stub_server import StubServer

SRC = Path(__file__).resolve().parents[1] / "src"

# certifi is left out: a site hook may load it before any user code runs.
_PROBE = """
import json, sys
sys.modules["requests"] = None  # any import of requests raises ImportError
watched = ("requests", "urllib3", "yaml")
loaded = lambda: sorted(m for m in watched if sys.modules.get(m) is not None)
snapshots = {}
import thinker, thinker.cli
snapshots["import"] = loaded()
from thinker import GenerationRequest, HttpBackend
from thinker.backend import BackendConfig
backend = HttpBackend(BackendConfig(kind="http", base_url=sys.argv[1]))
snapshots["http_backend"] = loaded()
result = backend.generate(GenerationRequest(
    messages=({"role": "user", "content": "hello"},), max_tokens=8, temperature=1.0, seed=1))
snapshots["generate"] = loaded()
snapshots["text"] = result.text
import contextlib, io
from thinker.cli import main
data, out = sys.argv[2] + "/d.jsonl", sys.argv[2] + "/out"
with contextlib.redirect_stdout(io.StringIO()):  # every run given only shorthand flags
    snapshots["codes"] = [
        main(["gen-data", "--n", "2", "--out", data]),
        main(["episode", "--backend", "scripted", "--p-fast", "0.5", "--t-p", "0.5",
              "--t-n", "0.5", "--p-slow", "0.5", "--question", "q", "--answer", "1"]),
        main(["rollout", "--dataset", data, "--batch-size", "1", "--samples-per-prompt", "1",
              "--parallelism", "1", "--out", out]),
        main(["eval", "--dataset", data, "--k", "1", "--mode", "thinker-fast", "--out", out]),
    ]
snapshots["flags"] = loaded()
from thinker.config import load_config
load_config(None, ["eval.k=1"])
snapshots["override"] = loaded()
print(json.dumps(snapshots))
"""


def _snapshots(base_url: str, tmp_dir: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE, base_url, tmp_dir], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_dependencies_load_on_first_use(tmp_path):
    with StubServer() as stub:
        snapshots = _snapshots(stub.base_url, str(tmp_path))
    assert snapshots["import"] == []
    assert snapshots["http_backend"] == []
    assert snapshots["generate"] == []
    assert snapshots["text"] == "\\boxed{ok}"
    assert snapshots["codes"] == [0, 0, 0, 0]
    assert snapshots["flags"] == []
    assert snapshots["override"] == ["yaml"]
