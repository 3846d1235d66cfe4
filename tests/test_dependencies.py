"""The runtime dependency set: importing the library loads numpy and no
other third-party package.

Every process that imports ``repro`` (CLI runs, service workers, tuner
shards) pays the memory of each package it loads, so a stray
third-party import is a resident-set regression.  The check runs in a
fresh interpreter so modules the test runner itself loaded do not
count, and it subtracts whatever the interpreter loads at start-up
(``.pth`` hooks) before the library is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
from pathlib import Path
before = set(sys.modules)
import repro, repro.flows.tables, repro.tune, repro.service.server
third_party = sorted(
    name for name, module in list(sys.modules.items())
    if "." not in name and name not in before
    and {"site-packages", "dist-packages"} & set(
        Path(getattr(module, "__file__", None) or "").parts)
)
print(json.dumps(third_party))
"""


def test_only_numpy_is_loaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert json.loads(out) == ["numpy"]
