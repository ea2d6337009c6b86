"""Fresh-process probes of nqsim's set-up cost.

    python3 perfbench/child.py setup WORKLOAD SEED SIZE
        imports nqsim (through nqsim.cli, as a user of the CLI does), builds
        the workload's inputs and prints "ready".  The parent times the
        process from its start until that line arrives.

    python3 perfbench/child.py imports
        imports the nine nqsim modules one at a time in dependency order,
        without running the package __init__ (which would import them all at
        once), and prints the seconds each import took as JSON.  A
        third-party library is charged to the first module that imports it:
        numpy to dynamics, scipy.stats to scaling.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))


def setup(workload: str, seed: int, size: str) -> None:
    sys.path.insert(0, str(SRC))
    import nqsim.cli  # noqa: F401

    from perfbench import workloads

    workloads.build(workload, seed, size)
    print("ready", flush=True)


def imports() -> None:
    from perfbench.spans import MODULES

    pkg_dir = SRC / "nqsim"
    spec = importlib.util.spec_from_file_location(
        "nqsim", pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    sys.modules["nqsim"] = importlib.util.module_from_spec(spec)
    seconds = {}
    for short in MODULES:
        t0 = time.perf_counter()
        importlib.import_module(f"nqsim.{short}")
        seconds[short] = time.perf_counter() - t0
    print(json.dumps(seconds), flush=True)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        imports()
