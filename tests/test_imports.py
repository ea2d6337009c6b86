"""No command needs scipy or the tests' oracles, and the oracles stay independent.

nqsim computes the KS and sign-test p-values itself; scipy is a test-only
oracle.  Each check runs a fresh interpreter, one with
`sys.modules["scipy"] = None`, which makes every `import scipy` fail as if
scipy were not installed; nothing is uninstalled.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import nqsim
from nqsim.cli import main

SRC = str(Path(nqsim.__file__).resolve().parents[1])
BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'

# Every command, with the outputs it writes.
COMMANDS = [
    ("simulate", "--m", "5", "--neighborhood", "sym", "--steps", "2000", "--seed", "11",
     "--trajectory", "{dir}/sim-sym.jsonl", "--out", "{dir}/sim-sym.json"),
    ("simulate", "--m", "6", "--neighborhood", "asym", "--steps", "2000", "--seed", "12",
     "--trajectory", "{dir}/sim-asym.jsonl", "--out", "{dir}/sim-asym.json"),
    ("enumerate", "--m", "8", "--format", "json", "--out", "{dir}/enum-m8.json"),
    ("enumerate", "--m", "13", "--counts", "--out", "{dir}/enum-m13.txt"),
    ("verify", "--suite", "asym-odd", "--m", "5", "--replicas", "20", "--steps", "2000",
     "--seed", "1", "--out", "{dir}/asym-odd.json"),
    ("verify", "--suite", "asym-even", "--m", "6", "--replicas", "20", "--steps", "2000",
     "--seed", "2", "--out", "{dir}/asym-even.json"),
    ("verify", "--suite", "sym", "--m", "5", "--replicas", "20", "--steps", "4000",
     "--seed", "3", "--out", "{dir}/sym.json"),
    ("verify", "--suite", "appendix", "--m", "6", "--neighborhood", "sym", "--replicas", "20",
     "--steps", "2000", "--seed", "4", "--out", "{dir}/appendix-sym.json"),
    ("verify", "--suite", "appendix", "--m", "5", "--neighborhood", "asym", "--replicas", "20",
     "--steps", "2000", "--seed", "5", "--out", "{dir}/appendix-asym.json"),
    ("verify", "--suite", "algebra", "--m", "7", "--trials", "50", "--seed", "6",
     "--out", "{dir}/algebra.json"),
    ("scaling", "--m", "4", "--replicas", "100", "--steps", "2048", "--seed", "7",
     "--out", "{dir}/scaling.json"),
]


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300
    )


def _argvs(directory: Path) -> list[list[str]]:
    return [[a.format(dir=directory) for a in cmd] for cmd in COMMANDS]


def test_cli_import_leaves_test_only_modules_out():
    proc = _python(
        "import sys, nqsim.cli\n"
        "test_only = {'scipy', 'oracles', 'pytest', 'hypothesis'}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in test_only))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Reference oracles that live in tests/oracles.py and nowhere in the package.
ORACLES = ("step", "_draw_and_place", "transition_distribution", "classify_freeze", "total_variation",
           "is_limit_configuration", "parity_gap", "stat_S", "stat_Q", "stat_W", "pattern",
           "isolated_zero_centers", "neighborhood", "ReferenceLevelLog", "ReferenceParityGapSeries")


def test_package_defines_no_oracle():
    import oracles

    modules = [nqsim] + [sys.modules[f"nqsim.{short}"] for short in (
        "ring", "dynamics", "algebra", "observers", "limits", "levels", "ensemble", "scaling", "verify", "cli")]
    for name in ORACLES:
        assert callable(getattr(oracles, name))
        assert [mod.__name__ for mod in modules if hasattr(mod, name)] == [], name


# Modules an oracle may not import from: the code the oracles check.
CHECKED = {"levels", "observers", "limits", "ensemble", "statetable", "verify"}


def test_oracles_import_nothing_they_check():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []  # (module, name) for every name imported from nqsim
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    nqsim_names = [(mod.split("."), name) for mod, name in imported if mod.split(".")[0] == "nqsim"]
    assert nqsim_names, "the oracles import nothing from nqsim"
    for parts, name in nqsim_names:
        # `from nqsim import levels` names the module as the imported name
        module = parts[1] if len(parts) > 1 else name
        assert module not in CHECKED, (parts, name)
        if module == "scaling":
            assert name == "FreezeOutcome", (parts, name)


def test_no_command_imports_scipy(tmp_path):
    proc = _python(
        "import json, sys\nfrom nqsim.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))",
        json.dumps(_argvs(tmp_path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(COMMANDS), []]


def test_commands_without_scipy_write_the_same_bytes(tmp_path, capsys):
    blocked, plain = tmp_path / "blocked", tmp_path / "plain"
    blocked.mkdir()
    plain.mkdir()
    proc = _python(
        BLOCK_SCIPY + "import json\nfrom nqsim.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))",
        json.dumps(_argvs(blocked)),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(COMMANDS)
    assert [main(argv) for argv in _argvs(plain)] == [0] * len(COMMANDS), capsys.readouterr().err
    names = sorted(p.name for p in plain.iterdir())
    assert sorted(p.name for p in blocked.iterdir()) == names
    for name in names:
        assert (blocked / name).read_bytes() == (plain / name).read_bytes(), name


def test_sym_and_appendix_suites_leave_the_state_table_out():
    # Only asymmetric min-rule requests may take the state-table path, so
    # only they import its module.
    proc = _python(
        "import os, sys\n"
        "from nqsim.cli import main\n"
        "print('nqsim.statetable' in sys.modules)\n"
        "for flags in (['sym'], ['appendix', '--neighborhood', 'sym'],\n"
        "              ['appendix', '--neighborhood', 'asym']):\n"
        "    main(['verify', '--suite', *flags, '--m', '5', '--replicas', '2', '--steps', '300',\n"
        "          '--out', os.devnull])\n"
        "    print('nqsim.statetable' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"] * 4


def test_cli_import_builds_no_tie_row():
    proc = _python("import nqsim.cli, nqsim.dynamics as d\nprint(len(d._TIE_ROWS), d._TIE_ROWS.size)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def test_cli_import_loads_only_nqsim_and_numpy_and_builds_no_oracle_row():
    # Set-up work added to `import nqsim.cli` shows here before it shows in a
    # start-up benchmark: a new third-party package, or oracle rows built at import.
    proc = _python(
        "import sys\n"
        "before = {m.split('.')[0] for m in sys.modules}\n"
        "import numpy as np\n"
        "calls = []\n"
        "for name in ('tile', 'repeat'):\n"
        "    setattr(np, name, lambda *a, _f=getattr(np, name), **k: calls.append(1) or _f(*a, **k))\n"
        "import nqsim.cli, nqsim.limits\n"
        "loaded = {m.split('.')[0] for m in sys.modules} - before - set(sys.stdlib_module_names)\n"
        "arrays = [k for k, v in vars(nqsim.limits).items() if isinstance(v, np.ndarray)]\n"
        "print(sorted(loaded), len(calls), arrays)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['nqsim', 'numpy'] 0 []"


def test_cli_import_builds_no_parser():
    # The parser is built by the first `main` call, once per process.
    proc = _python(
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    made.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import nqsim.cli as cli\n"
        "at_import = len(made)\n"
        "for _ in range(2):\n"
        "    assert cli.main(['enumerate', '--m', '4', '--counts']) == 0\n"
        "    print('parsers', at_import, len(made), cli._parser.cache_info().misses, flush=True)\n"
    )
    assert proc.returncode == 0, proc.stderr
    first, second = [line.split()[1:] for line in proc.stdout.splitlines() if line.startswith("parsers")]
    # none at import; the first call builds them and the second builds no more
    assert first[0] == "0" and int(first[1]) > 0 and first[2] == "1"
    assert second == first
