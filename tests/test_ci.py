"""The repository's documents agree with it: the CI workflow runs the tier-1
command that ROADMAP.md names, under a time limit, with pip's cache keyed on
pyproject.toml, and the README layout names every module of the package."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_workflow_runs_the_roadmap_tier1_command_with_a_timeout():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    assert job["timeout-minutes"] == 20
    (run,) = [step["run"] for step in job["steps"] if step.get("name") == "Tier-1 tests"]
    (command,) = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    assert run.strip() == command


def test_workflow_caches_pip_on_pyproject():
    # setup-python keys its pip cache on requirements*.txt unless told
    # otherwise, and the repository has none: the dependencies are in pyproject.toml
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    (setup,) = [step["with"] for step in job["steps"] if step.get("uses", "").startswith("actions/setup-python")]
    assert setup["cache"] == "pip"
    assert setup["cache-dependency-path"] == "pyproject.toml"


def test_readme_layout_names_every_module():
    (block,) = re.findall(r"## Layout\n\n```\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    package = block.split("src/nqsim/\n")[1].split("tests/")[0]
    listed = re.findall(r"^  (\S+\.py) ", package, re.M)
    assert sorted(listed) == sorted(p.name for p in (ROOT / "src" / "nqsim").glob("*.py") if p.name != "__init__.py")
    assert len(set(listed)) == len(listed)
