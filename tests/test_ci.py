"""The CI workflow runs the tier-1 command that ROADMAP.md names, under a time limit."""
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
