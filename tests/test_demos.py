"""Every demo runs to completion in a fresh process and leaves no files.

Each run gets ``TMPDIR`` and its working directory set to the test's
``tmp_path``, which must be empty afterwards.  The Monte Carlo study
runs twice and must print the same bytes both times.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert [p.stem for p in DEMOS] == [
        "exact_vs_estimated",
        "guarantee_tables",
        "monte_carlo_study",
        "ranked_structures",
        "structure_search",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    env = child_env()
    env["TMPDIR"] = str(tmp_path)
    runs = 2 if demo.stem == "monte_carlo_study" else 1
    outputs = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, cwd=tmp_path, env=env
        )
        assert proc.returncode == 0, (demo.name, proc.stderr.decode())
        outputs.append(proc.stdout)
    assert len(set(outputs)) == 1
    assert list(tmp_path.iterdir()) == []


def test_guarantee_demo_trial_3_skips_the_zero_over_zero_step(tmp_path):
    # target 3's chain (4.3e-34, 0.0) floors to a 0/0 step, which once read
    # as ratio 1 and gave alpha 1.0000 and guarantee 0.6321; skipped, alpha
    # is the largest real ratio
    demo = next(p for p in DEMOS if p.stem == "guarantee_tables")
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, cwd=tmp_path,
        env=child_env(), check=True, text=True,
    )
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert ["3", "0.4718", "0.7431", "1.0000"] in rows
