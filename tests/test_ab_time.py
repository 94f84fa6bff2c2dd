"""The interleaved A/B script behind every solve-time claim: against this
checkout it finds every search identical and prints a ratio per round
and a median; against a tree whose search differs, ``--identical`` makes
it exit 1."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ab_time
from instances import WORKLOADS

SCRIPT = Path(ab_time.__file__).resolve()
ROOT = SCRIPT.parent.parent


def run(against, workload, *extra):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--against", str(against), "--workload", workload,
         "--seed", "3407", "--first", "3", "--rounds", "1", *extra],
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_against_this_checkout_is_identical(workload):
    done = run(ROOT, workload, "--identical")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"round 1: here \d+\.\d{3} s, against \d+\.\d{3} s, ratio \d+\.\d{4}",
                        lines[0]), lines
    assert re.fullmatch(r"median ratio \d+\.\d{4} over 1 round\(s\), 3 instances", lines[1]), lines
    assert lines[2:] == ["differing: 0 of 3 instances"]


def test_identical_fails_on_a_search_that_differs(tmp_path):
    # a copy of the solver whose activity grows ten times faster decides otherwise
    shutil.copytree(ROOT / "src" / "intsat", tmp_path / "src" / "intsat")
    search = tmp_path / "src" / "intsat" / "search.py"
    text = search.read_text(encoding="utf-8")
    assert "ACTIVITY_BUMP_FACTOR, ACTIVITY_RESCALE_CAP = 1.05," in text
    search.write_text(text.replace("ACTIVITY_BUMP_FACTOR, ACTIVITY_RESCALE_CAP = 1.05,",
                                   "ACTIVITY_BUMP_FACTOR, ACTIVITY_RESCALE_CAP = 1.5,"),
                      encoding="utf-8")
    loose, strict = run(tmp_path, "clausal-res"), run(tmp_path, "clausal-res", "--identical")
    assert (loose.returncode, strict.returncode) == (0, 1), (loose.stderr, strict.stderr)
    for done in (loose, strict):  # the same report, and only the exit code differs
        counted = re.search(r"^differing: (\d) of 3 instances$", done.stdout, re.M)
        assert counted and int(counted.group(1)) > 0, done.stdout
