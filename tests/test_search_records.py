"""The records script behind the "search is identical" check: on the
first three instances of each benchmark workload it prints one JSON line
per instance, with the documented keys, and a second run in this process
gives the same records."""

import json
import subprocess
import sys

import pytest

import search_records
from instances import WORKLOADS, build


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_records_name_each_instance_once_and_repeat(workload):
    done = subprocess.run(
        [sys.executable, search_records.__file__, "--workload", workload, "--seed", "3405",
         "--first", "3"], capture_output=True, text=True, timeout=120, check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert lines == list(search_records.records(workload, 3405, first=3))
    instances = build(workload, 3405)[:3]
    assert [r["name"] for r in lines] == [inst.name for inst in instances]
    for r, inst in zip(lines, instances):
        assert list(r) == ["name", "status", "objective", *search_records.KEYS]
        assert r["status"] in ("feasible", "infeasible", "optimal", "bounded", "timelimit")
        assert r["conflicts"] <= inst.max_conflicts
