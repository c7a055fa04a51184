"""Every job of the benchmark catalogue, run once through cli.main and judged by
the benchmark's own verdicts against its reference reports
(perfbench/reference/): a change in a report's keys, order or values shows
here before it shows in a benchmark run."""

import pathlib
import sys

import pytest

from balayage import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import catalogue  # noqa: E402
import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(catalogue.WORKLOADS))
def test_every_catalogue_job_matches_its_reference(workload, tmp_path):
    slots = catalogue.catalogue(workload)
    runner = run.Runner(cli, slots, tmp_path)
    verdicts = run.Verdicts(run.load_reference(workload))
    wrong = []
    for job in [job for slot in slots for job in slot]:
        rc, _, out, err = runner.run(job)
        if not verdicts.judge(job, rc, out, err)[1]:  # (completed, correct)
            wrong.append(job.id)
    # a known failure (an exit 3 the reference records) is correct, not completed
    assert not wrong, [p for p in verdicts.problems if p["job"] in wrong]
