"""Every job of the benchmark catalogue, run once through cli.main and judged by
the benchmark's own verdicts against its reference reports
(perfbench/reference/): a change in a report's keys, order or values shows
here before it shows in a benchmark run.  Each job runs once more with --csv:
the same exit code, and its table under the command's header."""

import csv
import dataclasses
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


@pytest.mark.parametrize("workload", sorted(catalogue.WORKLOADS))
def test_every_catalogue_job_exits_alike_with_csv(workload, tmp_path):
    slots = catalogue.catalogue(workload)
    runner = run.Runner(cli, slots, tmp_path)
    for job in [job for slot in slots for job in slot]:
        rc = runner.run(job)[0]
        argv = [*job.argv, "--csv"]
        csv_rc, _, out, _ = runner.run(dataclasses.replace(job, argv=argv))
        assert csv_rc == rc, job.id
        if rc in (0, 1):  # a report was written; balayage writes its table beside it
            command = cli.COMMANDS[argv[0]]
            table = command.table
            if callable(table):
                table = table(cli.build_parser().parse_args(argv))
            path = out.with_suffix(".csv") if argv[0] == "balayage" else out
            with open(path, newline="") as fh:
                assert next(csv.reader(fh)) == list(table.header), job.id
