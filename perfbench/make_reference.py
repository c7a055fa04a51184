"""Record the reference outputs of every catalogue job at the current commit.

    python3 perfbench/make_reference.py [workload ...]

Writes perfbench/reference/<workload>.json: for each job its exit code and,
when it wrote a report, the report's comparable values (check.reduce_report).
Regenerate only when the catalogue changes; a library change that moves a
value beyond its route's tolerance must show up as a failed job instead.
"""

import json
import sys
import tempfile

import catalogue
import check
import run


def reference(workload, cli):
    slots = catalogue.catalogue(workload)
    jobs = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK, prefix="ref_") as tmp:
        runner = run.Runner(cli, slots, tmp)
        for slot in slots:
            for job in slot:
                rc, _, out, err = runner.run(job)
                entry = {"exit": rc}
                if rc in job.allowed_exits:
                    entry["values"] = check.reduce_report(json.loads(out.read_text()))
                else:
                    entry["error"] = err
                    print(f"{job.id}: exit {rc}: {err}")
                jobs[job.id] = entry
    return {"setup": run.setup_record_static(), "jobs": jobs}


def main(names):
    sys.path.insert(0, str(run.SRC))
    from balayage import cli
    for workload in names or sorted(catalogue.WORKLOADS):
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(reference(workload, cli), sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main(sys.argv[1:])
