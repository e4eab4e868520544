"""Record the expected result of every benchmark verdict into expected.json.

    python3 perfbench/record_expected.py

Runs each verdict once at seed 0, traced, and stores its exit code, the
relabelling-invariant summary of its report (``run.summarize``) and the
invariant counts from its trace (``layers.verdict_counts``).  Run it only
when a change is meant to alter a verdict, and say so in the change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    verdicts = {run.verdict_key(v): v for vs in run.WORKLOADS.values()
                for v in vs}
    work = run.OUT / "work" / "record-expected"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = run.generate_descriptors({v[1] for v in verdicts.values()},
                                         0, work)
        out = {}
        for key, verdict in sorted(verdicts.items()):
            res = run.run_verdict(verdict, paths, work, "rec", True, False,
                                  run.RUN_LIMIT_S)
            if "wall_s" not in res:
                print(f"{key}: no result", file=sys.stderr)
                return 1
            out[key] = {"exit": res["exit"],
                        "report": run.summarize(json.loads(res["report"])),
                        "counts": run.layers.verdict_counts(res["spans"])}
            print(key, json.dumps(out[key]))
    finally:
        shutil.rmtree(work)
    (run.HERE / "expected.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
