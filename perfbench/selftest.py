"""Self-test of the benchmark at a tiny size (``suite`` on group-8 and
instance-a), about ten seconds:

    python3 perfbench/selftest.py

Checks that
- both modes emit every metric BENCHMARK.json names, with its unit, and
  no other;
- the verdicts pass at seed 0 and at a relabelled seed;
- a deliberately wrong expected verdict makes error_rate non-zero, so
  the correctness gate fires;
- in a directory holding only BENCHMARK.json and the benchmark, the
  command exits non-zero without printing a result.
"""

import copy
import json
import shutil
import subprocess
import sys

import run


def _names(result) -> dict:
    (w,) = result["workloads"].values()
    return {k: v["unit"] for k, v in w["metrics"].items()}, w


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    for seed, trace in ((0, 0), (5, 0), (0, 1), (7, 1)):
        names, w = _names(run.execute(("tiny",), seed, 1.0, bool(trace)))
        if names != want[trace]:
            problems.append(f"trace {trace}: metrics differ from "
                            f"BENCHMARK.json: {sorted(set(names) ^ set(want[trace]))}")
        if w["failed"] or not w["attempted"]:
            problems.append(f"seed {seed} trace {trace}: {w['failures']}")

    wrong = copy.deepcopy(run.load_expected())
    wrong["suite group-8"]["report"]["morphisms"] = [21]
    _, w = _names(run.execute(("tiny",), 0, 1.0, False, expected=wrong))
    if not w["error_rate"] > 0:
        problems.append("a wrong expected verdict did not raise error_rate")

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = subprocess.run(spec["command"] + ["--workload", "tiny",
                                              "--seed", "0", "--seconds", "1",
                                              "--trace", "0"],
                           cwd=bare, capture_output=True, text=True,
                           timeout=180)
        if p.returncode == 0 or p.stdout.strip():
            problems.append("bare directory: expected a non-zero exit and "
                            f"no output, got {p.returncode} {p.stdout!r}")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
