"""The locfusion benchmark: whole CLI verdicts, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run is closed-loop with one client:
it runs the workload's verdicts one after another, each as a fresh
``locfusion`` CLI process, and repeats that pass until the next pass
would end after ``--seconds`` (at least three passes untraced).  Every
verdict is checked against ``expected.json``.  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; lines before it are a readable summary.  Machine
facts, per-pass samples and quartiles go to ``.perfbench/results/``.

``--trace 0`` reports the end-to-end metrics with no span wrappers
installed; times are scaled to a reference host speed (see
``REF_PROBE_S``).  ``--trace 1`` runs every verdict untraced and then
traced, checks the two reports are byte-identical, and reports the
per-layer metrics of ``layers.py`` plus the tracing overhead.
``--workload all`` runs the four workloads untraced, round-robin, and
prints each one's end-to-end metrics.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path[:0] = [str(HERE), str(SRC)]
import layers  # noqa: E402

BUNDLED = ("instance-a", "instance-b", "product-24", "product-48",
           "group-8", "group-60")

# workload -> verdicts (CLI command, descriptor, extra arguments).
# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "bundled-suite": [("suite", name, ()) for name in BUNDLED],
    "locality-s7": [("locality validate", "s7", ("--max-word-len", "3"))],
    "fusion-s6xc2": [("fusion saturate-check", "s6xc2", ())],
    "nk-s6": [("theorem1", "s6", ()), ("restriction", "s6", ())],
    # self-test only: two of the bundled verdicts, under a second
    "tiny": [("suite", "group-8", ()), ("suite", "instance-a", ())],
}
ALL = ("bundled-suite", "locality-s7", "fusion-s6xc2", "nk-s6")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
# Host speed.  On a shared host a CPU's speed drifts by 20% and more
# within seconds and over minutes, for every program alike, and raw times
# of the same code spread more across runs than any useful bound.  Each
# verdict process therefore times a fixed probe computation while it
# runs (verdict.py), and setup_s, wall_s and cpu_s are reported in
# seconds at the reference speed: measured seconds * REF_PROBE_S / median
# probe time, over the probes taken as the handler is entered (for
# set-up) and while it runs (for the rest).  REF_PROBE_S is the probe's
# median on the 2-vCPU Xeon (2.1 GHz) VM the benchmark was defined on.
# The measured seconds are kept too.
REF_PROBE_S = 0.0002
# below this many probes during the handler, a verdict is too short to
# sample and is scaled by the probes taken as the handler was entered
MIN_PROBE_SAMPLES = 5
MIN_SETUP_SAMPLES = 10
# An untraced run measures at least three passes, even when that takes
# longer than --seconds, so that the median drops one outlying pass.
MIN_PASSES = 3
RUN_LIMIT_S = 165.0  # a run must exit within 180 s


def verdict_key(verdict) -> str:
    cmd, desc, extra = verdict
    return " ".join((cmd, desc) + tuple(extra))


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs ------------------------------------------------------------------

def descriptor_source(name: str) -> Path:
    if name in BUNDLED:
        return SRC / "locfusion" / "instances" / f"{name}.json"
    return HERE / "instances" / f"{name}.json"


def _relabel_perm(x, t):
    """x with every point i renamed t[i] (0-indexed tuples)."""
    y = [0] * len(x)
    for i, xi in enumerate(x):
        y[t[i]] = t[xi]
    return tuple(y)


def _relabel(obj, t, degree):
    """Rename points in every permutation (1-indexed image list) in obj."""
    if isinstance(obj, dict):
        return {k: _relabel(v, t, degree) for k, v in obj.items()}
    if isinstance(obj, list):
        if (len(obj) == degree and all(isinstance(v, int) for v in obj)
                and sorted(obj) == list(range(1, degree + 1))):
            return [v + 1 for v in _relabel_perm([v - 1 for v in obj], t)]
        return [_relabel(v, t, degree) for v in obj]
    return obj


def _sylow_aligned(d: dict, sigma: list[int]) -> list[int]:
    """sigma composed with an element h of G such that the relabelled
    named subgroups sit inside the Sylow subgroup the program will pick.

    With ``"sylow": "auto"`` the program picks a canonical Sylow subgroup
    of the relabelled group, which need not be the image of the one it
    picks for the shipped labels.  Relabelling by sigma∘h for h in G
    gives the same group, and h is chosen so that it maps the shipped
    choice onto the preimage of the new one.
    """
    from locfusion.permgroup import FiniteGroup, sylow_subgroup
    G0 = FiniteGroup.from_descriptor(d["group"])
    S0 = sylow_subgroup(G0, d["p"])
    Gs = FiniteGroup.from_descriptor(_relabel(d["group"], sigma,
                                              d["group"]["degree"]))
    inv = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inv[s] = i
    S1 = {_relabel_perm(x, inv) for x in sylow_subgroup(Gs, d["p"])}
    h = next(g for g in G0.elements
             if {_relabel_perm(x, g) for x in S0} == S1)
    return [sigma[h[i]] for i in range(len(sigma))]


def generate_descriptors(names, seed: int, work: Path) -> dict[str, Path]:
    """Write each descriptor with its points relabelled by a permutation
    drawn from the seed; seed 0 writes them as shipped."""
    out = {}
    for name in sorted(set(names)):
        src = descriptor_source(name)
        dst = work / f"{name}.json"
        if seed == 0:
            dst.write_bytes(src.read_bytes())
        else:
            d = json.loads(src.read_text())
            n = d["group"]["degree"]
            sigma = list(range(n))
            random.Random(f"{seed}:{name}").shuffle(sigma)
            if d.get("sylow", "auto") == "auto" and (
                    d.get("fusion_products") or d.get("k_choices")):
                sigma = _sylow_aligned(d, sigma)
            dst.write_text(json.dumps(_relabel(d, sigma, n), indent=1))
        out[name] = dst
    return out


# -- one verdict process ------------------------------------------------------

def run_verdict(verdict, paths, work: Path, tag: str, trace: bool,
                setup_only: bool, timeout: float) -> dict:
    cmd, desc, extra = verdict
    report = work / f"{tag}.report.json"
    timing = work / f"{tag}.timing.json"
    argv = [sys.executable, str(HERE / "verdict.py"), str(timing),
            "1" if trace else "0", "1" if setup_only else "0", "--",
            *cmd.split(), str(paths[desc]), *extra, "--out", str(report)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    res = {"timed_out": False}
    with open(work / f"{tag}.stderr", "wb") as err:
        t_spawn = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    try:
        proc.wait(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        res["timed_out"] = True
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    res["exit"] = proc.returncode
    try:
        rec = json.loads(timing.read_text())
    except (OSError, ValueError):
        rec = {}
    if "handler_start" in rec:
        res["setup_s"] = rec["handler_start"] - t_spawn
        res["setup_probe_s"] = statistics.median(rec["burst"])
        if "end" in rec:
            res["wall_s"] = rec["end"] - rec["verdict_start"]
            res["cpu_s"] = rec["cpu_s"]
            probes = rec["samples"]
            if len(probes) < MIN_PROBE_SAMPLES:
                probes = rec["burst"]
            res["probe_s"] = statistics.median(probes)
            res["peak_rss_mb"] = rec["peak_rss_kb"] / 1024.0
    res["spans"] = rec.get("spans")
    res["missing"] = rec.get("missing", [])
    if not setup_only:
        try:
            res["report"] = report.read_bytes()
        except OSError:
            res["report"] = None
    return res


def summarize(report: dict) -> dict:
    """The parts of a report that do not change under relabelling: the
    verdict and every morphism count and subgroup-lattice size in it."""
    found = {"morphisms": [], "subgroups": []}

    def walk(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k == "morphisms":
                    found[k].append(v if isinstance(v, int) else len(v))
                elif k == "subgroups" and isinstance(v, list):
                    found[k].append(len(v))
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)
    walk(report)
    return {"ok": report.get("ok"), "morphisms": sorted(found["morphisms"]),
            "subgroups": sorted(found["subgroups"])}


def check(res: dict, want: dict, traced: bool) -> list[str]:
    """Reasons the verdict is wrong; empty when it is right."""
    if res["timed_out"]:
        return ["timed out"]
    bad = []
    if res["exit"] != want["exit"]:
        bad.append(f"exit {res['exit']}, expected {want['exit']}")
    if "wall_s" not in res:
        return bad + ["no timing record (crashed)"]
    try:
        got = summarize(json.loads(res["report"]))
    except (TypeError, ValueError):
        return bad + ["no readable report"]
    if got != want["report"]:
        bad.append(f"report {got}, expected {want['report']}")
    if traced:
        counts = layers.verdict_counts(res["spans"])
        if counts != want["counts"]:
            bad.append(f"counts {counts}, expected {want['counts']}")
    return bad


# -- a run ---------------------------------------------------------------------

class Run:
    """The passes of one workload in one run, and what they measured."""

    def __init__(self, name: str, trace: bool, expected: dict, paths,
                 work: Path):
        self.name, self.trace = name, trace
        self.verdicts = WORKLOADS[name]
        self.expected, self.paths, self.work = expected, paths, work
        self.samples: list[dict] = []
        self.setup_samples: list[float] = []
        self.peak_rss_mb = 0.0
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.missing: set[str] = set()
        self.spans: list[dict] = []
        self.n = 0

    def _one(self, verdict, traced, setup_only, deadline):
        self.n += 1
        tag = f"{self.name}-{self.n:05d}{'t' if traced else 'u'}"
        return run_verdict(verdict, self.paths, self.work, tag, traced,
                           setup_only, deadline - clock())

    def run_pass(self, deadline: float) -> bool:
        """One verdict of each kind; False when the run must stop."""
        setup = wall = cpu = traced_wall = 0.0
        setup_ref = wall_ref = cpu_ref = 0.0
        span_lists, report_bytes = [], 0
        for verdict in self.verdicts:
            key = verdict_key(verdict)
            want = self.expected[key]
            self.attempted += 1
            res = self._one(verdict, False, False, deadline)
            bad = check(res, want, traced=False)
            self.peak_rss_mb = max(self.peak_rss_mb,
                                   res.get("peak_rss_mb", 0.0))
            if self.trace and not bad:
                tres = self._one(verdict, True, False, deadline)
                bad = check(tres, want, traced=True)
                if not bad and tres["report"] != res["report"]:
                    bad = ["traced report bytes differ from untraced"]
                self.missing.update(tres["missing"])
                if not bad:
                    span_lists.append(tres["spans"])
                    self.spans.append({"verdict": self.n, "key": key,
                                       "spans": tres["spans"]})
                    traced_wall += tres["wall_s"] * REF_PROBE_S / tres["probe_s"]
            if bad:
                self.failed += 1
                self.failures.append(f"{key}: " + "; ".join(bad))
                return False
            setup += res["setup_s"]
            wall += res["wall_s"]
            cpu += res["cpu_s"]
            setup_ref += res["setup_s"] * REF_PROBE_S / res["setup_probe_s"]
            scale = REF_PROBE_S / res["probe_s"]
            wall_ref += res["wall_s"] * scale
            cpu_ref += res["cpu_s"] * scale
            report_bytes += len(res["report"])
        if self.trace:
            sample = layers.pass_metrics(span_lists, report_bytes)
            sample["trace.overhead_s"] = traced_wall - wall_ref
        else:
            self.setup_samples.append(setup_ref)
            sample = {"setup_s": setup_ref, "wall_s": wall_ref,
                      "cpu_s": cpu_ref, "measured_setup_s": setup,
                      "measured_wall_s": wall, "measured_cpu_s": cpu}
        self.samples.append(sample)
        return True

    def probe_setup(self, deadline: float) -> bool:
        """Set-up of one pass without running the verdicts."""
        total = 0.0
        for verdict in self.verdicts:
            res = self._one(verdict, False, True, deadline)
            if res["exit"] != 0 or "setup_s" not in res:
                return False
            total += res["setup_s"] * REF_PROBE_S / res["setup_probe_s"]
        self.setup_samples.append(total)
        return True

    def metrics(self) -> dict:
        units = layers.metric_units() if self.trace else END_TO_END
        out = {}
        for name, unit in units.items():
            if name == "peak_rss_mb":
                value = self.peak_rss_mb
            elif name == "setup_s":
                value = _median(self.setup_samples)
            else:
                value = _median([s[name] for s in self.samples])
            out[name] = {"value": value, "unit": unit}
        return out

    def quartiles(self) -> dict:
        series = {k: [s[k] for s in self.samples]
                  for k in (self.samples[0] if self.samples else {})}
        if not self.trace:
            series["setup_s"] = self.setup_samples
        return {k: _quartiles(v) for k, v in series.items() if v}


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": model, "platform": platform.platform()}


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def _measure(runs, seconds: float, trace: bool, hard: float) -> None:
    """Passes round-robin until the next cycle would end after the
    window, then set-up probes for untraced runs."""
    window_end = clock() + seconds
    min_passes = 1 if trace else MIN_PASSES
    active = list(runs)
    while active:
        t = clock()
        active = [r for r in active if r.run_pass(hard)]
        now = clock()
        cycle = now - t
        if now + cycle > hard or (now + cycle > window_end and all(
                len(r.samples) >= min_passes for r in active)):
            break
    if not trace:
        for r in runs:
            while (len(r.setup_samples) < MIN_SETUP_SAMPLES
                   and clock() < hard - 10 and r.probe_setup(hard)):
                pass


def execute(names, seed: int, seconds: float, trace: bool,
            expected: dict | None = None) -> dict:
    """Run the named workloads round-robin; return the full result."""
    t0 = clock()
    stamp = f"{'+'.join(names)}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    expected = load_expected() if expected is None else expected
    with contextlib.redirect_stdout(sys.stderr):
        compileall.compile_dir(str(SRC / "locfusion"), quiet=1)
    load_before = os.getloadavg()
    work = OUT / "work" / stamp
    work.mkdir(parents=True, exist_ok=True)
    try:
        descs = {v[1] for n in names for v in WORKLOADS[n]}
        paths = generate_descriptors(descs, seed, work)
        runs = [Run(n, trace, expected, paths, work) for n in names]
        _measure(runs, seconds, trace, t0 + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_facts(), "ref_probe_s": REF_PROBE_S,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "elapsed_s": clock() - t0,
        "workloads": {},
    }
    for r in runs:
        result["workloads"][r.name] = {
            "attempted": r.attempted, "failed": r.failed,
            "error_rate": r.failed / r.attempted if r.attempted else 1.0,
            "failures": r.failures, "passes": len(r.samples),
            "metrics": r.metrics(), "quartiles": r.quartiles(),
            "samples": r.samples, "setup_samples": r.setup_samples,
            "missing_trace_targets": sorted(r.missing),
        }
    res_dir = OUT / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    (res_dir / f"{stamp}.json").write_text(json.dumps(result, indent=1))
    if trace:
        (res_dir / f"{stamp}.spans.json").write_text(json.dumps(
            {r.name: r.spans for r in runs}))
    return result


def _print_summary(result: dict) -> None:
    m = result["machine"]
    print(f"machine: {m['nproc']} CPUs ({m['affinity']} usable), "
          f"{m['cpu_model']}, Python {m['python']}; load "
          f"{result['loadavg_before'][0]:.2f} -> "
          f"{result['loadavg_after'][0]:.2f}")
    for name, w in result["workloads"].items():
        print(f"{name}: {w['passes']} passes, error_rate "
              f"{w['failed']}/{w['attempted']} verdicts = "
              f"{w['error_rate']:.3g}")
        q = w["quartiles"]
        for metric, v in w["metrics"].items():
            qs = q.get(metric)
            spread = (f"  [q1 {qs[0]:.6g}, q3 {qs[2]:.6g}]" if qs else "")
            print(f"  {metric} = {v['value']:.6g} {v['unit']}{spread}")
        if "measured_wall_s" in q:
            print("  measured (before the host-speed scaling): " + ", ".join(
                f"{k} = {q[k][1]:.6g} s" for k in (
                    "measured_setup_s", "measured_wall_s",
                    "measured_cpu_s")))
        for f in w["failures"]:
            print(f"  FAILED {f}")
        if w["missing_trace_targets"]:
            print("  trace targets not found: "
                  + ", ".join(w["missing_trace_targets"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running verdict process is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "locfusion" / "cli.py").is_file():
        print(f"no locfusion sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    names = ALL if args.workload == "all" else (args.workload,)
    result = execute(names, args.seed, args.seconds, bool(args.trace))
    _print_summary(result)
    ws = result["workloads"]
    attempted = sum(w["attempted"] for w in ws.values())
    failed = sum(w["failed"] for w in ws.values())
    if len(ws) == 1:
        metrics = next(iter(ws.values()))["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, w in ws.items()
                   for k, v in w["metrics"].items()}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
