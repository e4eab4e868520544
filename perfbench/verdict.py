"""One verdict in a fresh process: the locfusion CLI, timed at its boundaries.

    python3 perfbench/verdict.py TIMING_JSON TRACE SETUP_ONLY -- CLI ARGS...

Runs ``locfusion.cli.main`` on the CLI arguments, the way the installed
``locfusion`` command does, and writes a JSON record to TIMING_JSON:

- ``handler_start``: CLOCK_MONOTONIC when the CLI handler is about to run,
  after interpreter start, ``import locfusion`` and the descriptor load;
- ``verdict_start``, ``end``: CLOCK_MONOTONIC as the handler starts (after
  the speed burst below) and after the report is written;
- ``cpu_s``: user plus system CPU time of this process between the two;
- ``exit``: the CLI's exit code;
- ``peak_rss_kb``: the peak resident set size of this process;
- ``burst``, ``samples``: host-speed probe times, see below;
- ``spans`` / ``missing``: with TRACE=1 only, see ``layers.py``.

The only hook in both modes is the one that runs as the handler is
entered.  With SETUP_ONLY=1 the process stops there, which measures
set-up without running the verdict.

Host speed: the hook times BURST runs of ``probe_s``, a fixed computation
that shares no code with locfusion, and while the handler runs a thread
times one more every PROBE_INTERVAL_S.  The thread costs about 1% of
the verdict; together they tell the speed of this process's CPU while
it ran.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

BURST = 20
PROBE_INTERVAL_S = 0.02


def probe_table() -> tuple[list, dict]:
    keys = [(i % 97, i % 89, i % 83) for i in range(2000)]
    return keys, dict.fromkeys(keys, 1)


def probe_s(keys: list, table: dict) -> float:
    """Time of 2,000 dict lookups by tuple key (about 0.2 ms).  It
    allocates no objects the garbage collector tracks, so its time does
    not depend on the size of the verdict's heap."""
    t = time.perf_counter()
    n = 0
    for k in keys:
        n += table[k]
    return time.perf_counter() - t


def main(argv: list[str]) -> int:
    timing_path, trace, setup_only, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: verdict.py TIMING TRACE SETUP_ONLY -- ARGS")
    rec: dict = {}
    samples: list[float] = []
    stop = threading.Event()
    probe: tuple = ()

    def sample():
        while not stop.wait(PROBE_INTERVAL_S):
            samples.append(probe_s(*probe))
    sampler = threading.Thread(target=sample, daemon=True)

    def write():
        with open(timing_path, "w") as f:
            json.dump(rec, f)

    from locfusion import cli
    spans: list = []
    if trace == "1":
        sys.path.insert(0, str(HERE))
        import layers
        rec["missing"] = layers.install(spans)

    def at_handler(fn):
        def handler(*args, **kwargs):
            nonlocal probe
            rec["handler_start"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            probe = probe_table()
            rec["burst"] = [probe_s(*probe) for _ in range(BURST)]
            if setup_only == "1":
                write()
                os._exit(0)
            rec["cpu_start"] = time.process_time()
            rec["verdict_start"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            sampler.start()
            return fn(*args, **kwargs)
        return handler

    for key, fn in list(cli.HANDLERS.items()):
        cli.HANDLERS[key] = at_handler(fn)
    code = cli.main(cli_argv)
    rec["end"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    rec["cpu_s"] = time.process_time() - rec.pop("cpu_start", 0.0)
    stop.set()
    if sampler.is_alive():
        sampler.join()
    rec["samples"] = samples
    rec["exit"] = code
    rec["peak_rss_kb"] = _peak_rss_kb()
    if trace == "1":
        rec["spans"] = spans
    write()
    return code


def _peak_rss_kb() -> int:
    """VmHWM of this process.  Unlike ru_maxrss it does not carry over
    the resident size of the parent that spawned this process."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
