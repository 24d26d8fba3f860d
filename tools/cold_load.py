"""Cold in-process ``load_capture`` time and peak RSS, alternating
between checkouts.

Makes one capture of the bundled ``lossy_0p3`` scenario cut to 400 s,
then runs ``RUNS`` rounds.  A round starts one fresh child process per
checkout, in turn, through ``tools/rss_slope.py``'s ``run_child``: the
child deletes the capture's column cache, imports the checkout's
``wamsbench.analyzer`` and times one ``load_capture`` of the capture
(the parse, the slot table and the cache write, not the import), and
reports its ``ru_maxrss``, the import included.  It then prints, per
checkout, the median and the quartiles of its times and the median of
its peak RSS.

    python tools/cold_load.py [--root DIR]...

``--root`` (repeatable) selects a checkout whose ``src/`` is measured
(default: the one holding this script); the first one makes the
capture.  Taking the checkouts in turn spreads the drift of a busy host
over all of them.  Stdlib only; the capture (about 20 MB) goes to a
temporary directory that is deleted afterwards.
"""

import argparse
import os
import statistics
import sys
import tempfile

from rss_slope import HERE, run_child

DURATION_S = 400
# rounds: at least ten pairs of runs, so the quartiles mean something
RUNS = 15


def measure(roots: list, work: str) -> dict:
    """Checkout root -> its cold loads in run order, each as (seconds,
    peak RSS in KiB)."""
    records = run_child(roots[0], "simulate", DURATION_S, work)["records"]
    loads = {root: [] for root in roots}
    for _ in range(RUNS):
        for root in roots:
            load = run_child(root, "load", DURATION_S, work)
            if load["records"] != records:
                raise SystemExit(f"{root}: loaded {load['records']} records of {records}")
            loads[root].append((load["seconds"], load["maxrss_kib"]))
    return loads


def report(loads: dict) -> str:
    lines = ["| checkout | runs | median s | q1 s | q3 s | q3 - q1 s | median peak RSS MiB |",
             "| --- | ---: | ---: | ---: | ---: | ---: | ---: |"]
    for root, runs in loads.items():
        seconds, peaks = zip(*runs)
        q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
        lines.append(f"| {root} | {len(runs)} | {median:.3f} | {q1:.3f} | {q3:.3f} | {q3 - q1:.3f} "
                     f"| {statistics.median(peaks) / 1024:.1f} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", help="checkout whose src/ is measured (repeatable)")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(root) for root in args.root or [os.path.dirname(HERE)]]
    with tempfile.TemporaryDirectory(prefix="cold_load-") as work:
        loads = measure(roots, work)
    print(report(loads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
