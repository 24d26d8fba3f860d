"""Cold in-process ``load_capture`` time, alternating between checkouts.

Makes one capture of the bundled ``lossy_0p3`` scenario cut to 400 s,
then runs ``RUNS`` rounds.  A round starts one fresh child process per
checkout, in turn, through ``tools/rss_slope.py``'s ``run_child``: the
child deletes the capture's column cache, imports the checkout's
``wamsbench.analyzer`` and times one ``load_capture`` of the capture
(the parse, the slot table and the cache write, not the import).  It
then prints, per checkout, the median and the quartiles of its times.

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
    """Checkout root -> its cold load times in seconds, in run order."""
    records = run_child(roots[0], "simulate", DURATION_S, work)["records"]
    times = {root: [] for root in roots}
    for _ in range(RUNS):
        for root in roots:
            load = run_child(root, "load", DURATION_S, work)
            if load["records"] != records:
                raise SystemExit(f"{root}: loaded {load['records']} records of {records}")
            times[root].append(load["seconds"])
    return times


def report(times: dict) -> str:
    lines = ["| checkout | runs | median s | q1 s | q3 s | q3 - q1 s |", "| --- | ---: | ---: | ---: | ---: | ---: |"]
    for root, values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        lines.append(f"| {root} | {len(values)} | {median:.3f} | {q1:.3f} | {q3:.3f} | {q3 - q1:.3f} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", help="checkout whose src/ is measured (repeatable)")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(root) for root in args.root or [os.path.dirname(HERE)]]
    with tempfile.TemporaryDirectory(prefix="cold_load-") as work:
        times = measure(roots, work)
    print(report(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
