"""Simulator host time of two checkouts, compared one simulated second at
a time in one process.

Imports each checkout's ``wamsbench`` under its own name (``ab0``,
``ab1``), then runs the same scenario through both checkouts'
``run_simulation``, each on its own thread.  The two runs take turns:
each ``Simulator.run_until`` advances in 1-simulated-second slices, the
way ``bench/child.py``'s step clock cuts it, and only one run holds the
turn at a time, so A and B run the same second back to back (in the
order A, B, then B, A) on the same host state.  Each slice is timed with
``time.perf_counter_ns`` around the original ``run_until`` call.

It prints, over the scenario's seconds (the drain grace after them is
left out), the median and the quartiles of the per-second ratio A time /
B time (above 1: B is faster), each side's total slice time, and whether
the two sides wrote byte-identical capture and measurement logs.  The
exit status is 1 when they did not.

    python tools/slice_ab.py --root A --root B [--scenario NAME] [--duration-s N]

``--scenario`` is a bundled scenario name, looked up in each checkout's
own bundle, or a scenario file (default: lossless); ``--duration-s``
replaces its duration (default: 400).  Stdlib only; the logs go to a
temporary directory that is deleted afterwards.
"""

import argparse
import dataclasses
import filecmp
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import threading
import time

LOGS = ("capture.jsonl", "measurements.jsonl")


def import_checkout(root: str, name: str) -> dict:
    """The checkout's ``scenario``, ``sim`` and ``simnet`` modules,
    imported as package ``name``; its relative imports resolve inside
    it, so two checkouts never share a module."""
    package_dir = os.path.join(root, "src", "wamsbench")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package_dir, "__init__.py"), submodule_search_locations=[package_dir]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}") for sub in ("scenario", "sim", "simnet")}


class Side:
    """One checkout's run on its own thread, advanced a slice at a time.

    ``go`` lets the run take one slice; ``done`` tells the driver that
    the run is parked again: ready before its first slice, after each
    slice, and once the run has returned or failed.
    """

    def __init__(self, root: str, name: str, scenario_ref: str, duration_s: int, out_dir: str):
        self.root = root
        self.modules = import_checkout(root, name)
        path = scenario_ref if os.path.isfile(scenario_ref) else os.path.join(
            root, "src", "wamsbench", "scenarios", f"{scenario_ref}.scenario"
        )
        scenario = self.modules["scenario"].load_scenario(path)
        self.scenario = dataclasses.replace(scenario, duration_s=duration_s)
        self.out_dir = out_dir
        self.slices_ms: list = []
        self.go = threading.Semaphore(0)
        self.done = threading.Semaphore(0)
        self.finished = False
        self.error = None
        self._slice_run_until()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _slice_run_until(self) -> None:
        simulator = self.modules["simnet"].Simulator
        original = simulator.run_until
        clock = time.perf_counter_ns
        side = self

        def run_until(sim, t_end_us: int) -> int:
            if t_end_us <= sim.now_us:
                return original(sim, t_end_us)
            processed = 0
            side.done.release()  # set up and parked before the first slice
            while sim.now_us < t_end_us:
                stop = min((sim.now_us // 1_000_000 + 1) * 1_000_000, t_end_us)
                side.go.acquire()
                start = clock()
                processed += original(sim, stop)
                side.slices_ms.append((clock() - start) / 1e6)
                side.done.release()
            side.go.acquire()  # closing the logs waits for the turn too
            return processed

        simulator.run_until = run_until

    def _run(self) -> None:
        try:
            self.modules["sim"].run_simulation(self.scenario, self.out_dir)
        except Exception as err:  # handed to the driver, which raises it
            self.error = err
        finally:
            self.finished = True
            self.done.release()

    def step(self) -> None:
        """Give the run one turn and wait until it is parked again."""
        self.go.release()
        self.done.acquire()


def run_pair(roots: list, scenario_ref: str, duration_s: int, work: str) -> list:
    """Both sides, run to the end in alternating turns."""
    sides = [
        Side(root, f"ab{k}", scenario_ref, duration_s, os.path.join(work, f"ab{k}"))
        for k, root in enumerate(roots)
    ]
    for side in sides:  # one set-up at a time, none during a timed slice
        side.thread.start()
        side.done.acquire()
    turn = 0
    while not all(side.finished for side in sides):
        for side in sides if turn % 2 == 0 else sides[::-1]:
            if not side.finished:
                side.step()
        turn += 1
    for side in sides:
        side.thread.join()
        if side.error is not None:
            raise RuntimeError(f"{side.root}: the run failed") from side.error
    return sides


def report(a_ms: list, b_ms: list, identical: bool) -> str:
    ratios = [a / b for a, b in zip(a_ms, b_ms)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return "\n".join([
        f"seconds: {len(ratios)}",
        f"A/B time ratio: median {median:.3f} (IQR {q1:.3f}-{q3:.3f}); above 1, B is faster",
        f"A total: {sum(a_ms) / 1000:.3f} s; B total: {sum(b_ms) / 1000:.3f} s",
        f"logs byte-identical: {'yes' if identical else 'NO'}",
    ])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", required=True, help="checkout A, then checkout B")
    parser.add_argument("--scenario", default="lossless", help="bundled scenario name or scenario file")
    parser.add_argument("--duration-s", type=int, default=400, help="simulated seconds to run")
    args = parser.parse_args(argv)
    if len(args.root) != 2:
        parser.error("give --root exactly twice: A, then B")
    if args.duration_s < 2:
        parser.error("--duration-s must be at least 2")
    roots = [os.path.abspath(root) for root in args.root]
    with tempfile.TemporaryDirectory(prefix="slice_ab-") as work:
        a, b = run_pair(roots, args.scenario, args.duration_s, work)
        identical = all(
            filecmp.cmp(os.path.join(a.out_dir, log), os.path.join(b.out_dir, log), shallow=False) for log in LOGS
        )
    seconds = args.duration_s
    print(report(a.slices_ms[:seconds], b.slices_ms[:seconds], identical))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
