"""Peak RSS of the simulator and of the analyzer against capture size.

Runs the bundled ``lossy_0p3`` scenario cut to 1000 s and to 4000 s and
records ``ru_maxrss`` of five fresh child processes per duration:

  import           ``import wamsbench.cli``, as the ``wamsbench`` script
                   starts, and nothing else: the fixed cost of every
                   command
  simulate         ``run_simulation`` alone, which writes the capture
  analyze          ``wamsbench analyze`` on that capture, which parses it
                   and leaves its column cache (``capture.jsonl.columns``)
  analyze, cached  ``wamsbench analyze`` again, which reads the cache
  report, cached   ``wamsbench report --sample-size N`` on the cached
                   capture, N the smaller of 300 and the duration in
                   seconds, which reads the cache's slot table and, in a
                   checkout that keeps one, none of its columns

then prints each process's peak, the cache size, and the slope between
the two durations, per capture record and per frame.  A fixed cost
(interpreter, imports, buffers) cancels out of the slope; what is left
is what the program keeps per record or per frame.  The ``import`` peak
measures the interpreter and import part of that cost for each
checkout, and its slope is about zero.  The cache's slope is also split
by section (the slot table and every device's frames, each with the
check that ends it), read from the cache's JSON line, so a layout change
shows where it landed; a cache whose JSON line holds no frame counts
and itemsizes (one written before version 11) is one section, "other".

    python tools/rss_slope.py [--root DIR]...

``--root`` (repeatable) selects a checkout whose ``src/`` is measured
(default: the one holding this script), so two checkouts can be
compared with the same script in one run; each gets its own tables.
``tools/cold_load.py`` runs its children through ``run_child`` too,
with one more step, ``load``: the time of one in-process
``load_capture`` after the column cache is deleted.  Stdlib only; the
captures go to a temporary directory that is deleted afterwards.  The
4000 s simulation writes a capture of about 200 MB and takes a few
minutes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DURATIONS_S = (1000, 4000)
STEPS = ("import", "simulate", "analyze", "analyze, cached", "report, cached")
SECTIONS = ("table", "frames")
CHECK_BYTES = 4  # the CRC-32 that ends each section of a column cache

# what a child runs: argv[1] is the checkout root, argv[2] a JSON spec;
# the last line of its stdout is a JSON object with ru_maxrss in KiB
CHILD = r"""
import contextlib, dataclasses, io, json, os, resource, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
spec = json.loads(sys.argv[2])
out = {}
if spec["step"] == "import":
    import wamsbench.cli
elif spec["step"] == "simulate":
    from wamsbench.scenario import load_scenario
    from wamsbench.sim import run_simulation
    scenario = dataclasses.replace(load_scenario("lossy_0p3"), duration_s=spec["duration_s"])
    result = run_simulation(scenario, spec["dir"])
    out = {"records": result.capture_counters["records"], "frames": result.rows}
elif spec["step"] == "load":
    from wamsbench import analyzer
    capture = spec["dir"] + "/capture.jsonl"
    if os.path.exists(capture + ".columns"):
        os.unlink(capture + ".columns")
    start = time.perf_counter()
    loaded = analyzer.load_capture(capture)
    out = {"seconds": time.perf_counter() - start, "records": loaded.counts["records"]}
else:
    from wamsbench import cli
    capture = spec["dir"] + "/capture.jsonl"
    argv = ["analyze", capture, "--out-dir", spec["dir"]]
    if spec["step"] == "report":
        argv = ["report", capture, "--sample-size", str(min(300, spec["duration_s"]))]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        sys.exit(code)
out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(out))
"""


def run_child(root: str, step: str, duration_s: int, work: str) -> dict:
    spec = {"step": step, "duration_s": duration_s, "dir": os.path.join(work, f"d{duration_s}")}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, root, json.dumps(spec)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cache_sections(path: str) -> dict:
    """Bytes of each section of the column cache at ``path`` past its JSON
    line, the check that ends it included; zeros when there is no cache.
    In a cache whose JSON line holds "frame_counts" and "itemsizes"
    (version 11 on), each device's frames take its frame count times the
    itemsizes of frame_seq, frame_timestamp and arrival ('I', 'q' and
    'd'), and the table is what is left.  Any other cache is reported
    whole, as "other", so checkouts on either side of a layout change
    can be measured in one run."""
    if not os.path.exists(path):
        return dict.fromkeys(SECTIONS, 0)
    with open(path, "rb") as fh:
        meta_line = fh.readline()
    meta = json.loads(meta_line)
    rest = os.path.getsize(path) - len(meta_line)
    if "frame_counts" not in meta or "itemsizes" not in meta:
        return {"other": rest}
    frame = sum(meta["itemsizes"][code] for code in "Iqd")
    frames = sum(count * frame + CHECK_BYTES for count in meta["frame_counts"])
    if rest - frames < CHECK_BYTES:  # the table, at least its check
        raise ValueError(f"{path}: its sizes do not add up to a column cache")
    return {"table": rest - frames, "frames": frames}


def measure(root: str, work: str) -> list:
    """One row per duration: records, frames, each step's peak RSS and
    the cache size, in bytes."""
    rows = []
    for duration in DURATIONS_S:
        imported = run_child(root, "import", duration, work)
        sim = run_child(root, "simulate", duration, work)
        cold = run_child(root, "analyze", duration, work)
        warm = run_child(root, "analyze", duration, work)
        table = run_child(root, "report", duration, work)
        cache = os.path.join(work, f"d{duration}", "capture.jsonl.columns")
        rows.append(
            {
                "duration_s": duration,
                "records": sim["records"],
                "frames": sim["frames"],
                "import": imported["maxrss_kib"] * 1024,
                "simulate": sim["maxrss_kib"] * 1024,
                "analyze": cold["maxrss_kib"] * 1024,
                "analyze, cached": warm["maxrss_kib"] * 1024,
                "report, cached": table["maxrss_kib"] * 1024,
                # a checkout without the cache leaves none
                "cache": os.path.getsize(cache) if os.path.exists(cache) else 0,
                **{f"cache {name}": size for name, size in cache_sections(cache).items()},
            }
        )
        shutil.rmtree(os.path.join(work, f"d{duration}"))
    return rows


def report(rows: list) -> str:
    lines = [
        "| duration_s | records | frames | import peak MB | simulate peak MB | analyze peak MB "
        "| analyze, cached peak MB | report, cached peak MB | cache MB |",
        "| ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for r in rows:
        peaks = " | ".join(f"{r[step] / 2**20:.1f}" for step in STEPS)
        lines.append(
            f"| {r['duration_s']} | {r['records']} | {r['frames']} | {peaks} | {r['cache'] / 2**20:.1f} |"
        )
    first, last = rows[0], rows[-1]
    d_records = last["records"] - first["records"]
    d_frames = last["frames"] - first["frames"]
    lines += ["", "| step | B per record | B per frame |", "| --- | ---: | ---: |"]
    for step in (*STEPS, "cache", *(key for key in first if key.startswith("cache "))):
        d_rss = last[step] - first[step]
        lines.append(f"| {step} | {d_rss / d_records:.1f} | {d_rss / d_frames:.1f} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", action="append", help="checkout whose src/ is measured (repeatable)")
    args = parser.parse_args(argv)
    roots = [os.path.abspath(root) for root in args.root or [os.path.dirname(HERE)]]
    for root in roots:
        with tempfile.TemporaryDirectory(prefix="rss_slope-") as work:
            rows = measure(root, work)
        print(f"{root}\n\n{report(rows)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
