"""Load time and memory, each command's own peak RSS, and the band sampler's
cost per corridor-month, against corridor count.

    python3 tools/load_scaling.py BASE_SRC WORK_DIR [--out FILE]

Builds the benchmark's scale inputs (``perfbench/inputs.make_inputs("scale",
1, ...)``) at 40 x 20, 80 x 40 and 160 x 80 corridors (800, 3,200 and 12,800)
into ``WORK_DIR``, in a child process that sets ``SCALE_ORIGINS`` and
``SCALE_DESTINATIONS`` (destinations are half the origins). Then, for
``BASE_SRC`` (the ``src`` directory of another checkout) and for this
checkout's ``src``, each in fresh processes:

- ``load_dataset`` on each input, in ``REPEATS`` processes: the RSS that the
  first load adds (``ru_maxrss`` after it minus before it), the best time of
  five more loads, and the ``tracemalloc`` peak of one more;
- the ``scenarios-800`` commands (``simulate``, ``counterfactual``,
  ``attribute``, ``compare-baseline`` and a three-month ``report``): wall time
  and the command's own ``ru_maxrss``. Each command is started by a small
  wrapper (``python3 -S``, no numpy), which reads the child's ``ru_maxrss``
  from ``os.wait4``; on Linux a child's ``ru_maxrss`` starts at the RSS of the
  process that forked it, so the process that built the inputs must not;
- a one-month band step: ``simulate`` and ``counterfactual`` over
  ``BAND_MONTH`` alone, with ``band_draws = BAND_DRAWS`` from a ``run.config``
  of the step's own (the scale inputs' own config draws no bands), started
  as above: wall time, the wall time per corridor-month (the input's
  corridor count, one month), and the command's own ``ru_maxrss``.

Then the verdicts on ``TARGET`` and ``BAND_TARGET``: per input and tree, the
RSS that load adds and its traced peak per byte of CSV (median and largest
of the repeats), and the band step's time per corridor-month.
Prints the results as JSON, with the machine they were taken on, and writes
them to ``FILE`` if given. ``WORK_DIR`` must not exist yet.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ORIGINS = (40, 80, 160)  # destinations are half: 800, 3,200 and 12,800 corridors
REPEATS = 3
TARGET = "load adds less than 3x the input size at 12,800 corridors"
COMMANDS = (("simulate",), ("counterfactual",), ("attribute",), ("compare-baseline",),
            ("report", "--start", "2019-10", "--end", "2019-12"))
BAND_MONTH = "2019-06"
BAND_DRAWS = 1000
BAND_COMMANDS = ("simulate", "counterfactual")
BAND_TARGET_MS = 0.25
BAND_TARGET = (f"simulate's one-month band step takes at most {BAND_TARGET_MS} ms per "
               "corridor-month at 12,800 corridors")

BUILD = """
import sys
from pathlib import Path
from perfbench import inputs
for origins in map(int, sys.argv[2:]):
    inputs.SCALE_ORIGINS, inputs.SCALE_DESTINATIONS = origins, origins // 2
    inputs.make_inputs("scale", int(sys.argv[1]), Path(f"scale-{origins}"))
"""

LOAD = """
import json, resource, sys, time, tracemalloc
from remitsim.dataio import load_dataset
rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
before = rss()
load_dataset(sys.argv[1])
added_kb = rss() - before
times = []
for _ in range(5):
    start = time.perf_counter()
    load_dataset(sys.argv[1])
    times.append(time.perf_counter() - start)
tracemalloc.start()
load_dataset(sys.argv[1])
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(json.dumps({"load_s": min(times), "rss_added_mb": added_kb / 1024,
                  "tracemalloc_peak_mb": peak / 2**20}))
"""

WRAPPER = """
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss)
"""


def env_for(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def build(work: Path, origins: tuple[int, ...]) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    subprocess.run([sys.executable, "-c", BUILD, str(SEED), *map(str, origins)], cwd=work,
                   env=env, check=True)


def run_command(env: dict[str, str], cmd: str, config: Path, data: Path, out: Path,
                *rest: str) -> tuple[float, float]:
    """Run one ``remitsim`` command in its own process, started by ``WRAPPER``:
    its wall time in seconds and its own ``ru_maxrss`` in MB."""
    argv = [sys.executable, "-m", "remitsim.cli", cmd, "--config", str(config),
            "--data-dir", str(data), "--output-dir", str(out), "--seed", str(SEED),
            "--params", str(data / "reference" / "calibration.json"), *rest]
    printed = subprocess.run([sys.executable, "-S", "-c", WRAPPER, *argv], env=env,
                             check=True, capture_output=True, text=True).stdout.split()
    code, wall, maxrss_kb = int(printed[-3]), float(printed[-2]), int(printed[-1])
    if code != 0:
        raise SystemExit(f"{env['PYTHONPATH']}: {cmd} on {data} exited {code}")
    return wall, maxrss_kb / 1024


def measure(src: Path, data: Path, out: Path, band_config: Path, corridors: int) -> dict:
    """``load_dataset``, every command and the one-month band step of ``src`` on
    ``data``, in fresh processes."""
    env = env_for(src)
    loads = [json.loads(subprocess.run([sys.executable, "-c", LOAD, str(data)], env=env,
                                       check=True, capture_output=True, text=True).stdout)
             for _ in range(REPEATS)]
    commands = {}
    for cmd, *rest in COMMANDS:
        wall, maxrss_mb = run_command(env, cmd, data / "run.config", data, out, *rest)
        commands[cmd] = {"wall_s": round(wall, 3), "ru_maxrss_mb": round(maxrss_mb, 1)}
    bands = {}
    for cmd in BAND_COMMANDS:
        wall, maxrss_mb = run_command(env, cmd, band_config, data, out / "bands",
                                      "--start", BAND_MONTH, "--end", BAND_MONTH)
        bands[cmd] = {"wall_s": round(wall, 3), "ms_per_corridor_month":
                      round(1e3 * wall / corridors, 3), "ru_maxrss_mb": round(maxrss_mb, 1)}
    return {"load": {name: [round(load[name], 4) for load in loads] for name in loads[0]},
            "commands": commands, "bands": bands}


def verdict(results: list[dict]) -> dict:
    """Per input and tree, the RSS that load adds and its traced peak, per CSV
    byte, as the median and the largest of the repeats, and the band step's
    ``simulate`` time per corridor-month; and whether the largest input meets
    ``TARGET`` in every repeat, and ``BAND_TARGET``."""
    out = {}
    for entry in results:
        mb = 2**20 / entry["csv_bytes"]
        out[str(entry["corridors"])] = {
            f"{label}_{name.removesuffix('_mb')}_per_csv_byte": {
                "median": round(statistics.median(entry[label]["load"][name]) * mb, 2),
                "max": round(max(entry[label]["load"][name]) * mb, 2)}
            for label in ("base", "head") for name in ("rss_added_mb", "tracemalloc_peak_mb")}
        out[str(entry["corridors"])].update({
            f"{label}_band_ms_per_corridor_month":
                entry[label]["bands"]["simulate"]["ms_per_corridor_month"]
            for label in ("base", "head")})
    largest = out[str(results[-1]["corridors"])]
    return {"target_met": largest["head_rss_added_per_csv_byte"]["max"] < 3,
            "band_target_met": largest["head_band_ms_per_corridor_month"] <= BAND_TARGET_MS,
            **out}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("work", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    work = args.work.resolve()
    work.mkdir(parents=True)
    build(work, ORIGINS)
    band_config = work / "bands.config"
    band_config.write_text(f"band_draws = {BAND_DRAWS}\n", encoding="utf-8")
    results = []
    for n in ORIGINS:
        data = work / f"scale-{n}"
        csv_bytes = sum(path.stat().st_size for path in data.glob("*.csv"))
        entry = {"corridors": n * (n // 2), "csv_bytes": csv_bytes,
                 "csv_mb": round(csv_bytes / 2**20, 2)}
        for label, src in (("base", args.base_src.resolve()), ("head", ROOT / "src")):
            print(f"{n * (n // 2)} corridors: {label}", file=sys.stderr, flush=True)
            entry[label] = measure(src, data, work / f"out-{label}-{n}", band_config,
                                   entry["corridors"])
        results.append(entry)
    machine = {"cpus": os.cpu_count(), "memory_gb": round(
                   os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
               "platform": platform.platform(), "python": platform.python_version(),
               "numpy": np.__version__}
    command = "python3 tools/load_scaling.py BASE_SRC WORK_DIR" + (
        f" --out {args.out.name}" if args.out else "")
    text = json.dumps({"command": command, "seed": SEED, "repeats": REPEATS, "machine": machine,
                       "commands": [" ".join(c) for c in COMMANDS],
                       "band_step": {"month": BAND_MONTH, "band_draws": BAND_DRAWS,
                                     "commands": list(BAND_COMMANDS)},
                       "target": TARGET, "band_target": BAND_TARGET,
                       "verdict": verdict(results), "results": results}, indent=2) + "\n"
    print(text, end="")
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
