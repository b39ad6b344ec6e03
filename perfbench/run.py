"""Benchmark of the remitsim pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the one holding ``src/remitsim``).
It generates the workload's inputs from the seed (not timed), then runs the
workload's CLI commands one after another, each as its own process with
``--threads 1``, in whole rounds until ``S`` seconds have passed. After the
rounds it checks the outputs against an independent oracle and the
properties the method must have, and prints one JSON object as its last
line of output.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
over fresh processes that import the package, load the inputs and build the
context), ``wall_s`` (median per round, from the start of the first command
to the exit of the last) and ``peak_rss_mb`` (median per round of the
largest peak RSS of a command process). Both times are scaled to a fixed
host speed by :mod:`hostspeed`, on one CPU. With ``--trace 1`` one more
round runs the commands in-process under :mod:`tracer`, and the metrics are
the per-layer ones plus the tracing overhead against the untraced rounds.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
DESK_SEED = 7  # the desk fixture of the README quick start
SETUP_REPEATS = 11
CALIBRATE_MAX_ITER = 300


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # "desk" or "scale", see inputs.make_inputs
    commands: tuple[tuple[str, ...], ...]  # CLI arguments after the common flags
    start: str  # window of the first command, for the set-up probe
    end: str
    min_rounds: int = 1  # rounds to run even when the time is up

    def input_seed(self, seed: int) -> int:
        return DESK_SEED if self.inputs == "desk" else seed

    def argv(self, seed: int, data_dir: Path, out_dir: Path) -> list[list[str]]:
        common = ["--config", str(data_dir / "run.config"), "--data-dir", str(data_dir),
                  "--output-dir", str(out_dir), "--seed", str(seed), "--threads", "1"]
        params = ["--params", str(data_dir / "reference" / "calibration.json")]
        return [[cmd[0], *common, *(params if cmd[0] != "calibrate" else []), *cmd[1:]]
                for cmd in self.commands]


BANDS_WINDOW = ("2016-07", "2016-12")
REPORT_WINDOW = ("2019-10", "2019-12")

WORKLOADS = {w.name: w for w in (
    Workload("calibrate-desk", "desk",
             (("calibrate", "--starts", "1", "--max-iter", str(CALIBRATE_MAX_ITER)),),
             "2010-01", "2019-12"),
    Workload("bands-desk", "desk",
             tuple((cmd, "--start", BANDS_WINDOW[0], "--end", BANDS_WINDOW[1])
                   for cmd in ("simulate", "counterfactual")),
             *BANDS_WINDOW, min_rounds=2),
    Workload("scenarios-800", "scale",
             (("simulate",), ("counterfactual",), ("attribute",), ("compare-baseline",),
              ("report", "--start", REPORT_WINDOW[0], "--end", REPORT_WINDOW[1])),
             "2010-01", "2019-12"),
)}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_process(argv: list[str], log_path: Path) -> tuple[int, float]:
    """Run to exit, unpaused; (exit code, wall seconds)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        code = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                              cwd=ROOT).returncode
    return code, time.perf_counter() - start


def run_timed(argv: list[str], log_path: Path) -> tuple[int, float, float, os.struct_rusage]:
    """Run to exit; (exit code, wall seconds, scaled seconds, resource usage)."""
    return hostspeed.run_scaled(argv, log_path, child_env(), ROOT)


def prepare_inputs(workload: Workload, seed: int, run_dir: Path) -> Path:
    """Generate the workload's inputs afresh into the run directory."""
    import inputs

    data_dir = run_dir / "inputs"
    inputs.make_inputs(workload.inputs, workload.input_seed(seed), data_dir)
    return data_dir


def measure_setup(workload: Workload, data_dir: Path, log_path: Path) -> float:
    walls = []
    for _ in range(SETUP_REPEATS):
        code, _, scaled, _ = run_timed([sys.executable, str(HERE / "setup_probe.py"),
                                        str(data_dir), workload.start, workload.end], log_path)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}; see {log_path}")
        walls.append(scaled)
    return statistics.median(walls)


def run_round(workload: Workload, seed: int, data_dir: Path, out_dir: Path) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    codes, peak, cpu, wall, scaled = [], 0, 0.0, 0.0, 0.0
    for argv in workload.argv(seed, data_dir, out_dir):
        code, cmd_wall, cmd_scaled, usage = run_timed(
            [sys.executable, "-m", "remitsim.cli", *argv], out_dir / "commands.log")
        codes.append(code)
        peak = max(peak, usage.ru_maxrss)
        cpu += usage.ru_utime + usage.ru_stime
        wall += cmd_wall
        scaled += cmd_scaled
    return {"wall_s": scaled, "raw_wall_s": wall, "peak_rss_mb": peak / 1024.0, "cpu_s": cpu,
            "codes": codes}


def run_traced_round(workload: Workload, seed: int, data_dir: Path, out_dir: Path) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    trace_dir = out_dir.parent
    request = trace_dir / "trace-request.json"
    request.write_text(json.dumps({"commands": workload.argv(seed, data_dir, out_dir),
                                   "result": str(trace_dir / "trace-metrics.json"),
                                   "spans": str(trace_dir / "spans.json")}), encoding="utf-8")
    log_path = trace_dir / "traced.log"
    code, wall = run_process([sys.executable, str(HERE / "tracer.py"), str(request)], log_path)
    if code != 0:
        raise RuntimeError(f"traced run exited with {code}; see {log_path}")
    payload = json.loads((trace_dir / "trace-metrics.json").read_text(encoding="utf-8"))
    return {"wall_s": wall, "codes": payload["codes"], "metrics": payload["metrics"]}


def check_outputs(workload: Workload, seed: int, data_dir: Path, out_dir: Path) -> list[str]:
    import checks
    from inputs import BAND_DRAWS
    from oracle import month_index

    params = json.loads((data_dir / "reference" / "calibration.json").read_text())["params"]
    try:
        if workload.name == "calibrate-desk":
            return checks.check_calibration(out_dir, params)
        if workload.name == "bands-desk":
            months = list(range(month_index(BANDS_WINDOW[0]), month_index(BANDS_WINDOW[1]) + 1))
            return checks.check_bands(out_dir, data_dir, params, months, BAND_DRAWS)
        months = list(range(month_index(REPORT_WINDOW[0]), month_index(REPORT_WINDOW[1]) + 1))
        return checks.check_scenarios(out_dir, data_dir, params, seed, months)
    except (OSError, KeyError, ValueError) as exc:  # a missing or malformed output
        return [f"outputs could not be checked: {exc!r}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "remitsim" / "__init__.py").is_file():
        print(f"error: no remitsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    hostspeed.pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    data_dir = prepare_inputs(workload, args.seed, run_dir)

    setup_s = None
    if not args.trace:
        setup_s = measure_setup(workload, data_dir, run_dir / "setup.log")

    # every round writes to the same directory, since outputs echo their paths
    out_dir = run_dir / "out"
    rounds, hashes = [], []
    begin = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - begin < args.seconds:
        rounds.append(run_round(workload, args.seed, data_dir, out_dir))
        hashes.append(checks.manifest_outputs(out_dir))
        print(f"{workload.name} round {len(rounds) - 1}: scaled {rounds[-1]['wall_s']:.3f} s, "
              f"wall {rounds[-1]['raw_wall_s']:.3f} s, "
              f"CPU {rounds[-1]['cpu_s']:.3f} s, peak RSS {rounds[-1]['peak_rss_mb']:.1f} MB, "
              f"exit codes {rounds[-1]['codes']}",
              flush=True)
    codes = [c for r in rounds for c in r["codes"]]
    errors = check_outputs(workload, args.seed, data_dir, out_dir)
    wall_s = statistics.median(r["wall_s"] for r in rounds)

    if args.trace:
        traced = run_traced_round(workload, args.seed, data_dir, out_dir)
        codes += traced["codes"]
        hashes.append(checks.manifest_outputs(out_dir))
        errors += [f"traced: {e}" for e in check_outputs(workload, args.seed, data_dir, out_dir)]
        metrics = traced["metrics"]
        # the traced process runs unpaused, so compare it with unscaled wall time
        overhead = traced["wall_s"] - statistics.median(r["raw_wall_s"] for r in rounds)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / (traced["wall_s"] - overhead),
                                         "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    errors += checks.check_repeatable(hashes)
    for error in errors:
        print(f"check failed: {error}", flush=True)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not errors, "attempted": len(codes),
                      "failed": sum(1 for c in codes if c != 0), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
