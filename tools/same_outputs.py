"""Run every remitsim command from two source trees and compare the outputs.

    python3 tools/same_outputs.py BASE_SRC WORK_DIR

Writes the desk fixture (seed 7), the benchmark's scale inputs
(``perfbench/inputs.make_inputs("scale", 1, ...)``) and a noisy desk
fixture (seed 7, 2 % panel noise) into ``WORK_DIR/inputs`` once. Then runs
every command on the desk and scale datasets, a bootstrapped ``calibrate``
on the noisy one, and ``simulate`` and ``counterfactual`` over 2016 on the
desk (12-month bands, into ``desk-year``) and ``attribute`` under the
leave-one-out convention on the desk (into ``desk-loo``, selected by a line
of its own ``run.config``), first with ``BASE_SRC``
(the ``src`` directory of another checkout) and then with this checkout's
``src``, each into ``WORK_DIR/out``, and moves each tree's outputs aside. The
runs use the same paths because the manifests echo them. Exits 1 if
``diff -r`` finds any difference between the two trees' outputs. ``WORK_DIR``
must not exist yet.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = "1"
# the commands that read calibrated parameters: given the reference ones
NEEDS_PARAMS = ("simulate", "counterfactual", "attribute", "compare-baseline", "report")

# per dataset: the windows of the commands that would otherwise write
# hundreds of megabytes (scale) or sample 1000 band draws per month (desk);
# the desk fits also bootstrap a few replicates, so param_cis is compared;
# on the noiseless desk panel every replicate refits the same point, while
# the noisy panel gives every interval a width, so a resample that drew other
# cells would show
COMMANDS = {
    "desk": [("build-population",),
             ("calibrate", "--starts", "1", "--max-iter", "20", "--bootstrap-reps", "4"),
             ("simulate", "--start", "2016-07", "--end", "2016-12"),
             ("counterfactual", "--start", "2016-07", "--end", "2016-12"),
             ("attribute",), ("compare-baseline",), ("report",)],
    "scale": [("build-population", "--start", "2019-10", "--end", "2019-12"),
              ("calibrate", "--starts", "1", "--max-iter", "5"),
              ("simulate",), ("counterfactual",), ("attribute",), ("compare-baseline",),
              ("report", "--start", "2019-10", "--end", "2019-12")],
    "noisy-desk": [("calibrate", "--starts", "1", "--max-iter", "20", "--bootstrap-reps", "4")],
    # the bands of a whole year, whose all-months and per-year sums add 12 months
    "desk-year": [("simulate", "--start", "2016-01", "--end", "2016-12"),
                  ("counterfactual", "--start", "2016-01", "--end", "2016-12")],
    "desk-loo": [("attribute",)],
}
# the datasets whose runs read another one's inputs
INPUTS = {"desk-year": "desk", "desk-loo": "desk"}
# the lines a dataset adds to the run.config of the inputs it reads, into
# WORK_DIR/inputs/<dataset>/run.config; a config line, not a flag, so that
# every tree echoes the same attribution in its manifest
CONFIG_LINES = {"desk-loo": "attribution = leave_one_out\n"}


def make_inputs(inputs: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import make_inputs as make
    from remitsim.cli import main as remitsim
    make("desk", 7, inputs / "desk")
    make("scale", 1, inputs / "scale")
    remitsim(["fixtures", "generate", "--data-dir", str(inputs / "noisy-desk"), "--seed", "7",
              "--noise", "0.02"])
    for name, lines in CONFIG_LINES.items():
        (inputs / name).mkdir()
        base = (inputs / INPUTS[name] / "run.config").read_text(encoding="utf-8")
        (inputs / name / "run.config").write_text(base + lines, encoding="utf-8")


def run_all(src: Path, inputs: Path, out: Path) -> None:
    """Every command of ``src`` on each dataset, into ``out``/<dataset>."""
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [("fixture", ["fixtures", "generate", "--data-dir", str(out / "fixture"),
                         "--seed", "7"])]
    for name, commands in COMMANDS.items():
        data = inputs / INPUTS.get(name, name)
        config = (inputs / name if name in CONFIG_LINES else data) / "run.config"
        common = ["--config", str(config), "--data-dir", str(data),
                  "--output-dir", str(out / name), "--seed", SEED]
        params = ["--params", str(data / "reference" / "calibration.json")]
        runs += [(name, [cmd, *common, *(params if cmd in NEEDS_PARAMS else []), *rest])
                 for cmd, *rest in commands]
    for name, argv in runs:
        print(f"{src}: {name} {argv[0]}", flush=True)
        subprocess.run([sys.executable, "-m", "remitsim.cli", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)


def main(argv: list[str]) -> int:
    base_src, work = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    work.mkdir(parents=True)  # a new directory: the runs move and compare all of it
    make_inputs(work / "inputs")
    for label, src in (("base", base_src), ("head", ROOT / "src")):
        run_all(src, work / "inputs", work / "out")
        (work / "out").rename(work / label)
    diff = subprocess.run(["diff", "-r", str(work / "base"), str(work / "head")])
    print("outputs identical" if diff.returncode == 0 else "outputs differ")
    return 0 if diff.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
