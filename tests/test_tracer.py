"""The benchmark's tracer still finds the program names it wraps from outside.

``perfbench/tracer.py`` replaces module attributes (``cli.load_dataset``,
``engine.build_population``, ``baseline.gravity_flows``, ...) by timing
wrappers. A name that moves or is no longer called through its module fails
``install()`` or leaves its span unrecorded; this test runs every traced
command in-process over a tiny fixture to catch both.
"""
from __future__ import annotations

import importlib
import json
from pathlib import Path

from remitsim import cli
from remitsim.behavior import REFERENCE_PARAMS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_wrapped_name_records_a_span(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    # perfbench/setup_probe.py looks these up
    assert callable(cli.load_dataset) and isinstance(cli.SimulationContext, type)

    data, out = tmp_path / "data", tmp_path / "out"
    assert cli.main(["fixtures", "generate", "--data-dir", str(data), "--seed", "3",
                     "--origins", "3", "--destinations", "2"]) == 0
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    common = ["--data-dir", str(data), "--output-dir", str(out), "--seed", "1"]
    extra = {"calibrate": ["--starts", "1", "--max-iter", "2"],
             "simulate": ["--params", str(params), "--start", "2012-01", "--end", "2012-01"],
             "counterfactual": ["--params", str(params), "--start", "2012-01", "--end", "2012-01"]}
    commands = [[name.replace("_", "-"), *common,
                 *extra.get(name, ["--params", str(params)])]
                for name in tracer_module.CLI_COMMANDS]

    names = []
    wrap = tracer_module.Tracer.wrap
    monkeypatch.setattr(tracer_module.Tracer, "wrap",
                        lambda self, owner, attr, name, count=None:
                        names.append(name) or wrap(self, owner, attr, name, count))
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        tracer.unwrap()

    assert codes == [0] * len(commands)
    recorded = {span["name"] for span in tracer.spans}
    assert sorted(set(names) - recorded) == []
    metrics = tracer_module.layer_metrics(tracer.finished_spans())
    # 1000 band draws of each of the 6 corridors' 202 cohorts in one month
    assert metrics["flows.binomial_variates"]["value"] == 1000 * 6 * 202
