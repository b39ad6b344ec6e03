"""Command wiring: outputs, exit codes, manifests, determinism."""
from __future__ import annotations

import csv
import dataclasses
import errno
import filecmp
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import remitsim
from remitsim import baseline, cli, flows, reports, scenarios
from remitsim.behavior import REFERENCE_PARAMS
from remitsim.cli import build_parser, main
from remitsim.calibration import DEFAULT_INIT
from remitsim.dataio import load_dataset
from remitsim.engine import SimulationContext
from remitsim.months import month_index
from remitsim.reports import fmt_cell

from conftest import small_csv_texts, write_csv_dir


def run(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture()
def fixture_dir(tmp_path: Path) -> Path:
    data = tmp_path / "data"
    assert run("fixtures", "generate", "--data-dir", data, "--seed", 3,
               "--origins", 3, "--destinations", 2) == 0
    return data


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_fixtures_generate_loadable(fixture_dir):
    dataset = load_dataset(fixture_dir)
    assert len(dataset.corridors) == 6
    assert len(dataset.panel) == 6 * 120


def test_build_population_row_count_and_totals(fixture_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert run("build-population", "--data-dir", fixture_dir, "--output-dir", out,
               "--start", "2011-01", "--end", "2011-06") == 0
    printed = capsys.readouterr().out
    dataset = load_dataset(fixture_dir)

    rows = _read_csv(out / "population.csv")
    male_ages = sum(1 for r in dataset.age_profiles if r.sex == "male" and r.share > 0)
    female_ages = sum(1 for r in dataset.age_profiles if r.sex == "female" and r.share > 0)
    assert len(rows) == 6 * 6 * (male_ages + female_ages)  # corridors x months x ages
    assert all(float(r["count"]) >= 0.0 for r in rows)  # plain parseable floats

    total_2015 = sum(r.count for r in dataset.stocks if r.anchor_year == 2015)
    line = next(l for l in printed.splitlines() if l.startswith("total stock 2015:"))
    assert float(line.split(":")[1]) == pytest.approx(total_2015, rel=1e-12)

    demo = _read_csv(out / "demographics.csv")
    assert len(demo) == 6 * 6
    assert all(0.0 <= float(r["family"]) <= 1.0 for r in demo)


def test_missing_file_exit_2(tmp_path, capsys):
    data = write_csv_dir(tmp_path / "data", small_csv_texts())
    (data / "stocks.csv").unlink()
    assert run("build-population", "--data-dir", data, "--output-dir", tmp_path / "o") == 2
    assert "stocks.csv" in capsys.readouterr().err


def test_malformed_csv_exit_2(tmp_path, capsys):
    texts = small_csv_texts()
    texts["disasters.csv"] = texts["disasters.csv"].replace("flood", "heatwave")
    data = write_csv_dir(tmp_path / "data", texts)
    assert run("build-population", "--data-dir", data, "--output-dir", tmp_path / "o") == 2
    assert "drought/earthquake/flood/storm" in capsys.readouterr().err


def test_stray_quote_exit_2(tmp_path, capsys):
    """An unclosed quote at line 6 swallows the rows after it, up to the CSV field limit."""
    lines = small_csv_texts()["panel.csv"].splitlines()
    lines[5] = lines[5].replace(",2010-03,", ',"2010-03,')
    lines += ["CCC,AAA,2013-01,1"] * 10_000  # 180,000 characters after the quote
    data = write_csv_dir(tmp_path / "data", {**small_csv_texts(), "panel.csv": "\n".join(lines)})
    assert run("calibrate", "--data-dir", data, "--output-dir", tmp_path / "o") == 2
    assert ("data error: panel.csv:6: unreadable CSV row: field larger than field limit (131072)\n"
            in capsys.readouterr().err)


def test_invalid_utf8_exit_2(tmp_path, capsys):
    data = write_csv_dir(tmp_path / "data", small_csv_texts())
    lines = (data / "panel.csv").read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b"BBB", b"B\xffB")
    (data / "panel.csv").write_bytes(b"\n".join(lines))
    assert run("calibrate", "--data-dir", data, "--output-dir", tmp_path / "o") == 2
    assert ("data error: panel.csv:4: not UTF-8 text: invalid start byte (byte 0xff)\n"
            in capsys.readouterr().err)


def test_simulate_without_params_exit_4(fixture_dir, tmp_path, capsys):
    assert run("simulate", "--data-dir", fixture_dir, "--output-dir", tmp_path / "o") == 4
    assert "calibrate" in capsys.readouterr().err


def test_calibrate_zero_iterations_echoes_init(fixture_dir, tmp_path):
    out = tmp_path / "out"
    assert run("calibrate", "--data-dir", fixture_dir, "--output-dir", out,
               "--starts", 1, "--max-iter", 0) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["converged"] is False
    assert payload["stop_reason"] == "max_iter"
    assert payload["iterations"] == 0
    assert payload["loss_history"] == [payload["train_sse"]]
    assert payload["params"] == DEFAULT_INIT.as_dict()


def test_threads_other_than_one_exit_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run("calibrate", "--data-dir", fixture_dir, "--output-dir", out,
            "--starts", 2, "--threads", 2)
    assert exc.value.code == 2
    assert "remitsim runs in one process" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work started


def test_threads_key_in_run_config_exit_2(fixture_dir, tmp_path, capsys):
    config = tmp_path / "run.config"
    config.write_text("seed = 1\nthreads = 1\n", encoding="utf-8")
    assert run("calibrate", "--config", config, "--data-dir", fixture_dir,
               "--output-dir", tmp_path / "out", "--starts", 1) == 2
    assert "unknown config key 'threads'" in capsys.readouterr().err


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("run").WORKLOADS
    parser = build_parser()
    for workload in workloads.values():
        for argv in workload.argv(1, tmp_path / "data", tmp_path / "out"):
            args = parser.parse_args(argv)
            assert args.command == argv[0]
            assert not hasattr(args, "threads")


def test_output_dir_is_a_file_exit_2(fixture_dir, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    assert run("build-population", "--data-dir", fixture_dir, "--output-dir", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FileExistsError") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("exc, code, message", [
    (OSError(errno.ENOSPC, "No space left on device"), 2, "error: OSError"),
    (MemoryError(), 5, "out of memory")], ids=["ENOSPC", "MemoryError"])
def test_failed_rerun_leaves_no_manifest(fixture_dir, tmp_path, monkeypatch, capsys,
                                         exc, code, message):
    """A run that fails while writing (a full disk, or out of memory) ends in
    its exit code with one stderr line, and removes the manifest of the run
    before. The output it was writing keeps the bytes of the run before, and
    no temporary file is left beside it."""
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["simulate", "--data-dir", fixture_dir, "--output-dir", out, "--params", params,
            "--start", "2016-01", "--end", "2016-12"]
    assert run(*argv) == 0
    assert (out / "manifest-simulate.json").exists()
    first = sorted(p.name for p in out.iterdir())
    flows_bytes = (out / "flows.csv").read_bytes()
    blocks = reports.Grid.blocks

    def one_block_then_fail(self):
        yield next(blocks(self))
        raise exc

    monkeypatch.setattr(reports, "GRID_BLOCK_ROWS", 64)
    monkeypatch.setattr(reports.Grid, "blocks", one_block_then_fail)
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and len(err.strip().splitlines()) == 1
    assert not (out / "manifest-simulate.json").exists()
    assert (out / "flows.csv").read_bytes() == flows_bytes
    assert sorted(p.name for p in out.iterdir()) == [n for n in first
                                                      if n != "manifest-simulate.json"]


def test_band_sums_add_months_left_to_right(tmp_path):
    """The total and the year's sum of a draw add its months left to right, as
    the output sums do: numpy's sum gives 8 + i for draw i, not 9 + i."""
    months = list(range(month_index("2016-01"), month_index("2016-12") + 1))
    rows = np.array([[1e16, 1.0, -1e16] + [1.0] * 8 + [1.0 + i] for i in range(1000)])
    assert rows.sum(axis=1).tolist() == (8.0 + np.arange(1000)).tolist()
    cli._write_bands(tmp_path / "bands.csv", rows, months, "factual")
    band = flows.confidence_band(9.0 + np.arange(1000), "factual:total")
    assert _read_csv(tmp_path / "bands.csv") == [
        {k: fmt_cell(v) for k, v in dataclasses.asdict(b).items()}
        for b in (band, dataclasses.replace(band, aggregate_id="factual:2016"))]


def test_calibrate_deterministic_output(fixture_dir, tmp_path):
    out = tmp_path / "a"
    args = ["--data-dir", fixture_dir, "--output-dir", out,
            "--starts", 1, "--max-iter", 8, "--seed", 5]
    assert run("calibrate", *args) == 0
    first = (out / "calibration.json").read_bytes()
    assert run("calibrate", *args) == 0
    assert (out / "calibration.json").read_bytes() == first


def test_calibration_failure_exit_3(tmp_path, capsys):
    # panel corridors never match the modeled ones
    texts = small_csv_texts()
    panel = ["sender,recipient,month,amount_usd"]
    panel += [f"QQQ,RRR,2010-{m:02d},100.0" for m in range(1, 11)]
    texts["panel.csv"] = "\n".join(panel) + "\n"
    data = write_csv_dir(tmp_path / "data", texts)
    assert run("calibrate", "--data-dir", data, "--output-dir", tmp_path / "o",
               "--starts", 1, "--max-iter", 1) == 3
    assert "calibration failed" in capsys.readouterr().err


def test_simulate_counterfactual_attribute_pipeline(fixture_dir, tmp_path):
    out = tmp_path / "out"
    window = ["--start", "2012-01", "--end", "2013-12"]
    assert run("calibrate", "--data-dir", fixture_dir, "--output-dir", out,
               "--starts", 1, "--max-iter", 25, "--seed", 1) == 0
    assert run("simulate", "--data-dir", fixture_dir, "--output-dir", out,
               "--seed", 7, *window) == 0
    assert run("counterfactual", "--data-dir", fixture_dir, "--output-dir", out,
               "--seed", 7, *window) == 0
    assert run("attribute", "--data-dir", fixture_dir, "--output-dir", out, *window) == 0

    flows = _read_csv(out / "flows.csv")
    assert len(flows) == 6 * 24
    assert {r["scenario_id"] for r in flows} == {"factual"}

    bands = _read_csv(out / "bands.csv")
    assert {r["aggregate_id"] for r in bands} == {"factual:total", "factual:2012", "factual:2013"}
    for r in bands:
        assert float(r["lower"]) <= float(r["mean"]) <= float(r["upper"])

    induced = _read_csv(out / "induced.csv")
    assert len(induced) == 6 * 24

    # attribution "all" row equals the flat summation of induced.csv
    attribution = _read_csv(out / "attribution.csv")
    all_row = next(r for r in attribution if r["hazard"] == "all")
    total_induced = sum(float(r["amount_usd"]) for r in induced)
    assert float(all_row["induced_usd"]) == pytest.approx(total_induced, rel=1e-9, abs=1e-6)

    events = _read_csv(out / "events.csv")
    assert {r["event_id"] for r in events} == {e.event_id for e in load_dataset(fixture_dir).disasters}

    payload = json.loads((out / "attribution.json").read_text())
    per_hazard_sum = sum(v["induced_usd"] for v in payload["per_hazard"].values())
    assert payload["interaction_residual_usd"] == pytest.approx(
        payload["total_induced_usd"] - per_hazard_sum, abs=1e-6)


def test_counterfactual_without_events_all_zero(tmp_path):
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert run("fixtures", "generate", "--data-dir", data, "--seed", 3,
               "--origins", 2, "--destinations", 2, "--no-events") == 0
    assert run("calibrate", "--data-dir", data, "--output-dir", out,
               "--starts", 1, "--max-iter", 3) == 0
    assert run("counterfactual", "--data-dir", data, "--output-dir", out,
               "--start", "2012-01", "--end", "2012-06", "--seed", 1) == 0
    induced = _read_csv(out / "induced.csv")
    assert all(float(r["amount_usd"]) == 0.0 for r in induced)


def test_manifest_changes_iff_inputs_change(fixture_dir, tmp_path):
    out1, out2, out3 = tmp_path / "m1", tmp_path / "m2", tmp_path / "m3"
    for out in (out1, out2):
        assert run("build-population", "--data-dir", fixture_dir, "--output-dir", out,
                   "--start", "2012-01", "--end", "2012-03") == 0
    m1 = (out1 / "manifest-build-population.json").read_bytes()
    m2 = (out2 / "manifest-build-population.json").read_bytes()
    # identical inputs and config (different output dir is not part of the manifest content)
    p1 = json.loads(m1)
    p2 = json.loads(m2)
    assert p1["inputs"] == p2["inputs"] and p1["outputs"] == p2["outputs"]

    # touching an input changes the manifest
    econ = (fixture_dir / "economics.csv")
    econ.write_text(econ.read_text() + "# \n".replace("# \n", ""), encoding="utf-8")
    econ.write_text(econ.read_text().replace("upper-middle", "upper-middle", 1), encoding="utf-8")
    # actually modify a value
    text = econ.read_text().splitlines()
    text[1] = text[1].replace(text[1].split(",")[2], str(float(text[1].split(",")[2]) + 1.0))
    econ.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert run("build-population", "--data-dir", fixture_dir, "--output-dir", out3,
               "--start", "2012-01", "--end", "2012-03") == 0
    p3 = json.loads((out3 / "manifest-build-population.json").read_text())
    assert p3["inputs"] != p1["inputs"]


def test_compare_baseline_and_report(fixture_dir, tmp_path):
    out = tmp_path / "out"
    assert run("calibrate", "--data-dir", fixture_dir, "--output-dir", out,
               "--starts", 1, "--max-iter", 20, "--seed", 2) == 0
    assert run("compare-baseline", "--data-dir", fixture_dir, "--output-dir", out) == 0
    comparison = _read_csv(out / "comparison.csv")
    assert len(comparison) == 6
    for row in comparison:
        obs, st, gr = (float(row[k]) for k in ("observed_usd", "structural_usd", "gravity_usd"))
        assert float(row["se_structural"]) == pytest.approx((st - obs) ** 2, rel=1e-9)
        assert float(row["se_gravity"]) == pytest.approx((gr - obs) ** 2, rel=1e-9)
    gravity = json.loads((out / "gravity.json").read_text())
    assert gravity["beta_exp"] > 0

    assert run("report", "--data-dir", fixture_dir, "--output-dir", out,
               "--start", "2013-01", "--end", "2013-12") == 0
    profiles = _read_csv(out / "profiles.csv")
    assert {r["destination_scope"] for r in profiles} == {"ALL"}
    assert {r["month"] for r in profiles} == {"2013-12"}
    senders = _read_csv(out / "sender_demographics.csv")
    groups = {r["group"] for r in senders}
    assert "ALL" in groups and len(groups) >= 2


def test_compare_baseline_reads_the_full_grid(fixture_dir, tmp_path, monkeypatch):
    """The structural flows compared at the panel cells in the window are the
    full grid's, bit for bit; the other cells are NaN."""
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    compared = []
    compare_models = baseline.compare_models
    monkeypatch.setattr(baseline, "compare_models",
                        lambda structural, *args: compared.append(structural)
                        or compare_models(structural, *args))
    assert run("compare-baseline", "--data-dir", fixture_dir, "--output-dir", tmp_path / "out",
               "--params", params, "--start", "2012-01", "--end", "2012-06") == 0

    dataset = load_dataset(fixture_dir)
    ctx = SimulationContext(dataset)
    panel = dataset.panel
    inside = (panel.month >= month_index("2012-01")) & (panel.month <= month_index("2012-06"))
    want = np.full(len(panel), np.nan)
    want[inside] = ctx.expected_flows(REFERENCE_PARAMS)[panel.corridor_index(ctx.corridors)[inside],
                                                        panel.month[inside]]
    assert compared[0].tobytes() == want.tobytes()


def test_attribute_evaluates_each_event_once(fixture_dir, tmp_path, monkeypatch):
    """attribute reads each event's no-event flows from the no-event grid that the
    per-hazard attribution builds: one evaluation per event with cells in the window,
    and events.csv holds the values of a fresh evaluation."""
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    calls = []
    expected_flows = SimulationContext.expected_flows
    monkeypatch.setattr(SimulationContext, "expected_flows",
                        lambda *args, **kwargs: calls.append(args)
                        or expected_flows(*args, **kwargs))
    assert run("attribute", "--data-dir", fixture_dir, "--output-dir", tmp_path / "out",
               "--params", params) == 0
    in_command = len(calls)

    ctx = SimulationContext(load_dataset(fixture_dir))
    calls.clear()
    scenarios.attribute_by_hazard(ctx, REFERENCE_PARAMS)
    by_hazard = len(calls)
    fresh = [scenarios.attribute_event(ctx, REFERENCE_PARAMS, e.event_id)
             for e in ctx.dataset.disasters]
    assert any(ev.months for ev in fresh)
    assert in_command == by_hazard + sum(bool(ev.months) for ev in fresh)
    assert [list(row.values()) for row in _read_csv(tmp_path / "out" / "events.csv")] == [
        [fmt_cell(v) for v in (ev.event_id, ev.induced_usd_12m, ev.baseline_usd_12m,
                               ev.relative_increase)] for ev in fresh]


def test_cli_import_loads_no_command_module():
    """Importing the CLI leaves the modules that only some commands run unloaded."""
    src = str(Path(remitsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src,
                                                                    os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, remitsim.cli; print(sorted(sys.modules))"],
        env=env, check=True, capture_output=True, text=True).stdout
    for name in ("calibration", "scenarios", "baseline", "fixtures", "flows"):
        assert f"'remitsim.{name}'" not in loaded
    assert "'remitsim.engine'" in loaded


def _loads_numpy_ma(tmp_path: Path, command: str, *options: str) -> tuple[str, str, str]:
    """The exit code of ``command`` on the desk fixture in a fresh process,
    whether numpy itself imported numpy.ma and whether it is imported at the end."""
    data = tmp_path / "data"
    assert run("fixtures", "generate", "--data-dir", data, "--seed", 7) == 0
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    src = str(Path(remitsim.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src,
                                                                    os.environ.get("PYTHONPATH")])))
    argv = [command, "--data-dir", str(data), "--output-dir", str(tmp_path / "out"),
            *(() if command == "calibrate" else ("--params", str(params))), *options]
    script = ("import sys, numpy; with_numpy = 'numpy.ma' in sys.modules; "
              "from remitsim.cli import main; code = main(sys.argv[1:]); "
              "print(code, with_numpy, 'numpy.ma' in sys.modules)")
    printed = subprocess.run([sys.executable, "-c", script, *argv], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
    return tuple(printed[-3:])


def test_compare_baseline_loads_no_numpy_ma(tmp_path):
    """compare-baseline on the desk fixture never imports numpy.ma, which numpy 2
    loads on first use (about 10 ms in a fresh process); numpy 1 loads it with
    numpy itself, so there the check holds trivially."""
    code, with_numpy, loaded = _loads_numpy_ma(tmp_path, "compare-baseline")
    assert code == "0"
    assert loaded == with_numpy


@pytest.mark.parametrize("command", ["simulate", "counterfactual"])
def test_band_command_loads_no_numpy_ma(tmp_path, command):
    """simulate and counterfactual with bands (1000 draws over two months)
    take the band ends from a partition and never import numpy.ma."""
    code, with_numpy, loaded = _loads_numpy_ma(tmp_path, command, "--start", "2016-11",
                                               "--end", "2016-12", "--seed", "7")
    assert code == "0"
    assert loaded == with_numpy


def test_calibrate_bootstrap_loads_no_numpy_ma(tmp_path):
    """The bootstrap parameter intervals take their ends from the bands'
    partition rule, not from np.percentile, which imports numpy.ma."""
    code, with_numpy, loaded = _loads_numpy_ma(tmp_path, "calibrate", "--bootstrap-reps", "2")
    assert code == "0"
    assert loaded == with_numpy


def test_band_does_not_depend_on_window(tmp_path):
    data = tmp_path / "data"
    assert run("fixtures", "generate", "--data-dir", data, "--seed", 7) == 0
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    bands = {}
    for start in ("2016-12", "2017-01"):
        out = tmp_path / start
        assert run("simulate", "--data-dir", data, "--output-dir", out, "--seed", 7,
                   "--params", params, "--start", start, "--end", "2017-01") == 0
        bands[start] = next(r for r in _read_csv(out / "bands.csv")
                            if r["aggregate_id"] == "factual:2017")
    assert bands["2016-12"] == bands["2017-01"]


@pytest.mark.parametrize("command", ["simulate", "counterfactual"])
def test_too_few_band_draws_exit_2_before_any_output(fixture_dir, tmp_path, capsys, command):
    """band_draws from 1 to 999 is a configuration error, raised before the
    command samples or writes anything."""
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    config = tmp_path / "run.config"
    for draws in (1, 999):
        config.write_text(f"band_draws = {draws}\n", encoding="utf-8")
        out = tmp_path / f"out-{draws}"
        assert run(command, "--config", config, "--data-dir", fixture_dir, "--output-dir", out,
                   "--params", params, "--start", "2012-01", "--end", "2012-02") == 2
        assert "band_draws must be 0 (no bands) or >= 1000" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("simulate", ("--seed", -1)), ("counterfactual", ("--seed", -1)),
    ("calibrate", ("--seed", -1)), ("calibrate", ("--split-seed", -1))])
def test_negative_seed_exits_2_before_any_output(fixture_dir, tmp_path, capsys, command, flags):
    """A seed below 0 is a configuration error, raised before the command
    reads an input or writes an output, and the message names the key."""
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    out = tmp_path / "out"
    window = ["--start", "2016-01", "--end", "2016-02"]
    extra = ["--params", params, *window] if command != "calibrate" else ["--starts", 1]
    assert run(command, "--data-dir", fixture_dir, "--output-dir", out, *flags, *extra) == 2
    key = flags[0].removeprefix("--").replace("-", "_")
    assert f"{key} must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_attribute_convention_flag_is_the_echoed_attribution(fixture_dir, tmp_path):
    """``--convention`` overrides the config file's ``attribution``: the
    manifest echoes the convention that ran."""
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    config = tmp_path / "run.config"
    config.write_text("attribution = only_hazard\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("attribute", "--config", config, "--data-dir", fixture_dir, "--output-dir", out,
               "--params", params, "--start", "2012-01", "--end", "2012-06",
               "--convention", "leave_one_out") == 0
    assert json.loads((out / "attribution.json").read_text())["convention"] == "leave_one_out"
    manifest = json.loads((out / "manifest-attribute.json").read_text())
    assert manifest["config"]["attribution"] == "leave_one_out"


def test_zero_band_draws_skip_bands(fixture_dir, tmp_path):
    params = tmp_path / "calibration.json"
    params.write_text(json.dumps({"params": REFERENCE_PARAMS.as_dict()}), encoding="utf-8")
    config = tmp_path / "run.config"
    config.write_text("band_draws = 0\n", encoding="utf-8")
    out = tmp_path / "out"
    for command in ("simulate", "counterfactual"):
        assert run(command, "--config", config, "--data-dir", fixture_dir, "--output-dir", out,
                   "--params", params, "--start", "2012-01", "--end", "2012-02") == 0
    names = {p.name for p in out.iterdir()}
    assert {"flows.csv", "induced.csv", "manifest-simulate.json"} <= names
    assert not names & {"bands.csv", "induced_bands.csv"}


def test_bad_config_key_exit_2(tmp_path, capsys):
    config = tmp_path / "run.config"
    config.write_text("no_such_key = 1\n", encoding="utf-8")
    assert run("build-population", "--config", config) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_every_command_reruns_byte_identical(fixture_dir, tmp_path):
    """attribute, compare-baseline, report and build-population write the same
    bytes, manifests included, when run again into the same directory."""
    out = tmp_path / "out"
    assert run("calibrate", "--data-dir", fixture_dir, "--output-dir", out,
               "--starts", 1, "--max-iter", 10, "--seed", 5) == 0
    commands = [("attribute",), ("compare-baseline",), ("report",),
                ("build-population", "--start", "2015-01", "--end", "2015-12")]
    snapshots = []
    for attempt in ("a", "b"):
        for command in commands:
            assert run(*command, "--data-dir", fixture_dir, "--output-dir", out) == 0
        snapshots.append(shutil.copytree(out, tmp_path / attempt))
    names = sorted(p.name for p in snapshots[0].iterdir() if p.suffix in (".csv", ".json"))
    for name in ("attribution.csv", "attribution.json", "events.csv", "comparison.csv",
                 "gravity.json", "profiles.csv", "sender_demographics.csv", "population.csv",
                 "demographics.csv", "manifest-report.json", "manifest-build-population.json"):
        assert name in names
    for name in names:
        assert filecmp.cmp(snapshots[0] / name, snapshots[1] / name, shallow=False), name
