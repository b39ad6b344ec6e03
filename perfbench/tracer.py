"""Traced in-process run of a workload's CLI commands.

    python3 perfbench/tracer.py REQUEST.json

The request names the commands (argument lists for ``remitsim.cli.main``)
and where to write the per-layer metrics and the spans. Wrappers are
installed from outside at the names the callers look up, so no program
file changes: each records a span (name, start, end, parent) and the
counts of its layer at the same boundary. Spans stay in memory and are
written when the run ends, each with its self time: its duration minus
the time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

from remitsim import baseline, calibration, cli, engine, flows, population, reports, scenarios
from remitsim.engine import SimulationContext

CLI_COMMANDS = ("calibrate", "simulate", "counterfactual", "attribute", "compare_baseline",
                "report")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._originals: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a ``name`` span.

        ``count(span, args, kwargs, result)`` runs after the span has ended,
        so its own cost stays out of the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "start": time.perf_counter(), "counts": {}}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(span, args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def finished_spans(self) -> list[dict]:
        """Spans with durations and self times, children subtracted."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = []
        for span in self.spans:
            duration = span["end"] - span["start"]
            out.append({**span, "duration_s": duration,
                        "self_s": duration - child_time[span["id"]]})
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public functions each layer's callers look up."""
    def set_count(key, fn):
        def count(span, args, kwargs, result):
            span["counts"][key] = fn(args, kwargs, result)
        return count

    for command in CLI_COMMANDS:
        tracer.wrap(cli, f"cmd_{command}", f"cli.{command}")

    def dataset_rows(args, kwargs, ds):
        return sum(len(t) for t in (ds.economics, ds.stocks, ds.age_profiles,
                                    ds.surplus_profiles, ds.disasters, ds.panel))
    tracer.wrap(cli, "load_dataset", "dataio.load", set_count("rows", dataset_rows))
    tracer.wrap(population, "interpolate_stocks_monthly", "dataio.spline")
    tracer.wrap(baseline, "interpolate_stocks_monthly", "dataio.spline")

    tracer.wrap(engine, "build_population", "population.build")
    tracer.wrap(cli, "sender_demographics", "population.sender_demographics",
                set_count("cohort_objects", lambda a, k, r: len(a[0])))

    cube = SimulationContext.probability_cube  # unwrapped, for counting outside the spans
    tracer.wrap(SimulationContext, "__init__", "engine.context")
    tracer.wrap(SimulationContext, "expected_flows", "engine.expected_flows",
                set_count("cells", lambda a, k, r: r.size))
    tracer.wrap(SimulationContext, "probability_cube", "engine.probability_cube",
                set_count("mb", lambda a, k, r: r.nbytes / 1e6))

    tracer.wrap(cli, "calibrate", "calibration.calibrate",
                set_count("iterations", lambda a, k, r: r.iterations))
    tracer.wrap(calibration, "align_panel", "calibration.align_panel")

    def sample_counts(span, args, kwargs, totals):
        ctx, params, active_ids, _seed, draws = args
        window = len(ctx.window_months)
        cells = ctx.n_corridors * window
        span["counts"].update(corridor_months=cells,
                              variates=draws * cells * ctx.cohort_counts(0, ctx.start).size)
        if active_ids is not None and len(active_ids) == 0:
            # the no-disaster half of the induced bands: which sampled
            # corridor-months have probabilities that differ from the factual run
            differ = (cube(ctx, params, None) != cube(ctx, params, active_ids))[:, ctx.window]
            span["counts"].update(induced_cells=cells, induced_useful=int(differ.any(axis=2).sum()))
    tracer.wrap(flows, "sample_monthly_totals", "flows.sample", sample_counts)
    tracer.wrap(flows, "confidence_band", "flows.band")

    tracer.wrap(scenarios, "run_counterfactual", "scenarios.counterfactual")
    tracer.wrap(scenarios, "attribute_by_hazard", "scenarios.attribute_hazard")

    def event_block(span, args, kwargs, result):
        ctx, event_id = args[0], args[2]
        country = next(e.country for e in ctx.dataset.disasters if e.event_id == event_id)
        span["counts"]["block_cells"] = len(ctx.origin_groups.get(country, ())) * len(result.months)
    tracer.wrap(scenarios, "attribute_event", "scenarios.attribute_event", event_block)
    tracer.wrap(scenarios, "summarize", "scenarios.summarize")

    tracer.wrap(baseline, "calibrate_gravity", "baseline.calibrate_gravity")
    tracer.wrap(baseline, "annual_stocks", "baseline.annual_stocks")
    tracer.wrap(baseline, "gravity_flows", "baseline.gravity_flows")
    tracer.wrap(baseline, "compare_models", "baseline.compare")

    tracer.wrap(reports, "write_csv", "reports.write_csv",
                set_count("mb", lambda a, k, path: Path(path).stat().st_size / 1e6))
    tracer.wrap(reports, "write_manifest", "reports.manifest",
                set_count("hashed_mb", lambda a, k, r: sum(Path(p).stat().st_size
                                                           for p in [*a[3], *a[4]]) / 1e6))


def layer_metrics(spans: list[dict]) -> dict[str, dict]:
    """The per-layer metrics of one traced run; 0 where a layer did not run."""
    by_id = {s["id"]: s for s in spans}

    def under(span, name):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == name:
                return True
            parent = by_id[parent]["parent"]
        return False

    def select(name, within=None):
        return [s for s in spans if s["name"] == name and (within is None or under(s, within))]

    def seconds(name, within=None):
        return sum(s["duration_s"] for s in select(name, within))

    def counted(name, key, within=None):
        return sum(s["counts"].get(key, 0) for s in select(name, within))

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = (seconds(f"cli.{command}"), "s")
    m["dataio.load_s"] = (seconds("dataio.load"), "s")
    m["dataio.rows_loaded"] = (counted("dataio.load", "rows"), "count")
    m["dataio.spline_s"] = (seconds("dataio.spline"), "s")
    m["dataio.spline_calls"] = (len(select("dataio.spline")), "count")
    m["population.build_s"] = (seconds("population.build"), "s")
    m["population.cohort_objects"] = (counted("population.sender_demographics", "cohort_objects"),
                                      "count")
    m["population.sender_demographics_s"] = (seconds("population.sender_demographics"), "s")
    m["engine.context_s"] = (seconds("engine.context"), "s")
    m["engine.expected_flows_calls"] = (len(select("engine.expected_flows")), "count")
    m["engine.expected_flows_s"] = (seconds("engine.expected_flows"), "s")
    m["engine.expected_flows_cells"] = (counted("engine.expected_flows", "cells"), "count")
    m["engine.probability_cube_calls"] = (len(select("engine.probability_cube")), "count")
    m["engine.probability_cube_s"] = (seconds("engine.probability_cube"), "s")
    m["engine.probability_cube_mb"] = (counted("engine.probability_cube", "mb"), "MB")
    loss_evals = len(select("engine.expected_flows", "calibration.calibrate"))
    m["calibration.calibrate_s"] = (seconds("calibration.calibrate"), "s")
    m["calibration.iterations"] = (counted("calibration.calibrate", "iterations"), "count")
    m["calibration.loss_evals"] = (loss_evals, "count")
    m["calibration.loss_eval_ms"] = (
        1e3 * ratio(seconds("engine.expected_flows", "calibration.calibrate"), loss_evals), "ms")
    m["calibration.align_panel_s"] = (seconds("calibration.align_panel"), "s")
    corridor_months = counted("flows.sample", "corridor_months")
    m["flows.sample_s"] = (seconds("flows.sample"), "s")
    m["flows.sample_calls"] = (len(select("flows.sample")), "count")
    m["flows.corridor_months"] = (corridor_months, "count")
    m["flows.corridor_month_ms"] = (1e3 * ratio(seconds("flows.sample"), corridor_months), "ms")
    m["flows.binomial_variates"] = (counted("flows.sample", "variates"), "count")
    m["flows.band_s"] = (seconds("flows.band"), "s")
    m["flows.induced_useful_ratio"] = (ratio(counted("flows.sample", "induced_useful"),
                                             counted("flows.sample", "induced_cells")), "ratio")
    m["scenarios.counterfactual_s"] = (seconds("scenarios.counterfactual"), "s")
    m["scenarios.attribute_hazard_s"] = (seconds("scenarios.attribute_hazard"), "s")
    m["scenarios.attribute_event_s"] = (seconds("scenarios.attribute_event"), "s")
    m["scenarios.attribute_event_calls"] = (len(select("scenarios.attribute_event")), "count")
    m["scenarios.event_useful_ratio"] = (
        ratio(counted("scenarios.attribute_event", "block_cells"),
              counted("engine.expected_flows", "cells", "scenarios.attribute_event")), "ratio")
    m["scenarios.summarize_s"] = (seconds("scenarios.summarize"), "s")
    m["baseline.calibrate_gravity_s"] = (seconds("baseline.calibrate_gravity"), "s")
    m["baseline.sse_evals"] = (len(select("baseline.annual_stocks", "baseline.calibrate_gravity")),
                               "count")
    m["baseline.gravity_flows_s"] = (seconds("baseline.gravity_flows"), "s")
    m["baseline.compare_s"] = (seconds("baseline.compare"), "s")
    m["reports.write_csv_s"] = (seconds("reports.write_csv"), "s")
    m["reports.csv_mb"] = (counted("reports.write_csv", "mb"), "MB")
    m["reports.manifest_s"] = (seconds("reports.manifest"), "s")
    m["reports.hashed_mb"] = (counted("reports.manifest", "hashed_mb"), "MB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text(encoding="utf-8"))
    tracer = Tracer()
    install(tracer)
    try:
        codes = [cli.main(argv) for argv in request["commands"]]
    finally:
        tracer.unwrap()
    spans = tracer.finished_spans()
    Path(request["spans"]).write_text(json.dumps(spans, indent=1) + "\n", encoding="utf-8")
    Path(request["result"]).write_text(
        json.dumps({"codes": codes, "metrics": layer_metrics(spans)}, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
