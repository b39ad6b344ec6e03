"""Command-line entry point wiring datasets, calibration, simulation,
scenarios and reports into reproducible runs.

Exit codes: 0 success, 2 data or configuration errors, 3 calibration
failure, 4 missing upstream artifacts (e.g. calibration.json), 5 out of
memory.

Each command returns the paths it wrote. :func:`main` removes the
command's ``manifest-<command>.json`` before it runs and writes the new one
after its outputs, so a failed run leaves none.

Every process runs one command, and compiles the modules it imports, so
``calibration``, ``scenarios``, ``baseline``, ``fixtures`` and ``flows`` are
imported inside the commands that call them: ``simulate`` without bands and
``report`` load none of them, and ``calibrate`` loads only ``calibration``.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import reports
from .behavior import BehaviorParams, CalibrationError
from .dataio import ANCHOR_YEARS, Dataset, DataValidationError, FILE_COLUMNS, load_dataset
from .engine import SimulationContext, probability_profile, scenario_none
from .months import month_index, month_label, year_of
from .population import SenderDemographicsRow, sender_demographics
from .runconfig import RunConfig, build_config, write_config_file

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_DATA = 2
EXIT_CALIBRATION = 3
EXIT_MISSING_ARTIFACT = 4
EXIT_MEMORY = 5


class ArtifactMissingError(RuntimeError):
    """A required upstream output (calibration.json) is absent."""


def _input_paths(config: RunConfig) -> list[Path]:
    return [Path(config.data_dir) / name for name in FILE_COLUMNS]


def _context(dataset: Dataset, config: RunConfig) -> SimulationContext:
    return SimulationContext(dataset, start=config.start, end=config.end,
                             clamp_delta_gdp=config.delta_gdp_clamp)


def _params_path(config: RunConfig, args) -> Path:
    return Path(args.params) if args.params else Path(config.output_dir) / "calibration.json"


def _prepare(config: RunConfig, args) -> tuple[Dataset, SimulationContext, BehaviorParams]:
    """(dataset, context, calibrated params) of a command."""
    dataset = load_dataset(config.data_dir)
    path = _params_path(config, args)
    if not path.exists():
        raise ArtifactMissingError(f"calibrated parameters not found: {path}; run 'calibrate' first")
    params = BehaviorParams(**json.loads(path.read_text(encoding="utf-8"))["params"])
    return dataset, _context(dataset, config), params


def _write_bands(path: Path, totals: np.ndarray, months: list[int], prefix: str) -> Path:
    """Write the empirical bands of the all-months total and of each calendar year.
    Each draw's months add left to right (``np.add.accumulate``)."""
    from . import flows
    bands = [flows.confidence_band(np.add.accumulate(totals, axis=1)[:, -1], f"{prefix}:total")]
    for year in sorted({year_of(m) for m in months}):
        cols = [i for i, m in enumerate(months) if year_of(m) == year]
        bands.append(flows.confidence_band(np.add.accumulate(totals[:, cols], axis=1)[:, -1],
                                           f"{prefix}:{year}"))
    return reports.write_csv(path, [f.name for f in dataclasses.fields(flows.UncertaintyBand)],
                             map(dataclasses.astuple, bands))


# ---------------------------------------------------------------------------
# Commands

def cmd_fixtures_generate(config: RunConfig, args) -> None:
    from . import fixtures
    dataset = fixtures.generate_fixture(
        config.data_dir, seed=config.seed, n_origins=args.origins,
        n_destinations=args.destinations, noise=args.noise, with_events=not args.no_events)
    write_config_file(config, Path(config.data_dir) / "run.config")
    print(f"wrote synthetic dataset to {config.data_dir}: "
          f"{len(dataset.corridors)} corridors, {len(dataset.disasters)} events, "
          f"{len(dataset.panel)} panel observations (plus a starter run.config)")


def cmd_build_population(config: RunConfig, args) -> list[Path]:
    dataset = load_dataset(config.data_dir)
    ctx = _context(dataset, config)
    out = Path(config.output_dir)

    pop_path = reports.write_csv(out / "population.csv",
                                 ("origin", "destination", "sex", "age", "month", "count"),
                                 reports.population_grid(ctx))
    demo_path = reports.write_csv(
        out / "demographics.csv",
        ("origin", "destination", "month", "age_symmetry", "sex_symmetry", "asymmetry", "family"),
        reports.demographics_grid(ctx))

    for year in ANCHOR_YEARS:
        total = reports.sequential_sum(dataset.stocks.count[dataset.stocks.anchor_year == year])
        print(f"total stock {year}: {total}")
    print(f"population rows: months {month_label(config.start)}..{month_label(config.end)}")
    return [pop_path, demo_path]


def calibrate(ctx: SimulationContext, panel, config):
    """:func:`remitsim.calibration.calibrate`, its module imported on the first call."""
    from .calibration import calibrate
    return calibrate(ctx, panel, config)


def cmd_calibrate(config: RunConfig, args) -> list[Path]:
    from .calibration import CalibrationConfig, param_confidence, split_panel
    dataset = load_dataset(config.data_dir)
    ctx = _context(dataset, config)
    panel = split_panel(dataset.panel, config.split_fraction, config.effective_split_seed)
    cal_config = CalibrationConfig(starts=config.starts, max_iter=config.max_iter,
                                   tol=config.tol, seed=config.seed)
    result = calibrate(ctx, panel, cal_config)
    if config.bootstrap_reps > 0:
        result.param_cis = param_confidence(result, panel, ctx, replicates=config.bootstrap_reps,
                                            seed=config.seed)
    path = reports.write_json(Path(config.output_dir) / "calibration.json", {
        **dataclasses.asdict(result), "seed": config.seed,
        "split_seed": config.effective_split_seed, "config": config.echo()})
    print(f"calibration: converged={result.converged} ({result.stop_reason}) "
          f"iterations={result.iterations} "
          f"train_sse={result.train_sse:.6g} test_r2={result.test_r2}")
    return [path]


def cmd_simulate(config: RunConfig, args) -> list[Path]:
    dataset, ctx, params = _prepare(config, args)
    out = Path(config.output_dir)

    grid = ctx.expected_flows(params, None, (slice(None), ctx.window))
    months = list(ctx.window_months)
    flows_path = reports.write_csv(
        out / "flows.csv", ("sender", "recipient", "month", "amount_usd", "scenario_id"),
        reports.flow_grid(ctx.corridors, months, grid, "factual"))
    outputs = [flows_path]
    if config.band_draws:
        from . import flows
        totals = flows.sample_monthly_totals(ctx, params, None, config.seed, config.band_draws)
        outputs.append(_write_bands(out / "bands.csv", totals, months, "factual"))
    print(f"simulate: total expected flow {grid.sum():.6g} USD over "
          f"{month_label(config.start)}..{month_label(config.end)}")
    return outputs


def cmd_counterfactual(config: RunConfig, args) -> list[Path]:
    from . import scenarios
    dataset, ctx, params = _prepare(config, args)
    out = Path(config.output_dir)

    result = scenarios.run_counterfactual(ctx, params)
    months = list(result.months)
    labels, index = reports.corridor_month_labels(result.corridors, months)
    induced_path = reports.write_csv(
        out / "induced.csv", ("scenario_id", "sender", "recipient", "month", "amount_usd"),
        reports.Grid((("no_disaster",), *labels, None), [(0, *index, result.induced.ravel())]))
    cf_path = reports.write_csv(
        out / "flows_counterfactual.csv",
        ("sender", "recipient", "month", "amount_usd", "scenario_id"),
        reports.flow_grid(result.corridors, months, result.counterfactual, "no_disaster"))
    outputs = [induced_path, cf_path]

    for grouping, name in (("income-group", "summary_income_group.csv"),
                           ("country", "summary_country.csv"),
                           ("year", "summary_year.csv")):
        outputs.append(reports.write_csv(out / name, scenarios.SummaryRow._fields,
                                         scenarios.summarize(result, dataset, grouping)))

    if config.band_draws:
        from . import flows
        induced = flows.sample_induced_totals(ctx, params, scenario_none(), config.seed,
                                              config.band_draws)
        outputs.append(_write_bands(out / "induced_bands.csv", induced, months, "induced"))

    print(f"counterfactual: induced total {result.total_induced():.6g} USD "
          f"({100 * result.total_induced() / max(result.total_factual(), 1e-300):.3f}% of factual)")
    return outputs


def cmd_attribute(config: RunConfig, args) -> list[Path]:
    from . import scenarios
    dataset, ctx, params = _prepare(config, args)
    out = Path(config.output_dir)
    grids = scenarios.event_grids(ctx, params)
    report = scenarios.attribute_by_hazard(ctx, params, config.attribution, grids=grids)
    rows = [
        (h.hazard, h.induced_usd, h.affected_persons, h.usd_per_affected,
         h.induced_usd / report.total_factual if report.total_factual else 0.0)
        for h in report.per_hazard
    ]
    total_affected = reports.sequential_sum(h.affected_persons for h in report.per_hazard)
    rows.append(("all", report.total_induced, total_affected,
                 report.total_induced / total_affected if total_affected else None,
                 report.share_of_total))
    attr_path = reports.write_csv(
        out / "attribution.csv",
        ("hazard", "induced_usd", "affected_persons", "usd_per_affected", "share_of_total"),
        rows)
    attr_json = reports.write_json(out / "attribution.json", {
        "convention": report.convention,
        "total_induced_usd": report.total_induced,
        "total_factual_usd": report.total_factual,
        "interaction_residual_usd": report.interaction_residual,
        "share_of_total": report.share_of_total,
        "per_hazard": {h.hazard: {"induced_usd": h.induced_usd,
                                  "affected_persons": h.affected_persons,
                                  "usd_per_affected": h.usd_per_affected}
                       for h in report.per_hazard},
    })

    event_rows = []
    for event in dataset.disasters:
        ev = scenarios.attribute_event(ctx, params, event.event_id, no_event=grids[1])
        event_rows.append((ev.event_id, ev.induced_usd_12m, ev.baseline_usd_12m,
                           ev.relative_increase))
    events_path = reports.write_csv(
        out / "events.csv",
        ("event_id", "induced_usd_12m", "baseline_usd_12m", "relative_increase"), event_rows)
    print(f"attribution ({config.attribution}): induced {report.total_induced:.6g} USD, "
          f"residual {report.interaction_residual:.6g} USD")
    return [attr_path, attr_json, events_path]


def cmd_compare_baseline(config: RunConfig, args) -> list[Path]:
    from . import baseline
    dataset, ctx, params = _prepare(config, args)
    out = Path(config.output_dir)

    stocks = baseline.annual_stocks(ctx.stocks)
    fit = baseline.calibrate_gravity(dataset.panel, ctx, stocks)
    gravity = baseline.gravity_flows(ctx, fit.beta_exp, stocks)
    panel = dataset.panel
    corridor = panel.corridor_index(ctx.corridors)
    simulated = (corridor >= 0) & (panel.month >= ctx.start) & (panel.month <= ctx.end)
    structural = np.full(len(panel), np.nan)
    structural[simulated] = ctx.expected_flows(params, None,
                                               (corridor[simulated], panel.month[simulated]))
    report = baseline.compare_models(structural, gravity, panel, ctx.corridors)
    comp_path = reports.write_csv(out / "comparison.csv", baseline.ComparisonRow._fields,
                                  report.rows)
    gravity_json = reports.write_json(out / "gravity.json", {
        "beta_exp": fit.beta_exp,
        "sse": fit.sse,
        "at_boundary": fit.at_boundary,
        "unimodal": fit.unimodal,
        "n_excluded_fit": fit.n_excluded,
        "n_excluded_compare": report.n_excluded,
        "mean_relative_error_ratio": report.mean_relative_error_ratio,
        "largest_overestimates": [list(c) for c in report.largest_overestimates],
        "largest_underestimates": [list(c) for c in report.largest_underestimates],
    })
    print(f"gravity exponent {fit.beta_exp:.4f}; "
          f"relative error ratio (structural/gravity): {report.mean_relative_error_ratio}")
    return [comp_path, gravity_json]


def cmd_report(config: RunConfig, args) -> list[Path]:
    dataset, ctx, params = _prepare(config, args)
    out = Path(config.output_dir)

    cube = ctx.probability_cube(params, None, (slice(None), ctx.window))
    origins = sorted({o for o, _ in ctx.corridors})
    snapshot_months = [m for m in ctx.window_months if m % 12 == 11] or [config.end]
    profiles = [(origin, month_label(m), *probability_profile(ctx, params, origin, m, cube=cube))
                for origin in origins for m in snapshot_months]
    # the sender weights, the command's largest array, come and go before the
    # profile grid's buffers are allocated
    weights = ctx.cohort_counts(slice(None), ctx.window) * cube[:, :, None, :]
    groups = [dataset.income_group[(origin, year_of(m))]
              for origin, _ in ctx.corridors for m in ctx.window_months]
    demo_rows = sender_demographics(weights.reshape(-1, *ctx.shares.shape), groups)
    del weights
    profiles_path = reports.write_csv(
        out / "profiles.csv",
        ("origin", "destination_scope", "month", "cum_population_fraction", "probability"),
        reports.Grid(([origin for origin, *_ in profiles], ("ALL",),
                      [label for _, label, *_ in profiles], None, None),
                     ((i, 0, i, cum, p) for i, (_, _, cum, p) in enumerate(profiles))))
    senders_path = reports.write_csv(out / "sender_demographics.csv",
                                     SenderDemographicsRow._fields, demo_rows)

    n_points = sum(len(cum) for _, _, cum, _ in profiles)
    print(f"report: {n_points} profile points for {len(origins)} origins; "
          f"sender demographics over {len(groups) * np.count_nonzero(ctx.shares)} cohorts")
    return [profiles_path, senders_path]


# ---------------------------------------------------------------------------
# Argument parsing and dispatch

class _OneProcess(argparse.Action):
    """``--threads 1``, still accepted so existing command lines parse; stores nothing."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value != 1:
            parser.error(f"remitsim runs in one process; --threads accepts only 1, got {value}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run-config file (key = value lines)")
    parser.add_argument("--data-dir", help="input CSV directory")
    parser.add_argument("--output-dir", help="output directory")
    parser.add_argument("--seed", type=int, help="root random seed")
    parser.add_argument("--threads", type=int, action=_OneProcess, default=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--start", help="first simulated month, YYYY-MM")
    parser.add_argument("--end", help="last simulated month, YYYY-MM")


def _add_params_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--params", help="path to calibration.json (default: <output-dir>/calibration.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="remitsim",
                                     description="Remittance flow simulation and calibration engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="synthetic data utilities")
    fix_sub = p.add_subparsers(dest="subcommand", required=True)
    g = fix_sub.add_parser("generate", help="write a synthetic desk-scale dataset")
    _add_common(g)
    g.add_argument("--noise", type=float, default=0.0, help="multiplicative panel noise level")
    g.add_argument("--origins", type=int, default=10)
    g.add_argument("--destinations", type=int, default=5)
    g.add_argument("--no-events", action="store_true", help="omit disaster events")
    g.set_defaults(func=cmd_fixtures_generate)

    p = sub.add_parser("build-population", help="write population.csv and demographics.csv")
    _add_common(p)
    p.set_defaults(func=cmd_build_population)

    p = sub.add_parser("calibrate", help="fit behavioural parameters to the panel")
    _add_common(p)
    p.add_argument("--split-seed", type=int, help="seed for the train/test split")
    p.add_argument("--split-fraction", type=float, help="train share of the panel")
    p.add_argument("--starts", type=int, help="optimizer multi-starts")
    p.add_argument("--max-iter", type=int, help="iteration cap per start")
    p.add_argument("--tol", type=float, help="relative loss-change convergence threshold")
    p.add_argument("--bootstrap-reps", type=int, help="bootstrap replicates for parameter CIs")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="write factual flows.csv and bands.csv")
    _add_common(p)
    _add_params_flag(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("counterfactual", help="no-disaster counterfactual and induced flows")
    _add_common(p)
    _add_params_flag(p)
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("attribute", help="per-hazard and per-event attribution")
    _add_common(p)
    _add_params_flag(p)
    p.add_argument("--convention", choices=("only_hazard", "leave_one_out"))
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("compare-baseline", help="gravity-model baseline comparison")
    _add_common(p)
    _add_params_flag(p)
    p.set_defaults(func=cmd_compare_baseline)

    p = sub.add_parser("report", help="probability profiles and sender demographics")
    _add_common(p)
    _add_params_flag(p)
    p.set_defaults(func=cmd_report)
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = dict(
        data_dir=Path(args.data_dir) if args.data_dir else None,
        output_dir=Path(args.output_dir) if args.output_dir else None,
        seed=args.seed,
        attribution=getattr(args, "convention", None),
    )
    if args.start:
        overrides["start"] = month_index(args.start)
    if args.end:
        overrides["end"] = month_index(args.end)
    for name in ("split_seed", "split_fraction", "starts", "max_iter", "tol", "bootstrap_reps"):
        if hasattr(args, name) and getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    return build_config(args.config, **overrides)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        # a process entry: keep the objects made by imports out of every
        # garbage collection, which would otherwise scan them all again
        gc.freeze()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        manifest = Path(config.output_dir) / f"manifest-{args.command}.json"
        if manifest.exists():  # False also where the output dir is a file
            manifest.unlink()
        outputs = args.func(config, args)
        if outputs is not None:
            params = [_params_path(config, args)] if hasattr(args, "params") else []
            reports.write_manifest(config.output_dir, args.command, config.echo(),
                                   _input_paths(config) + params, outputs)
        return EXIT_OK
    except DataValidationError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except ArtifactMissingError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (KeyError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
