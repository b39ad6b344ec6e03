"""Output checks for each workload.

Every check compares the program's outputs with :mod:`oracle`, which
evaluates the model apart from the program, or with a property the method
must have. None compares with a stored copy of earlier output. Each check
returns a list of failure messages; an empty list means the outputs passed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from oracle import MONTHS, WINDOW, Inputs, Oracle, month_index

SE_LIMIT = 5.0  # band means must lie within this many standard errors
REL_TOL = 1e-9  # relative tolerance for deterministic values
GOLDEN_TOL = 1e-4  # tolerance of the program's golden-section search
SAMPLED_CELLS = 200  # cells of the scenarios-800 flows.csv checked against the oracle
# Parameter recovery on the noiseless desk panel.
BETA_TOL = 0.05
RHO_TOL = 0.02
MIN_TEST_R2 = 0.99


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(scale), 1e-300)


def _grid(rows) -> dict[tuple[str, str, int], float]:
    """(origin, destination, month) -> USD; CSV rows are keyed sender = destination."""
    return {(r["recipient"], r["sender"], month_index(r["month"])): float(r["amount_usd"])
            for r in rows}


def _event_blocks(inputs: Inputs) -> set[tuple[str, int]]:
    """(origin, month) cells inside some event's 12-month window."""
    return {(country, onset + k) for _, country, onset, _, _ in inputs.events
            for k in range(WINDOW) if onset + k < MONTHS}


def manifest_outputs(out_dir: Path) -> dict[str, dict[str, str]]:
    """Output hashes of every manifest in ``out_dir``, by command."""
    out = {}
    for path in sorted(Path(out_dir).glob("manifest-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        out[payload["command"]] = payload["outputs"]
    return out


def check_repeatable(per_round: list[dict]) -> list[str]:
    """Repetitions of the same run must hash their outputs identically."""
    return [f"round {k}: output hashes differ from round 0"
            for k, hashes in enumerate(per_round[1:], start=1) if hashes != per_round[0]]


# ---------------------------------------------------------------------------
# calibrate-desk

def check_calibration(out_dir: Path, reference: dict) -> list[str]:
    payload = json.loads((out_dir / "calibration.json").read_text(encoding="utf-8"))
    params = payload["params"]
    errors = []
    for name in ("beta0", "beta1", "beta2", "beta3"):
        rel = abs(params[name] / reference[name] - 1.0)
        if rel > BETA_TOL:
            errors.append(f"{name} = {params[name]:.6g} is {rel:.2%} from {reference[name]}")
    rel = abs(params["rho"] / reference["rho"] - 1.0)
    if rel > RHO_TOL:
        errors.append(f"rho = {params['rho']:.6g} is {rel:.2%} from {reference['rho']}")
    if payload["test_r2"] is None or not payload["test_r2"] > MIN_TEST_R2:
        errors.append(f"test_r2 = {payload['test_r2']} not above {MIN_TEST_R2}")
    if payload["n_excluded"] != 0:
        errors.append(f"n_excluded = {payload['n_excluded']}, expected 0")
    return errors


# ---------------------------------------------------------------------------
# bands-desk

def _check_grid_against_oracle(grid: dict, oracle: Oracle, events, label: str) -> list[str]:
    errors = []
    by_corridor: dict = {}
    for (origin, dest, month), value in grid.items():
        by_corridor.setdefault((origin, dest), []).append((month, value))
    for (origin, dest), cells in sorted(by_corridor.items()):
        expected = oracle.flows(origin, dest, events)
        for month, value in cells:
            if not _close(value, expected[month], expected[month]):
                errors.append(f"{label} {origin}<-{dest} month {month}: {value!r} vs oracle "
                              f"{expected[month]!r}")
    return errors[:5]


def _band_moments(oracle: Oracle, corridors, months, events):
    """Per-month mean and variance of the sampled global total, summed over corridors."""
    mean = np.zeros(MONTHS)
    var = np.zeros(MONTHS)
    for origin, dest in corridors:
        m, v = oracle.rounded_moments(origin, dest, events)
        mean += m
        var += v
    idx = np.array(months)
    return mean[idx], var[idx]


def _aggregate_cols(aggregate_id: str, months: list[int]) -> list[int]:
    key = aggregate_id.split(":", 1)[1]
    if key == "total":
        return list(range(len(months)))
    return [i for i, m in enumerate(months) if 2010 + m // 12 == int(key)]


def check_bands(out_dir: Path, data_dir: Path, params: dict, months: list[int],
                draws: int) -> list[str]:
    inputs = Inputs.read(data_dir)
    oracle = Oracle(inputs, params)
    errors = []
    factual = _grid(_rows(out_dir / "flows.csv"))
    counter = _grid(_rows(out_dir / "flows_counterfactual.csv"))
    induced = _grid(_rows(out_dir / "induced.csv"))
    expected_cells = {(o, d, m) for o, d in inputs.corridors for m in months}
    for name, grid in (("flows.csv", factual), ("flows_counterfactual.csv", counter),
                       ("induced.csv", induced)):
        if set(grid) != expected_cells:
            errors.append(f"{name}: cells differ from corridors x window months")
    if errors:
        return errors
    errors += _check_grid_against_oracle(factual, oracle, None, "flows.csv")
    errors += _check_grid_against_oracle(counter, oracle, set(), "flows_counterfactual.csv")

    blocks = _event_blocks(inputs)
    for key, value in induced.items():
        if not _close(value, factual[key] - counter[key], factual[key]):
            errors.append(f"induced.csv {key}: {value!r} != factual - counterfactual")
            break
    for (origin, dest, month), value in induced.items():
        if (origin, month) not in blocks and value != 0.0:
            errors.append(f"induced.csv ({origin}, {dest}, {month}): {value!r} outside every "
                          "event window")
            break

    corridors = inputs.corridors
    f_mean, f_var = _band_moments(oracle, corridors, months, None)
    c_mean, c_var = _band_moments(oracle, corridors, months, set())
    for name, prefix in (("bands.csv", "factual"), ("induced_bands.csv", "induced")):
        for row in _rows(out_dir / name):
            lower, mean, upper = float(row["lower"]), float(row["mean"]), float(row["upper"])
            if not lower <= mean <= upper:
                errors.append(f"{name} {row['aggregate_id']}: band out of order")
            if not row["aggregate_id"].startswith(prefix + ":"):
                errors.append(f"{name}: unexpected aggregate {row['aggregate_id']}")
                continue
            cols = _aggregate_cols(row["aggregate_id"], months)
            if prefix == "factual":
                expected = f_mean[cols].sum()
                se = math.sqrt(f_var[cols].sum() / draws)
            else:
                # common random numbers correlate the two runs; the sum of
                # their standard deviations bounds that of the difference
                expected = f_mean[cols].sum() - c_mean[cols].sum()
                se = (math.sqrt(f_var[cols].sum()) + math.sqrt(c_var[cols].sum())) / math.sqrt(draws)
            if abs(mean - expected) > SE_LIMIT * se:
                errors.append(f"{name} {row['aggregate_id']}: mean {mean:.6f} is "
                              f"{abs(mean - expected) / se:.1f} standard errors from the "
                              f"rounded-count expectation {expected:.6f}")
    return errors


# ---------------------------------------------------------------------------
# scenarios-800

def _annual_stock(inputs: Inputs, origin: str, dest: str, year: int) -> float:
    lo = (year - 2010) * 12
    return float(inputs.stocks[(origin, dest)][lo: lo + 12].mean(axis=0).sum())


class GravitySSE:
    """Independent gravity-model SSE over the panel, vectorized per exponent."""

    def __init__(self, inputs: Inputs, panel_rows):
        y_dest, y_origin, stock, observed = [], [], [], []
        cache = {}
        for r in panel_rows:
            dest, origin, month = r["sender"], r["recipient"], month_index(r["month"])
            year = 2010 + month // 12
            if (origin, dest) not in inputs.stocks:
                continue
            key = (origin, dest, year)
            if key not in cache:
                cache[key] = _annual_stock(inputs, origin, dest, year)
            y_dest.append(inputs.gdp[(dest, year)])
            y_origin.append(inputs.gdp[(origin, year)])
            stock.append(cache[key])
            observed.append(float(r["amount_usd"]))
        self.y_dest, self.y_origin = np.array(y_dest), np.array(y_origin)
        self.stock, self.observed = np.array(stock), np.array(observed)
        self.richer = self.y_dest >= self.y_origin

    def __call__(self, beta: float) -> float:
        gap = np.where(self.richer, self.y_dest - self.y_origin, 0.0)
        amount = self.y_origin + np.where(self.richer, gap ** beta, 0.0)
        resid = amount * self.stock / 12.0 - self.observed
        return float(resid @ resid)


def check_scenarios(out_dir: Path, data_dir: Path, params: dict, seed: int,
                    report_months: list[int]) -> list[str]:
    inputs = Inputs.read(data_dir)
    oracle = Oracle(inputs, params)
    errors = []

    # simulate: seeded sample of cells against the oracle
    factual = _grid(_rows(out_dir / "flows.csv"))
    keys = sorted(factual)
    if len(keys) != len(inputs.corridors) * MONTHS:
        return [f"flows.csv has {len(keys)} cells, expected {len(inputs.corridors) * MONTHS}"]
    rng = np.random.default_rng(seed)
    picked = [keys[i] for i in rng.choice(len(keys), size=min(SAMPLED_CELLS, len(keys)),
                                          replace=False)]
    errors += _check_grid_against_oracle({k: factual[k] for k in picked}, oracle, None,
                                         "flows.csv")

    # attribution identities
    attribution = json.loads((out_dir / "attribution.json").read_text(encoding="utf-8"))
    total = attribution["total_induced_usd"]
    scale = attribution["total_factual_usd"]
    per_hazard = attribution["per_hazard"]
    residual = total - sum(h["induced_usd"] for h in per_hazard.values())
    if not _close(attribution["interaction_residual_usd"], residual, scale):
        errors.append(f"attribution.json: residual {attribution['interaction_residual_usd']!r} "
                      f"!= total - sum over hazards {residual!r}")
    induced_sum = sum(float(r["amount_usd"]) for r in _rows(out_dir / "induced.csv"))
    if not _close(total, induced_sum, scale):
        errors.append(f"attribution.json: total induced {total!r} != sum of induced.csv "
                      f"{induced_sum!r}")
    for hazard, entry in per_hazard.items():
        affected = sum(e[4] for e in inputs.events if e[3] == hazard)
        if not _close(entry["affected_persons"], affected, affected):
            errors.append(f"attribution.json {hazard}: affected {entry['affected_persons']!r} "
                          f"!= disasters.csv sum {affected!r}")

    # isolated events against the oracle
    onsets: dict[str, list[int]] = {}
    for _, country, onset, _, _ in inputs.events:
        onsets.setdefault(country, []).append(onset)
    events = {r["event_id"]: r for r in _rows(out_dir / "events.csv")}
    isolated = [e for e in inputs.events
                if sum(abs(e[2] - o) < WINDOW for o in onsets[e[1]]) == 1]
    if not isolated:
        errors.append("no isolated event to check")
    for event_id, country, onset, _, _ in isolated:
        cols = [m for m in range(onset, onset + WINDOW) if m < MONTHS]
        induced = baseline = 0.0
        for origin, dest in inputs.corridors:
            if origin == country:
                with_event = oracle.flows(origin, dest, {event_id})[cols]
                without = oracle.flows(origin, dest, set())[cols]
                induced += float((with_event - without).sum())
                baseline += float(without.sum())
        row = events[event_id]
        if not _close(float(row["induced_usd_12m"]), induced, baseline):
            errors.append(f"events.csv {event_id}: induced {row['induced_usd_12m']} vs oracle "
                          f"{induced!r}")
        if not _close(float(row["baseline_usd_12m"]), baseline, baseline):
            errors.append(f"events.csv {event_id}: baseline {row['baseline_usd_12m']} vs oracle "
                          f"{baseline!r}")

    # gravity fit: reported SSE, and no better exponent on an independent grid
    gravity = json.loads((out_dir / "gravity.json").read_text(encoding="utf-8"))
    sse = GravitySSE(inputs, _rows(data_dir / "panel.csv"))
    beta = gravity["beta_exp"]
    at_beta = sse(beta)
    if not _close(gravity["sse"], at_beta, at_beta):
        errors.append(f"gravity.json: sse {gravity['sse']!r} vs independent {at_beta!r}")
    lo, hi = (0.01, 2.0) if beta <= 2.0 else (1.8, 6.0)
    # points within the search tolerance of the reported exponent may be better
    grid = [x for x in np.linspace(lo, hi, 199) if abs(x - beta) > GOLDEN_TOL]
    best = min(grid, key=sse)
    if gravity["sse"] > sse(best) * (1.0 + 1e-12):
        errors.append(f"gravity.json: sse {gravity['sse']!r} above the grid value "
                      f"{sse(best)!r} at exponent {best:.4f}")

    # report: sender demographics and profiles
    demo = {r["group"]: r for r in _rows(out_dir / "sender_demographics.csv")}
    for group, r in demo.items():
        if r["empty"] == "True":
            continue
        if abs(float(r["male_share"]) + float(r["female_share"]) - 1.0) > 1e-12:
            errors.append(f"sender_demographics.csv {group}: shares do not sum to 1")
    all_senders = float(demo["ALL"]["expected_senders"])
    group_sum = sum(float(r["expected_senders"]) for g, r in demo.items() if g != "ALL")
    if not _close(group_sum, all_senders, all_senders):
        errors.append(f"sender_demographics.csv: groups sum to {group_sum!r}, ALL is "
                      f"{all_senders!r}")
    window = set(report_months)
    from_flows = sum(value / (params["rho"] * inputs.gdp[(dest, 2010 + m // 12)] / 12.0)
                     for (origin, dest, m), value in factual.items() if m in window)
    if not _close(all_senders, from_flows, from_flows):
        errors.append(f"sender_demographics.csv: ALL {all_senders!r} != flows.csv over the "
                      f"report window / (rho x monthly income) {from_flows!r}")

    curves: dict = {}
    for r in _rows(out_dir / "profiles.csv"):
        curves.setdefault((r["origin"], r["month"]), []).append(
            (float(r["cum_population_fraction"]), float(r["probability"])))
    if not curves:
        errors.append("profiles.csv is empty")
    for key, points in curves.items():
        cum = np.array([c for c, _ in points])
        prob = np.array([p for _, p in points])
        if np.any(np.diff(cum) < 0) or abs(cum[-1] - 1.0) > 1e-12:
            errors.append(f"profiles.csv {key}: cumulative fraction does not rise to 1")
        if np.any(np.diff(prob) > 0):
            errors.append(f"profiles.csv {key}: probability rises along the curve")
    return errors
