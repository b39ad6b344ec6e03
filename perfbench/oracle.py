"""Independent per-cohort evaluation of the model from the input CSVs.

Reads the six input files with the ``csv`` module and evaluates the closed
form stated in the project README, cohort by cohort:

    count(s, a, m)  = stock_s(m) * share_s(a)
    theta(s, a, m)  = alpha + beta0 * surplus(a) + beta1 * family(m)
                      + beta2 * gdp_gap(m) + beta3 * gdp_norm(m) + disaster(m)
    p               = 1 / (1 + exp(-theta)),  0 where surplus(a) <= 0
    flow(m)         = rho * gdp_dest(year) / 12 * sum_{s,a} count * p

It shares no code with ``remitsim.engine``; only the month arithmetic and
file layout are common knowledge. Nothing here is timed.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MONTHS = 120
AGES = 101
SEXES = ("male", "female")
WINDOW = 12  # months a disaster acts, onset month included


def month_index(label: str) -> int:
    year, month = label.split("-")
    return (int(year) - 2010) * 12 + int(month) - 1


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _spline_monthly(y0: float, y1: float, y2: float) -> np.ndarray:
    """Natural cubic spline through anchors at months 0, 60 and 120, clamped at 0.

    With equal spacing h and zero end curvature, the middle second
    derivative is 3 * (y2 - 2 y1 + y0) / (2 h^2); each piece is the usual
    cubic in (x - x_l) and (x_u - x).
    """
    h = 60.0
    m1 = 3.0 * (y2 - 2.0 * y1 + y0) / (2.0 * h * h)
    x = np.arange(MONTHS, dtype=float)
    out = np.empty(MONTHS)
    left = x < h
    a, b = h - x[left], x[left]  # piece [0, 60]: m(0)=0, m(60)=m1
    out[left] = m1 * b**3 / (6 * h) + (y0 / h) * a + (y1 / h - h * m1 / 6) * b
    a, b = 2 * h - x[~left], x[~left] - h  # piece [60, 120]: m(60)=m1, m(120)=0
    out[~left] = m1 * a**3 / (6 * h) + (y1 / h - h * m1 / 6) * a + (y2 / h) * b
    out[0], out[60] = y0, y1
    return np.maximum(out, 0.0)


def _symmetry(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    tot = a + b
    return np.where(tot > 0, 2.0 * np.minimum(a, b) / np.where(tot > 0, tot, 1.0), 0.0)


@dataclass
class Inputs:
    gdp: dict = field(default_factory=dict)  # (country, year) -> GDP per capita
    population: dict = field(default_factory=dict)
    stocks: dict = field(default_factory=dict)  # (origin, dest) -> (120, 2) monthly stock
    shares: np.ndarray | None = None  # (2, 101) age shares per sex
    surplus: dict = field(default_factory=dict)  # country -> (101,)
    events: list = field(default_factory=list)  # (event_id, country, onset, hazard, affected)

    @classmethod
    def read(cls, data_dir: Path) -> "Inputs":
        data_dir = Path(data_dir)
        out = cls()
        for r in _rows(data_dir / "economics.csv"):
            key = (r["country"], int(r["year"]))
            out.gdp[key] = float(r["gdp_per_capita"])
            out.population[key] = float(r["population"])
        anchors: dict = {}
        for r in _rows(data_dir / "stocks.csv"):
            anchors.setdefault((r["origin"], r["destination"]), {})[
                (r["sex"], int(r["anchor_year"]))] = float(r["count"])
        for corridor, by in anchors.items():
            out.stocks[corridor] = np.stack(
                [_spline_monthly(by[(s, 2010)], by[(s, 2015)], by[(s, 2020)]) for s in SEXES], axis=1)
        out.shares = np.zeros((2, AGES))
        for r in _rows(data_dir / "age_profiles.csv"):
            out.shares[SEXES.index(r["sex"]), int(r["age"])] = float(r["share"])
        for r in _rows(data_dir / "surplus_profiles.csv"):
            out.surplus.setdefault(r["country"], np.zeros(AGES))[int(r["age"])] = float(r["surplus"])
        out.events = [(r["event_id"], r["country"], month_index(r["onset_month"]), r["hazard"],
                       float(r["affected"])) for r in _rows(data_dir / "disasters.csv")]
        return out

    @property
    def corridors(self) -> list[tuple[str, str]]:
        return sorted(self.stocks)

    def monthly_income(self, dest: str) -> np.ndarray:
        return np.array([self.gdp[(dest, 2010 + m // 12)] / 12.0 for m in range(MONTHS)])


class Oracle:
    """Expected flows and rounded-count sampler moments, one corridor at a time."""

    def __init__(self, inputs: Inputs, params: dict):
        self.inp = inputs
        self.p = params
        origins = sorted({o for o, _ in inputs.corridors})
        norm_values = [inputs.gdp[(o, y)] for o in origins for y in range(2010, 2020)]
        self._norm_lo, self._norm_hi = min(norm_values), max(norm_values)
        # age bands of the family proxy: young 0..24, parenting 25..50
        self._young = inputs.shares[:, :25].sum(axis=1)
        self._parenting = inputs.shares[:, 25:51].sum(axis=1)

    def _gdp_gap(self, dest: str, origin: str, year: int) -> float:
        gd, go = self.inp.gdp[(dest, year)], self.inp.gdp[(origin, year)]
        return (gd - go) / go if gd > go else -(go - gd) / gd

    def _disaster(self, origin: str, events: set | None) -> np.ndarray:
        p = self.p
        score = np.zeros(MONTHS)
        for event_id, country, onset, _hazard, affected in self.inp.events:
            if country != origin or (events is not None and event_id not in events):
                continue
            magnitude = min(affected / self.inp.population[(country, 2010 + onset // 12)], 1.0)
            for k in range(WINDOW):
                if 0 <= onset + k < MONTHS:
                    score[onset + k] += magnitude * (
                        p["height"] + p["shape"] * math.sin(math.pi / 6.0 * (k + p["shift"])))
        return score

    def corridor(self, origin: str, dest: str, events: set | None = None):
        """(counts (120, 2, 101), probabilities (120, 101), income (120,)) of one corridor.

        ``events`` restricts the active disaster events; None means all.
        """
        p, inp = self.p, self.inp
        stock = inp.stocks[(origin, dest)]  # (120, 2)
        counts = stock[:, :, None] * inp.shares[None, :, :]
        age_sym = _symmetry(stock @ self._young, stock @ self._parenting)
        sex_sym = _symmetry(stock[:, 0], stock[:, 1])
        family = 1.0 - sex_sym * age_sym
        years = [2010 + m // 12 for m in range(MONTHS)]
        gap = np.array([self._gdp_gap(dest, origin, y) for y in years])
        norm = np.array([(inp.gdp[(origin, y)] - self._norm_lo) / (self._norm_hi - self._norm_lo)
                         for y in years])
        surplus = inp.surplus.get(dest, inp.surplus["GLOBAL_DEFAULT"])
        month_part = (p["alpha"] + p["beta1"] * family + p["beta2"] * gap + p["beta3"] * norm
                      + self._disaster(origin, events))
        theta = month_part[:, None] + p["beta0"] * surplus[None, :]
        with np.errstate(over="ignore"):
            prob = np.where(surplus[None, :] > 0, 1.0 / (1.0 + np.exp(-theta)), 0.0)
        return counts, prob, inp.monthly_income(dest)

    def flows(self, origin: str, dest: str, events: set | None = None) -> np.ndarray:
        """Expected USD flow per month (120,)."""
        counts, prob, income = self.corridor(origin, dest, events)
        senders = (counts * prob[:, None, :]).sum(axis=(1, 2))
        return self.p["rho"] * income * senders

    def rounded_moments(self, origin: str, dest: str, events: set | None = None):
        """Mean and variance per month (120,) of the sampled USD flow.

        The sampler rounds each cohort count half-to-even and draws a
        binomial per cohort, so the moments use the rounded counts.
        """
        counts, prob, income = self.corridor(origin, dest, events)
        n = np.rint(counts)
        usd = self.p["rho"] * income
        mean = usd * (n * prob[:, None, :]).sum(axis=(1, 2))
        var = usd**2 * (n * prob[:, None, :] * (1.0 - prob[:, None, :])).sum(axis=(1, 2))
        return mean, var
