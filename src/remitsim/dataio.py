"""Input schemas, validated loading, and monthly interpolation of migrant stocks.

All inputs are UTF-8 CSV files, with or without a byte-order mark, with a
mandatory header row (RFC-4180 quoting); blank lines are skipped:

    economics.csv        country,year,gdp_per_capita,population,income_group
    stocks.csv           origin,destination,sex,anchor_year,count
    age_profiles.csv     sex,age,share
    surplus_profiles.csv country,age,surplus        (country may be GLOBAL_DEFAULT)
    disasters.csv        event_id,country,onset_month,hazard,affected
    panel.csv            sender,recipient,month,amount_usd

Loading either succeeds completely or raises :class:`DataValidationError`
naming the offending file, physical line and column; there are no partial
loads. Each file is checked column by column: codes and categories over
their distinct values, numbers as ``float`` and ``int`` parse them with
bounds checked over the whole column, keys with one set. Only when a check
fails is the file read again row by row, through the same per-field rules,
to name the first bad row. The returned :class:`Dataset` is immutable; its
panel is held as read-only columns (:class:`Panel`), built straight from
the checked columns, with no record per observation.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import methodcaller
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .months import WINDOW_MONTHS, month_index, month_label, year_of

SEXES = ("male", "female")
INCOME_GROUPS = ("low", "lower-middle", "upper-middle", "high")
HAZARDS = ("drought", "earthquake", "flood", "storm")
ANCHOR_YEARS = (2010, 2015, 2020)
PANEL_YEARS = tuple(range(2010, 2020))
MAX_AGE = 100
N_AGES = MAX_AGE + 1
GLOBAL_SURPLUS = "GLOBAL_DEFAULT"
# EMDAT-style double counting can push `affected` past the population;
# beyond 10x it is treated as corrupt input.
AFFECTED_SANITY_FACTOR = 10.0
MIN_SURPLUS_AGE = 16  # no earnings surplus below this age

FILE_COLUMNS = {
    "economics.csv": ("country", "year", "gdp_per_capita", "population", "income_group"),
    "stocks.csv": ("origin", "destination", "sex", "anchor_year", "count"),
    "age_profiles.csv": ("sex", "age", "share"),
    "surplus_profiles.csv": ("country", "age", "surplus"),
    "disasters.csv": ("event_id", "country", "onset_month", "hazard", "affected"),
    "panel.csv": ("sender", "recipient", "month", "amount_usd"),
}


class DataValidationError(ValueError):
    """A schema or cross-reference violation in an input file."""


@dataclass(frozen=True)
class CountryEconomics:
    country: str
    year: int
    gdp_per_capita: float
    population: float
    income_group: str


@dataclass(frozen=True)
class MigrantStockRecord:
    origin: str
    destination: str
    sex: str
    anchor_year: int
    count: float


@dataclass(frozen=True)
class AgeProfile:
    sex: str
    age: int
    share: float


@dataclass(frozen=True)
class SurplusProfile:
    country: str
    age: int
    surplus: float


@dataclass(frozen=True)
class DisasterEvent:
    event_id: str
    country: str
    onset_month: int  # month index since 2010-01
    hazard: str
    affected: float


@dataclass(frozen=True)
class FlowObservation:
    sender: str
    recipient: str
    month: int  # month index since 2010-01
    amount_usd: float
    split_tag: str = "unassigned"


_CODE_FIELDS = ("sender", "recipient")


@dataclass(frozen=True, eq=False)
class Panel:
    """Flow observations as read-only columns, in input order.

    ``sender`` and ``recipient`` index ``codes``, the sorted country codes,
    so ordering by code index orders by code. ``month`` counts months since
    2010-01; ``split_tag`` is an object array of a few shared strings. A
    panel is a sequence of :class:`FlowObservation`: iterating or indexing
    with an int yields records, while indexing with a slice, a mask or an
    index array gives a Panel. Panels are equal when their observations are.
    """

    codes: tuple[str, ...]
    sender: np.ndarray
    recipient: np.ndarray
    month: np.ndarray
    amount_usd: np.ndarray
    split_tag: np.ndarray

    def __post_init__(self):
        for name in (*_CODE_FIELDS, "month", "amount_usd", "split_tag"):
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_columns(cls, sender: Sequence[str], recipient: Sequence[str], month: Sequence[int],
                     amount_usd: Sequence[float], split_tag: Sequence[str] | None = None) -> Panel:
        codes = tuple(sorted(set(sender).union(recipient)))
        index = {code: i for i, code in enumerate(codes)}.__getitem__
        n = len(month)
        tags = (np.full(n, "unassigned", dtype=object) if split_tag is None
                else np.array(split_tag, dtype=object))
        return cls(codes, np.fromiter(map(index, sender), np.intp, n),
                   np.fromiter(map(index, recipient), np.intp, n), np.array(month, dtype=np.intp),
                   np.array(amount_usd, dtype=float), tags)

    def __len__(self) -> int:
        return len(self.month)

    def _columns(self) -> tuple[Iterator, ...]:
        code = self.codes.__getitem__
        return (map(code, self.sender.tolist()), map(code, self.recipient.tolist()),
                self.month.tolist(), self.amount_usd.tolist(), self.split_tag.tolist())

    def __iter__(self) -> Iterator[FlowObservation]:
        return map(FlowObservation, *self._columns())

    def __getitem__(self, which):
        if isinstance(which, (int, np.integer)):
            code = self.codes.__getitem__
            return FlowObservation(code(self.sender[which]), code(self.recipient[which]),
                                   int(self.month[which]), float(self.amount_usd[which]),
                                   str(self.split_tag[which]))
        return Panel(self.codes, self.sender[which], self.recipient[which], self.month[which],
                     self.amount_usd[which], self.split_tag[which])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Panel):
            return NotImplemented
        codes, other_codes = np.array(self.codes, dtype=str), np.array(other.codes, dtype=str)
        return len(self) == len(other) and all(
            np.array_equal(mine, theirs) for mine, theirs in zip(
                (codes[self.sender], codes[self.recipient], self.month, self.amount_usd,
                 self.split_tag),
                (other_codes[other.sender], other_codes[other.recipient], other.month,
                 other.amount_usd, other.split_tag)))

    def __hash__(self) -> int:
        return hash(tuple(self))

    @property
    def year(self) -> np.ndarray:
        return year_of(self.month)

    def corridor_index(self, corridors: Sequence[tuple[str, str]]) -> np.ndarray:
        """Each observation's row in ``corridors``, (origin, destination) pairs,
        or -1; an observation's corridor is (recipient, sender)."""
        return self.lookup({corridor: i for i, corridor in enumerate(corridors)},
                           ("recipient", "sender"), -1, np.intp)

    def lookup(self, mapping: Mapping, fields: Sequence[str], missing=np.nan,
               dtype=float) -> np.ndarray:
        """``mapping.get(key, missing)`` per observation, as a ``dtype`` array.

        The key is the tuple of the observation's ``fields`` ("sender",
        "recipient", "month" or "year"), codes as strings. Each distinct key
        is looked up once.
        """
        flat, lows, dims = _flat_keys([getattr(self, field) for field in fields])
        distinct, inverse = np.unique(flat, return_inverse=True)
        parts = [(part + low).tolist()
                 for part, low in zip(np.unravel_index(distinct, dims), lows)]
        parts = [list(map(self.codes.__getitem__, part)) if field in _CODE_FIELDS else part
                 for field, part in zip(fields, parts)]
        values = np.array([mapping.get(key, missing) for key in zip(*parts)], dtype=dtype)
        return values[inverse]


def _flat_keys(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, list[int], list[int]]:
    """One int per row of the int ``columns``, equal where the rows are, with
    the lowest value and the extent of each column, which decode it."""
    lows = [int(column.min()) if len(column) else 0 for column in columns]
    dims = [int(column.max()) - low + 1 if len(column) else 1
            for column, low in zip(columns, lows)]
    flat = np.ravel_multi_index([column - low for column, low in zip(columns, lows)], dims)
    return flat, lows, dims


def as_panel(panel: Panel | Sequence[FlowObservation]) -> Panel:
    """``panel`` itself, or a Panel of its FlowObservation records."""
    if isinstance(panel, Panel):
        return panel
    records = tuple(panel)
    return Panel.from_columns([r.sender for r in records], [r.recipient for r in records],
                              [r.month for r in records], [r.amount_usd for r in records],
                              [r.split_tag for r in records])


@dataclass(frozen=True)
class Dataset:
    """Everything the engine consumes, loaded and cross-checked.

    ``panel`` may be given as a sequence of FlowObservation records; it is
    held as a :class:`Panel`.
    """

    economics: tuple[CountryEconomics, ...]
    stocks: tuple[MigrantStockRecord, ...]
    age_profiles: tuple[AgeProfile, ...]
    surplus_profiles: tuple[SurplusProfile, ...]
    disasters: tuple[DisasterEvent, ...]
    panel: Panel

    def __post_init__(self):
        object.__setattr__(self, "panel", as_panel(self.panel))

    @cached_property
    def gdp(self) -> Mapping[tuple[str, int], float]:
        return {(r.country, r.year): r.gdp_per_capita for r in self.economics}

    @cached_property
    def population(self) -> Mapping[tuple[str, int], float]:
        return {(r.country, r.year): r.population for r in self.economics}

    @cached_property
    def income_group(self) -> Mapping[tuple[str, int], str]:
        return {(r.country, r.year): r.income_group for r in self.economics}

    @cached_property
    def corridors(self) -> tuple[tuple[str, str], ...]:
        """Sorted (origin, destination) pairs present in the stock table."""
        return tuple(sorted({(r.origin, r.destination) for r in self.stocks}))

    @cached_property
    def age_shares(self) -> Mapping[str, np.ndarray]:
        """Per-sex share vector over ages 0..100; unlisted ages are 0."""
        out = {}
        for sex in SEXES:
            v = np.zeros(N_AGES)
            for r in self.age_profiles:
                if r.sex == sex:
                    v[r.age] = r.share
            v.flags.writeable = False
            out[sex] = v
        return out

    @cached_property
    def surplus_by_country(self) -> Mapping[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for r in self.surplus_profiles:
            out.setdefault(r.country, np.zeros(N_AGES))[r.age] = r.surplus
        for v in out.values():
            v.flags.writeable = False
        return out

    def surplus_for(self, country: str) -> np.ndarray:
        """Destination surplus profile, falling back to GLOBAL_DEFAULT."""
        by = self.surplus_by_country
        if country in by:
            return by[country]
        return by[GLOBAL_SURPLUS]


# ---------------------------------------------------------------------------
# Field parsing

def _err(path: Path, line: int, column: str, message: str) -> DataValidationError:
    return DataValidationError(f"{path.name}:{line}: column '{column}': {message}")


def _parse_float(path: Path, line: int, column: str, raw: str, *, minimum: float | None = None,
                 maximum: float | None = None, strict_min: bool = False) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise _err(path, line, column, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise _err(path, line, column, f"not finite: {raw!r}")
    if minimum is not None and (value < minimum or (strict_min and value == minimum)):
        bound = "> " if strict_min else ">= "
        raise _err(path, line, column, f"must be {bound}{minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _err(path, line, column, f"must be <= {maximum}, got {value}")
    return value


def _parse_int(path: Path, line: int, column: str, raw: str, *, minimum: int | None = None,
               maximum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise _err(path, line, column, f"not an integer: {raw!r}") from None
    if minimum is not None and value < minimum:
        raise _err(path, line, column, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _err(path, line, column, f"must be <= {maximum}, got {value}")
    return value


def _is_code(raw: str, *, allow_global: bool = False) -> bool:
    return ((allow_global and raw == GLOBAL_SURPLUS)
            or (len(raw) == 3 and raw.isalpha() and raw.isupper()))


def _parse_country(path: Path, line: int, column: str, raw: str, *, allow_global: bool = False) -> str:
    if not _is_code(raw, allow_global=allow_global):
        raise _err(path, line, column, f"not an ISO-3166 alpha-3 code: {raw!r}")
    return raw


def _parse_enum(path: Path, line: int, column: str, raw: str, allowed: Sequence[str]) -> str:
    if raw not in allowed:
        raise _err(path, line, column, f"{raw!r} not one of {'/'.join(allowed)}")
    return raw


def _parse_month(path: Path, line: int, column: str, raw: str) -> int:
    try:
        return month_index(raw)
    except ValueError as exc:
        raise _err(path, line, column, str(exc)) from None


# ---------------------------------------------------------------------------
# Reading: whole columns, or numbered rows for the diagnostic

def _data_rows(path: Path, fh):
    """A CSV reader over the rows of ``fh`` after its header, which must be ``path``'s."""
    columns = FILE_COLUMNS[path.name]
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise DataValidationError(f"{path.name}: empty file, expected header {','.join(columns)}")
    if tuple(header) != columns:
        raise DataValidationError(
            f"{path.name}: header {','.join(header)} does not match "
            f"required {','.join(columns)}")
    return reader


def _open(path: Path):
    if not path.exists():
        raise DataValidationError(f"{path.name}: file not found at {path}")
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first
    return open(path, newline="", encoding="utf-8-sig")


def _read_columns(path: Path) -> list[list[str]] | None:
    """The fields of the non-blank data rows as columns in ``FILE_COLUMNS``
    order, split at commas and newlines. None when the text has a quote or a
    carriage return, which only the CSV reader reads right, or when a row has
    the wrong number of fields; the row-wise reading then takes over."""
    width = len(FILE_COLUMNS[path.name])
    with _open(path) as fh:
        _data_rows(path, fh)  # the header, read as CSV
        text = fh.read()
    if '"' in text or "\r" in text:
        return None
    lines = list(filter(None, text.split("\n")))  # blank lines skipped
    if not set(map(methodcaller("count", ","), lines)) <= {width - 1}:
        return None
    fields = ",".join(lines).split(",") if lines else []
    return [fields[k::width] for k in range(width)]


def _read_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line, fields) per non-blank data row, fields in ``FILE_COLUMNS`` order;
    ``line`` is the physical line the row ends on, blank lines counted."""
    width = len(FILE_COLUMNS[path.name])
    with _open(path) as fh:
        reader = _data_rows(path, fh)
        for row in filter(None, reader):
            if len(row) != width:
                raise DataValidationError(f"{path.name}:{reader.line_num}: wrong number of fields")
            yield reader.line_num, row


def _load(path: Path, by_columns, by_rows) -> tuple:
    """The records of ``path``: ``by_columns(*columns)`` checks whole columns
    and builds them, or returns None when a check fails; then ``by_rows(path)``
    checks row by row and raises naming the first bad row, its line and column.
    Both apply the same rules, so only a bad file, or one whose text the column
    reading leaves to the CSV reader, pays for the row pass."""
    columns = _read_columns(path)
    records = None if columns is None else by_columns(*columns)
    return by_rows(path) if records is None else records


# Column checks. Each accepts exactly the values its row-wise _parse_* twin
# accepts and parses them the same way (``float`` and ``int`` themselves).

def _floats(raw: Sequence[str], *, minimum: float | None = None, maximum: float | None = None,
            strict_min: bool = False) -> list[float] | None:
    try:
        values = list(map(float, raw))
    except ValueError:
        return None
    arr = np.array(values, dtype=float)
    ok = np.isfinite(arr)
    if minimum is not None:
        ok &= (arr > minimum) if strict_min else (arr >= minimum)
    if maximum is not None:
        ok &= arr <= maximum
    return values if ok.all() else None


def _ints(raw: Sequence[str], *, minimum: int | None = None,
          maximum: int | None = None) -> list[int] | None:
    try:
        values = list(map(int, raw))
    except ValueError:
        return None
    if values and ((minimum is not None and min(values) < minimum)
                   or (maximum is not None and max(values) > maximum)):
        return None
    return values


def _months(raw: Sequence[str]) -> list[int] | None:
    try:
        by_label = {label: month_index(label) for label in set(raw)}
    except ValueError:
        return None
    return list(map(by_label.__getitem__, raw))


def _codes_ok(*columns: Sequence[str], allow_global: bool = False) -> bool:
    return all(_is_code(code, allow_global=allow_global) for code in set().union(*columns))


def _unique(*columns: Sequence) -> bool:
    return len(set(zip(*columns))) == len(columns[0])


# ---------------------------------------------------------------------------
# Per-file loaders: a column pass, and the row pass that names the first bad row

def _load_economics(path: Path) -> tuple[CountryEconomics, ...]:
    return _load(path, _economics_columns, _economics_rows)


def _economics_columns(country, year, gdp, population, group):
    years = _ints(year, minimum=1900, maximum=2100)
    gdps = _floats(gdp, minimum=0.0, strict_min=True)
    populations = _floats(population, minimum=0.0, strict_min=True)
    if (years is None or gdps is None or populations is None or not _codes_ok(country)
            or not set(group) <= set(INCOME_GROUPS) or not _unique(country, years)):
        return None
    return tuple(map(CountryEconomics, country, years, gdps, populations, group))


def _economics_rows(path: Path) -> tuple[CountryEconomics, ...]:
    rows: list[CountryEconomics] = []
    seen: set[tuple[str, int]] = set()
    for line, (country, year, gdp, population, group) in _read_rows(path):
        rec = CountryEconomics(
            country=_parse_country(path, line, "country", country),
            year=_parse_int(path, line, "year", year, minimum=1900, maximum=2100),
            gdp_per_capita=_parse_float(path, line, "gdp_per_capita", gdp,
                                        minimum=0.0, strict_min=True),
            population=_parse_float(path, line, "population", population,
                                    minimum=0.0, strict_min=True),
            income_group=_parse_enum(path, line, "income_group", group, INCOME_GROUPS),
        )
        key = (rec.country, rec.year)
        if key in seen:
            raise _err(path, line, "country", f"duplicate row for {key}")
        seen.add(key)
        rows.append(rec)
    return tuple(rows)


def _load_stocks(path: Path) -> tuple[MigrantStockRecord, ...]:
    rows = _load(path, _stock_columns, _stock_rows)
    # anchor-year completeness per (origin, destination, sex)
    anchors: dict[tuple[str, str, str], set[int]] = {}
    for rec in rows:
        anchors.setdefault((rec.origin, rec.destination, rec.sex), set()).add(rec.anchor_year)
    for (o, d, s), years in sorted(anchors.items()):
        missing = sorted(set(ANCHOR_YEARS) - years)
        if missing:
            raise DataValidationError(
                f"{path.name}: corridor {o}->{d} sex {s} missing anchor year(s) {missing}")
    return rows


def _stock_columns(origin, destination, sex, anchor_year, count):
    years = _ints(anchor_year)
    counts = _floats(count, minimum=0.0)
    if (years is None or counts is None or not _codes_ok(origin, destination)
            or not set(sex) <= set(SEXES) or not set(years) <= set(ANCHOR_YEARS)
            or any(o == d for o, d in zip(origin, destination))
            or not _unique(origin, destination, sex, years)):
        return None
    return tuple(map(MigrantStockRecord, origin, destination, sex, years, counts))


def _stock_rows(path: Path) -> tuple[MigrantStockRecord, ...]:
    rows: list[MigrantStockRecord] = []
    seen: set[tuple[str, str, str, int]] = set()
    for line, (origin, destination, sex, anchor_year, count) in _read_rows(path):
        rec = MigrantStockRecord(
            origin=_parse_country(path, line, "origin", origin),
            destination=_parse_country(path, line, "destination", destination),
            sex=_parse_enum(path, line, "sex", sex, SEXES),
            anchor_year=_parse_int(path, line, "anchor_year", anchor_year),
            count=_parse_float(path, line, "count", count, minimum=0.0),
        )
        if rec.anchor_year not in ANCHOR_YEARS:
            raise _err(path, line, "anchor_year",
                       f"must be one of {ANCHOR_YEARS}, got {rec.anchor_year}")
        if rec.origin == rec.destination:
            raise _err(path, line, "destination", f"origin equals destination ({rec.origin})")
        key = (rec.origin, rec.destination, rec.sex, rec.anchor_year)
        if key in seen:
            raise _err(path, line, "anchor_year", f"duplicate anchor for {key[:3]}")
        seen.add(key)
        rows.append(rec)
    return tuple(rows)


def _load_age_profiles(path: Path) -> tuple[AgeProfile, ...]:
    rows = _load(path, _age_columns, _age_rows)
    sums: dict[str, float] = {}
    for rec in rows:
        sums[rec.sex] = sums.get(rec.sex, 0.0) + rec.share
    for sex, total in sorted(sums.items()):
        if abs(total - 1.0) > 1e-9:
            raise DataValidationError(
                f"{path.name}: shares for sex {sex} sum to {total!r}, expected 1 +/- 1e-9")
    return rows


def _age_columns(sex, age, share):
    ages = _ints(age, minimum=0, maximum=MAX_AGE)
    shares = _floats(share, minimum=0.0, maximum=1.0)
    if (ages is None or shares is None or not set(sex) <= set(SEXES)
            or not _unique(sex, ages)):
        return None
    return tuple(map(AgeProfile, sex, ages, shares))


def _age_rows(path: Path) -> tuple[AgeProfile, ...]:
    rows: list[AgeProfile] = []
    seen: set[tuple[str, int]] = set()
    for line, (sex, age, share) in _read_rows(path):
        rec = AgeProfile(
            sex=_parse_enum(path, line, "sex", sex, SEXES),
            age=_parse_int(path, line, "age", age, minimum=0, maximum=MAX_AGE),
            share=_parse_float(path, line, "share", share, minimum=0.0, maximum=1.0),
        )
        key = (rec.sex, rec.age)
        if key in seen:
            raise _err(path, line, "age", f"duplicate row for {key}")
        seen.add(key)
        rows.append(rec)
    return tuple(rows)


def _load_surplus_profiles(path: Path) -> tuple[SurplusProfile, ...]:
    rows = _load(path, _surplus_columns, _surplus_rows)
    by_country: dict[str, set[int]] = {}
    for rec in rows:
        by_country.setdefault(rec.country, set()).add(rec.age)
    for country, ages in sorted(by_country.items()):
        missing = sorted(set(range(N_AGES)) - ages)
        if missing:
            raise DataValidationError(
                f"{path.name}: profile {country} missing age(s) {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''}; every age 0-100 is required")
    return rows


def _surplus_columns(country, age, surplus):
    ages = _ints(age, minimum=0, maximum=MAX_AGE)
    values = _floats(surplus, minimum=0.0)
    if (ages is None or values is None or not _codes_ok(country, allow_global=True)
            or any(a < MIN_SURPLUS_AGE and v != 0.0 for a, v in zip(ages, values))
            or not _unique(country, ages)):
        return None
    return tuple(map(SurplusProfile, country, ages, values))


def _surplus_rows(path: Path) -> tuple[SurplusProfile, ...]:
    rows: list[SurplusProfile] = []
    seen: set[tuple[str, int]] = set()
    for line, (country, age, surplus) in _read_rows(path):
        rec = SurplusProfile(
            country=_parse_country(path, line, "country", country, allow_global=True),
            age=_parse_int(path, line, "age", age, minimum=0, maximum=MAX_AGE),
            surplus=_parse_float(path, line, "surplus", surplus, minimum=0.0),
        )
        if rec.age < MIN_SURPLUS_AGE and rec.surplus != 0.0:
            raise _err(path, line, "surplus",
                       f"must be 0 below age {MIN_SURPLUS_AGE}, got {rec.surplus} at age {rec.age}")
        key = (rec.country, rec.age)
        if key in seen:
            raise _err(path, line, "age", f"duplicate row for {key}")
        seen.add(key)
        rows.append(rec)
    return tuple(rows)


def _load_disasters(path: Path, population: Mapping[tuple[str, int], float]) -> tuple[DisasterEvent, ...]:
    return _load(path, partial(_disaster_columns, population), partial(_disaster_rows, population))


def _disaster_columns(population, event_id, country, onset_month, hazard, affected):
    onsets = _months(onset_month)
    values = _floats(affected, minimum=0.0)
    if (onsets is None or values is None or not all(event_id) or not _codes_ok(country)
            or not set(hazard) <= set(HAZARDS) or not _unique(event_id)):
        return None
    pops = [population.get((c, year_of(m))) for c, m in zip(country, onsets)]
    if None in pops or any(a > AFFECTED_SANITY_FACTOR * p for a, p in zip(values, pops)):
        return None
    return tuple(map(DisasterEvent, event_id, country, onsets, hazard, values))


def _disaster_rows(population, path: Path) -> tuple[DisasterEvent, ...]:
    rows: list[DisasterEvent] = []
    seen: set[str] = set()
    for line, (event_id, country, onset_month, hazard, affected) in _read_rows(path):
        rec = DisasterEvent(
            event_id=event_id,
            country=_parse_country(path, line, "country", country),
            onset_month=_parse_month(path, line, "onset_month", onset_month),
            hazard=_parse_enum(path, line, "hazard", hazard, HAZARDS),
            affected=_parse_float(path, line, "affected", affected, minimum=0.0),
        )
        if not rec.event_id:
            raise _err(path, line, "event_id", "must be non-empty")
        if rec.event_id in seen:
            raise _err(path, line, "event_id", f"duplicate event_id {rec.event_id!r}")
        seen.add(rec.event_id)
        onset_year = year_of(rec.onset_month)
        pop = population.get((rec.country, onset_year))
        if pop is None:
            raise _err(path, line, "country",
                       f"no economics row for {rec.country} in onset year {onset_year}")
        if rec.affected > AFFECTED_SANITY_FACTOR * pop:
            raise _err(path, line, "affected",
                       f"{rec.affected} exceeds {AFFECTED_SANITY_FACTOR:g}x the population of "
                       f"{rec.country} in {onset_year} ({pop})")
        rows.append(rec)
    return tuple(rows)


def _load_panel(path: Path) -> Panel:
    return _load(path, _panel_columns, _panel_rows)


def _panel_columns(sender, recipient, month, amount_usd):
    months = _months(month)
    amounts = _floats(amount_usd, minimum=0.0)
    if months is None or amounts is None:
        return None
    panel = Panel.from_columns(sender, recipient, months, amounts)
    keys = np.sort(_flat_keys([panel.sender, panel.recipient, panel.month])[0])
    return panel if _codes_ok(panel.codes) and (keys[1:] != keys[:-1]).all() else None


def _panel_rows(path: Path) -> Panel:
    rows: list[FlowObservation] = []
    seen: set[tuple[str, str, int]] = set()
    for line, (sender, recipient, label, amount) in _read_rows(path):
        rec = FlowObservation(
            sender=_parse_country(path, line, "sender", sender),
            recipient=_parse_country(path, line, "recipient", recipient),
            month=_parse_month(path, line, "month", label),
            amount_usd=_parse_float(path, line, "amount_usd", amount, minimum=0.0),
        )
        key = (rec.sender, rec.recipient, rec.month)
        if key in seen:
            raise _err(path, line, "month",
                       f"duplicate observation for {sender}->{recipient} {month_label(rec.month)}")
        seen.add(key)
        rows.append(rec)
    return as_panel(rows)


# ---------------------------------------------------------------------------
# Dataset assembly

def load_dataset(data_dir: str | Path) -> Dataset:
    """Load and cross-validate all six input files from ``data_dir``.

    Raises :class:`DataValidationError` on the first violation; nothing is
    returned partially loaded.
    """
    data_dir = Path(data_dir)
    economics = _load_economics(data_dir / "economics.csv")
    stocks = _load_stocks(data_dir / "stocks.csv")
    age_profiles = _load_age_profiles(data_dir / "age_profiles.csv")
    surplus_profiles = _load_surplus_profiles(data_dir / "surplus_profiles.csv")
    population = {(r.country, r.year): r.population for r in economics}
    disasters = _load_disasters(data_dir / "disasters.csv", population)
    panel = _load_panel(data_dir / "panel.csv")

    dataset = Dataset(economics=economics, stocks=stocks, age_profiles=age_profiles,
                      surplus_profiles=surplus_profiles, disasters=disasters, panel=panel)
    _check_cross_references(dataset)
    return dataset


def _check_cross_references(ds: Dataset) -> None:
    econ_years: dict[str, set[int]] = {}
    for r in ds.economics:
        econ_years.setdefault(r.country, set()).add(r.year)

    # Modeled countries need GDP and population for every simulated year.
    modeled = {r.origin for r in ds.stocks} | {r.destination for r in ds.stocks}
    modeled |= {e.country for e in ds.disasters}
    for country in sorted(modeled):
        have = econ_years.get(country, set())
        missing = sorted(set(PANEL_YEARS) - have)
        if missing:
            raise DataValidationError(
                f"economics.csv: unknown country code or missing years for {country}: "
                f"needs every year {PANEL_YEARS[0]}-{PANEL_YEARS[-1]}, missing {missing}")

    sexes_in_stocks = {r.sex for r in ds.stocks}
    profiled = {r.sex for r in ds.age_profiles}
    for sex in sorted(sexes_in_stocks - profiled):
        raise DataValidationError(f"age_profiles.csv: no profile for sex {sex} present in stocks.csv")

    have_surplus = set(ds.surplus_by_country)
    if GLOBAL_SURPLUS not in have_surplus:
        destinations = {r.destination for r in ds.stocks}
        uncovered = sorted(destinations - have_surplus)
        if uncovered:
            raise DataValidationError(
                f"surplus_profiles.csv: no {GLOBAL_SURPLUS} profile and no profile for "
                f"destination(s) {uncovered}")


# ---------------------------------------------------------------------------
# Writing (round-trip support and fixture generation)

def _serialize_tables(ds: Dataset) -> list[tuple[str, list[Sequence[str]]]]:
    tables: list[tuple[str, list[Sequence[str]]]] = []
    tables.append(("economics.csv", [
        [r.country, str(r.year), repr(r.gdp_per_capita), repr(r.population), r.income_group]
        for r in ds.economics]))
    tables.append(("stocks.csv", [
        [r.origin, r.destination, r.sex, str(r.anchor_year), repr(r.count)] for r in ds.stocks]))
    tables.append(("age_profiles.csv", [
        [r.sex, str(r.age), repr(r.share)] for r in ds.age_profiles]))
    tables.append(("surplus_profiles.csv", [
        [r.country, str(r.age), repr(r.surplus)] for r in ds.surplus_profiles]))
    tables.append(("disasters.csv", [
        [r.event_id, r.country, month_label(r.onset_month), r.hazard, repr(r.affected)]
        for r in ds.disasters]))
    sender, recipient, month, amount_usd, _ = ds.panel._columns()
    tables.append(("panel.csv", list(zip(sender, recipient, map(month_label, month),
                                         map(repr, amount_usd)))))
    return tables


def write_dataset(ds: Dataset, data_dir: str | Path) -> list[Path]:
    """Write the dataset back to its six CSV files; reloading yields an equal Dataset."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in _serialize_tables(ds):
        path = data_dir / name
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(FILE_COLUMNS[name])
            for row in rows:
                if any("\r" in cell for cell in row):
                    fh.write(_cr_quoted_line(row))
                else:
                    writer.writerow(row)
        written.append(path)
    return written


def _cr_quoted_line(row: Sequence[str]) -> str:
    """``row`` as a CSV line ending in "\\n", each field holding a CR quoted.

    Before Python 3.13, ``csv.writer`` leaves a lone CR unquoted under a
    "\\n" terminator, and the reader then ends the row there. Under "\\r\\n"
    it quotes such fields, as Python 3.13 does under either terminator.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    return buf.getvalue()[:-2] + "\n"


# ---------------------------------------------------------------------------
# Monthly interpolation of quinquennial stocks

def _natural_cubic_second_derivs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic splines through (x, y[j]) for each row j.

    Natural boundary conditions: second derivative zero at both ends.
    Interior values come from the standard tridiagonal system, solved with
    the Thomas algorithm; the nodes ``x`` are shared, so the elimination
    factors are too, and every row is solved in the same pass.
    """
    n = len(x)
    m = np.zeros(y.shape)
    if n < 3:
        return m
    h = np.diff(x)
    # system rows i = 1..n-2:  h[i-1] m[i-1] + 2(h[i-1]+h[i]) m[i] + h[i] m[i+1] = rhs
    rhs = 6.0 * ((y[:, 2:] - y[:, 1:-1]) / h[1:] - (y[:, 1:-1] - y[:, :-2]) / h[:-1])
    diag = 2.0 * (h[:-1] + h[1:])
    lower = h[:-1]
    upper = h[1:]
    k = n - 2
    for i in range(1, k):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[:, i] -= w * rhs[:, i - 1]
    sol = np.zeros(rhs.shape)
    sol[:, -1] = rhs[:, -1] / diag[-1]
    for i in range(k - 2, -1, -1):
        sol[:, i] = (rhs[:, i] - upper[i] * sol[:, i + 1]) / diag[i]
    m[:, 1:-1] = sol
    return m


def _eval_natural_cubic(x: np.ndarray, y: np.ndarray, m: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Each row's spline (nodes ``x``, values ``y``, second derivatives ``m``) at ``xq``."""
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    xl, xu = x[idx], x[idx + 1]
    yl, yu = y[:, idx], y[:, idx + 1]
    ml, mu = m[:, idx], m[:, idx + 1]
    h = xu - xl
    a, b = xu - xq, xq - xl
    a3, b3 = a**3, b**3  # shared by all rows
    out = (ml * a3 + mu * b3) / (6.0 * h) + (yl / h - h * ml / 6.0) * a + (yu / h - h * mu / 6.0) * b
    # queries that land on a node return the anchor exactly
    out = np.where(b == 0.0, yl, out)
    out = np.where(a == 0.0, yu, out)
    return out


def interpolate_stocks_monthly(stocks: Sequence[MigrantStockRecord]) -> dict[tuple[str, str, str], np.ndarray]:
    """Natural cubic spline through the three anchors, evaluated monthly.

    Anchors sit at January 2010/2015/2020; the returned series covers the
    120 window months and is clamped at zero. At anchor months the series
    equals the anchor exactly. All series are evaluated in one array pass;
    each is a read-only row of one (series, 120) array.
    """
    anchors: dict[tuple[str, str, str], dict[int, float]] = {}
    for r in stocks:
        anchors.setdefault((r.origin, r.destination, r.sex), {})[r.anchor_year] = r.count
    for key, by_year in anchors.items():
        missing = sorted(set(ANCHOR_YEARS) - set(by_year))
        if missing:
            raise DataValidationError(f"corridor {key[0]}->{key[1]} sex {key[2]} missing anchor year(s) {missing}")
    nodes = np.array([(y - 2010) * 12.0 for y in ANCHOR_YEARS])
    months = np.arange(WINDOW_MONTHS, dtype=float)
    y = np.array([[by_year[yr] for yr in ANCHOR_YEARS] for by_year in anchors.values()],
                 dtype=float).reshape(len(anchors), len(ANCHOR_YEARS))
    m2 = _natural_cubic_second_derivs(nodes, y)
    series = np.maximum(_eval_natural_cubic(nodes, y, m2, months), 0.0)
    series.flags.writeable = False
    return dict(zip(anchors, series))


def stock_grid(corridors: Sequence[tuple[str, str]],
               series: Mapping[tuple[str, str, str], np.ndarray]) -> np.ndarray:
    """(corridors, 120 months, 2 sexes) array of monthly ``series``; absent series are 0."""
    grid = np.zeros((len(corridors), WINDOW_MONTHS, len(SEXES)))
    for c, (origin, destination) in enumerate(corridors):
        for s, sex in enumerate(SEXES):
            monthly = series.get((origin, destination, sex))
            if monthly is not None:
                grid[c, :, s] = monthly
    grid.flags.writeable = False
    return grid
