"""Input schemas, validated loading and round-trip writing.

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
loads. Each file has one :class:`Schema`: an ordered list of rules, first
the row width, then each field's (type, bounds, code, category, month) in
column order, then the rules across a row (keys, cross-checks). Every rule
masks the bad rows of whole columns at once; keys compare parsed values, not
their spelling. The first bad row is the least row of any mask, and the
message is that of the first rule it breaks, in schema order. np.loadtxt
reads plain ASCII text into fixed-width columns; text with a quote, a
carriage return, whitespace or NUL within a line, or a non-ASCII byte, and
text that np.loadtxt refuses, goes through the CSV reader into the same
columns. The returned :class:`Dataset` is immutable; its stock table and its
panel are held as read-only columns (:class:`Stocks`, :class:`Panel`), built
from the keys of the checked columns, with no record per row. The stock
spline of :mod:`remitsim.population` reads the anchor array :attr:`Stocks.anchors`.
"""
from __future__ import annotations

import codecs
import csv
import io
import math
import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .months import month_index, month_label, year_of

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

class DataValidationError(ValueError):
    """A schema or cross-reference violation in an input file."""


class CountryEconomics(NamedTuple):
    country: str
    year: int
    gdp_per_capita: float
    population: float
    income_group: str


class MigrantStockRecord(NamedTuple):
    origin: str
    destination: str
    sex: str
    anchor_year: int
    count: float


class AgeProfile(NamedTuple):
    sex: str
    age: int
    share: float


class SurplusProfile(NamedTuple):
    country: str
    age: int
    surplus: float


class DisasterEvent(NamedTuple):
    event_id: str
    country: str
    onset_month: int  # month index since 2010-01
    hazard: str
    affected: float


class FlowObservation(NamedTuple):
    sender: str
    recipient: str
    month: int  # month index since 2010-01
    amount_usd: float
    split_tag: str = "unassigned"


class _Columns:
    """A table as read-only columns, in input order: a sequence of records.

    A table holds ``codes`` and then one column per field of its record, in
    field order. A column of labels (country codes, sexes) holds each row's
    index in the tuple of labels that :meth:`_labels` gives it. Iterating or
    indexing with an int yields records, while indexing with a slice, a mask
    or an index array gives a table of the same kind. Tables are equal when
    their records are. Attributes cannot be set.
    """

    _COLUMNS: tuple[str, ...]  # the record's fields

    def __init__(self, codes: tuple[str, ...], *columns: np.ndarray):
        for column in columns:
            column.flags.writeable = False
        self.__dict__.update(codes=codes, **dict(zip(self._COLUMNS, columns, strict=True)))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def replace(self, **columns: np.ndarray) -> _Columns:
        """This table with the named ``columns`` replaced."""
        return type(self)(self.codes, *(columns.get(name, getattr(self, name))
                                        for name in self._COLUMNS))

    def _labels(self) -> Mapping[str, tuple[str, ...]]:
        """The label columns, each with the labels it indexes."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(getattr(self, self._COLUMNS[0]))

    def _columns(self) -> list[Iterator]:
        """Each column's values, labels as text."""
        labels = self._labels()
        return [map(labels[name].__getitem__, getattr(self, name).tolist()) if name in labels
                else iter(getattr(self, name).tolist()) for name in self._COLUMNS]

    def __getitem__(self, which):
        if isinstance(which, (int, np.integer)):
            return next(iter(self[[which]]))
        return type(self)(self.codes, *(getattr(self, name)[which] for name in self._COLUMNS))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def _as_table(kind: type, table) -> _Columns:
    """``table`` itself if it is a ``kind``, else a ``kind`` of its records."""
    if isinstance(table, kind):
        return table
    records = tuple(table)
    return kind.from_columns(*(zip(*records) if records else [()] * len(kind._COLUMNS)))


def _indices(labels: Sequence[str], column: Sequence[str]) -> np.ndarray:
    """Each value of ``column``'s index in ``labels``."""
    index = {label: i for i, label in enumerate(labels)}.__getitem__
    return np.fromiter(map(index, column), np.intp, len(column))


class Panel(_Columns):
    """Flow observations as read-only columns, in input order.

    ``sender`` and ``recipient`` index ``codes``, the sorted country codes,
    so ordering by code index orders by code. ``month`` counts months since
    2010-01; ``split_tag`` is an object array of a few shared strings. A
    panel is a sequence of :class:`FlowObservation` records.
    """

    codes: tuple[str, ...]
    sender: np.ndarray
    recipient: np.ndarray
    month: np.ndarray
    amount_usd: np.ndarray
    split_tag: np.ndarray

    _COLUMNS = FlowObservation._fields

    @classmethod
    def from_columns(cls, sender: Sequence[str], recipient: Sequence[str], month: Sequence[int],
                     amount_usd: Sequence[float], split_tag: Sequence[str] | None = None) -> Panel:
        codes = tuple(sorted(set(sender).union(recipient)))
        tags = _unassigned(len(month)) if split_tag is None else np.array(split_tag, dtype=object)
        return cls(codes, _indices(codes, sender), _indices(codes, recipient),
                   np.array(month, dtype=np.intp), np.array(amount_usd, dtype=float), tags)

    def _labels(self) -> Mapping[str, tuple[str, ...]]:
        return {"sender": self.codes, "recipient": self.codes}

    def __iter__(self) -> Iterator[FlowObservation]:
        return map(FlowObservation, *self._columns())

    @property
    def year(self) -> np.ndarray:
        return year_of(self.month)

    def corridor_index(self, corridors: Sequence[tuple[str, str]]) -> np.ndarray:
        """Each observation's row in ``corridors``, (origin, destination) pairs,
        or -1; an observation's corridor is (recipient, sender)."""
        position = {code: i for i, code in enumerate(self.codes)}
        rows = np.full((len(self.codes), len(self.codes)), -1, dtype=np.intp)
        for row, (origin, destination) in enumerate(corridors):
            if origin in position and destination in position:
                rows[position[origin], position[destination]] = row
        return rows[self.recipient, self.sender]


def _unassigned(n: int) -> np.ndarray:
    """``n`` "unassigned" split tags, an object array; np.full takes 15 times longer."""
    tags = np.empty(n, dtype=object)
    tags.fill("unassigned")
    return tags


class Stocks(_Columns):
    """Migrant stock anchors as read-only columns, in input order.

    ``origin`` and ``destination`` index ``codes``, the sorted country codes,
    and ``sex`` indexes :data:`SEXES`. A table of stocks is a sequence of
    :class:`MigrantStockRecord` records.
    """

    codes: tuple[str, ...]
    origin: np.ndarray
    destination: np.ndarray
    sex: np.ndarray
    anchor_year: np.ndarray
    count: np.ndarray

    _COLUMNS = MigrantStockRecord._fields

    @classmethod
    def from_columns(cls, origin: Sequence[str], destination: Sequence[str], sex: Sequence[str],
                     anchor_year: Sequence[int], count: Sequence[float]) -> Stocks:
        codes = tuple(sorted(set(origin).union(destination)))
        return cls(codes, _indices(codes, origin), _indices(codes, destination),
                   _indices(SEXES, sex), np.array(anchor_year, dtype=np.intp),
                   np.array(count, dtype=float))

    def _labels(self) -> Mapping[str, tuple[str, ...]]:
        return {"origin": self.codes, "destination": self.codes, "sex": SEXES}

    def __iter__(self) -> Iterator[MigrantStockRecord]:
        return map(MigrantStockRecord, *self._columns())

    @cached_property
    def _corridor_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ``origin * len(codes) + destination``, ascending, and
        each row's index among them."""
        return np.unique(self.origin * len(self.codes) + self.destination, return_inverse=True)

    @cached_property
    def corridor_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The origin and the destination code index of each of :attr:`corridors`."""
        return divmod(self._corridor_keys[0], len(self.codes))

    @cached_property
    def corridors(self) -> tuple[tuple[str, str], ...]:
        """Sorted (origin, destination) pairs present."""
        code = self.codes.__getitem__
        return tuple(zip(*(map(code, part.tolist()) for part in self.corridor_codes)))

    @cached_property
    def anchors(self) -> np.ndarray:
        """The anchor counts of :attr:`corridors`, from :func:`_check_anchor_years`."""
        return _check_anchor_years(self)


@dataclass(frozen=True)
class Dataset:
    """Everything the engine consumes, loaded and cross-checked.

    ``stocks`` and ``panel`` may be given as sequences of records; they are
    held as :class:`Stocks` and :class:`Panel`. This is the one place where
    records become tables: the functions that read them take the tables.
    """

    economics: tuple[CountryEconomics, ...]
    stocks: Stocks
    age_profiles: tuple[AgeProfile, ...]
    surplus_profiles: tuple[SurplusProfile, ...]
    disasters: tuple[DisasterEvent, ...]
    panel: Panel

    def __post_init__(self):
        object.__setattr__(self, "stocks", _as_table(Stocks, self.stocks))
        object.__setattr__(self, "panel", _as_table(Panel, self.panel))

    @cached_property
    def gdp(self) -> Mapping[tuple[str, int], float]:
        return {(r.country, r.year): r.gdp_per_capita for r in self.economics}

    @cached_property
    def population(self) -> Mapping[tuple[str, int], float]:
        return {(r.country, r.year): r.population for r in self.economics}

    @cached_property
    def income_group(self) -> Mapping[tuple[str, int], str]:
        return {(r.country, r.year): r.income_group for r in self.economics}

    @property
    def corridors(self) -> tuple[tuple[str, str], ...]:
        """Sorted (origin, destination) pairs present in the stock table."""
        return self.stocks.corridors

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


# ---------------------------------------------------------------------------
# Schemas: each file's rules, in the order a row is checked

class _Parsed(NamedTuple):
    """A column as :func:`_parse` gives it: each row's index among the distinct
    texts and its key, and each distinct text's value (0 if refused); or, with
    ``rows`` and ``keys`` None, each row's float value."""

    rows: np.ndarray | None
    keys: np.ndarray | None
    values: np.ndarray
    refusals: list[str]
    labels: list | None


class _Table:
    """One file's parsed columns by name. ``wrong`` masks the rows of the wrong
    width; ``population`` is economics' by (country, year)."""

    __slots__ = ("parsed", "wrong", "population")

    def __init__(self, parsed: Mapping[str, _Parsed], wrong: np.ndarray,
                 population: Mapping[tuple[str, int], float]):
        self.parsed, self.wrong, self.population = parsed, wrong, population

    def __getitem__(self, column: str) -> np.ndarray:
        """Each row's value in ``column``, 0 where the parse refused the text."""
        rows, _, values, _, _ = self.parsed[column]
        return values if rows is None else values[rows]

    def keys(self, column: str) -> np.ndarray:
        """Each row's key in ``column``: equal values share a key however they
        are spelled, and a refused row's key is negative. A float column's key
        is the bits of its value, with -0.0 as 0.0, as an unsigned int."""
        _, keys, values, _, _ = self.parsed[column]
        return (values + 0.0).view(np.uint64) if keys is None else keys

    def codes(self, *columns: str) -> tuple[str, ...]:
        """The sorted distinct values of the text ``columns``."""
        return tuple(sorted(set().union(*(self.parsed[column].labels for column in columns))))

    def indices(self, column: str, labels: Sequence[str]) -> np.ndarray:
        """Each row's index in ``labels`` of its value in the text ``column``,
        read off the column's keys; every row's value must be in ``labels``."""
        return _indices(labels, self.parsed[column].labels)[self.parsed[column].keys]

    def cell(self, column: str, row: int):
        """One parsed value as a Python scalar, which prints plainly inside a tuple."""
        return self[column][row:row + 1].tolist()[0]


class Rule(NamedTuple):
    """An input rule: ``bad(table)`` masks the rows that break it, and
    ``says(table, row)`` words the break in one row, at ``column``."""

    column: str | None
    bad: Callable[[_Table], np.ndarray]
    says: Callable[[_Table, int], str]


class Field(NamedTuple):
    """A column. ``parse`` turns a text into its value, or refuses it with a
    ValueError that words the refusal; that is the field's first rule, and
    ``rules`` follow. The default ``parse`` keeps any text. ``read`` is the
    type np.loadtxt reads the column as: float64 for numbers, which it reads as
    ``parse`` does once the text is plain and the value finite; else text, as
    fixed-width bytes that no accepted text fills, or as ``str``. ``show``
    writes a value as text that ``parse`` reads back to it."""

    column: str
    parse: Callable[[str], object] = str
    rules: tuple[Rule, ...] = ()
    dtype: object = object
    read: str = "O"
    show: Callable[[object], str] = str


class Schema(NamedTuple):
    """A file's fields in column order, then its rules across a row."""

    name: str
    fields: tuple[Field, ...]
    row_rules: tuple[Rule, ...]

    def rules(self) -> tuple[Rule, ...]:
        """Every rule, in the order a row is checked."""
        width = Rule(None, lambda t: t.wrong, lambda t, row: "wrong number of fields")
        return (width, *(rule for field in self.fields for rule in (_parsed(field.column),
                                                                    *field.rules)),
                *self.row_rules)


def _parsed(column: str) -> Rule:
    """Rule: ``column``'s parse accepts the text; its refusal words the break."""
    return Rule(column, lambda t: t.keys(column) < 0,
                lambda t, row: t.parsed[column].refusals[-1 - t.keys(column)[row]])


def _text_bytes(longest: int) -> str:
    """Fixed-width bytes, a power of two wide, that hold a text of up to
    ``longest`` characters and that a longer one, which np.loadtxt cuts, fills."""
    return f"S{1 << longest.bit_length()}"


def _code(column: str, global_default: bool = False) -> Field:
    codes = re.compile(f"[A-Z]{{3}}|{GLOBAL_SURPLUS}" if global_default else "[A-Z]{3}")

    def parse(text: str) -> str:
        if codes.fullmatch(text) is None:
            raise ValueError(f"not an ISO-3166 alpha-3 code: {text!r}")
        return text
    return Field(column, parse, read=_text_bytes(len(GLOBAL_SURPLUS) if global_default else 3))


def _enum(column: str, allowed: tuple[str, ...]) -> Field:
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"{text!r} not one of {'/'.join(allowed)}")
        return text
    return Field(column, parse, read=_text_bytes(max(map(len, allowed))))


def _bounds(column: str, minimum=None, maximum=None, strict: bool = False) -> tuple[Rule, ...]:
    """Rules: ``column`` >= ``minimum`` (> if ``strict``) and <= ``maximum``, where given."""
    rules = []
    if minimum is not None:
        below = operator.le if strict else operator.lt
        rules.append(Rule(column, lambda t: below(t[column], minimum),
                          lambda t, row: f"must be {'>' if strict else '>='} {minimum}, "
                                         f"got {t.cell(column, row)}"))
    if maximum is not None:
        rules.append(Rule(column, lambda t: t[column] > maximum,
                          lambda t, row: f"must be <= {maximum}, got {t.cell(column, row)}"))
    return tuple(rules)


_SPACES = "".join(c for c in map(chr, range(128)) if c.isspace())
# what int and float take besides a plain ASCII number: whitespace around it,
# _ between its digits (and any script's digits, which no ASCII text holds)
_NOT_IN_NUMBERS = _SPACES + "_"


def _plain(text: str) -> bool:
    """``text`` is ASCII and holds no character of ``_NOT_IN_NUMBERS``."""
    return text.isascii() and not any(c in text for c in _NOT_IN_NUMBERS)


def _integer(text: str) -> int:
    if _plain(text):
        try:
            return int(text)
        except ValueError:
            pass
    raise ValueError(f"not an integer: {text!r}")


def _number(text: str) -> float:
    if _plain(text):
        try:
            value = float(text)
        except ValueError:
            pass
        else:
            if not math.isfinite(value):
                raise ValueError(f"not finite: {text!r}")
            return value
    raise ValueError(f"not a number: {text!r}")


def _int(column: str, minimum: int | None = None, maximum: int | None = None) -> Field:
    # dtype None: an int past int64 stays a Python int, in an object array.
    # np.loadtxt reads texts of up to 7 characters, which _integer parses, so
    # "2012.0" stays refused; a longer one fills the bytes: the CSV reader's
    return Field(column, _integer, _bounds(column, minimum, maximum), dtype=None,
                 read=_text_bytes(7))


def _float(column: str, minimum: float | None = None, maximum: float | None = None,
           strict: bool = False) -> Field:
    return Field(column, _number, _bounds(column, minimum, maximum, strict), dtype=float,
                 read="f8", show=repr)


def _month(column: str) -> Field:
    # month_index words its own refusals
    return Field(column, month_index, dtype=np.intp, read=_text_bytes(len("YYYY-MM")),
                 show=month_label)


def _unique(column: str, key: tuple[str, ...], says: Callable[..., str]) -> Rule:
    """Rule: no row repeats an earlier row's ``key`` values; ``says(*key)`` words a repeat."""
    def bad(t: _Table) -> np.ndarray:
        keys = [t.keys(name) for name in key]
        order = np.lexsort(keys[::-1])  # stable: equal rows stay in row order
        ordered = [k[order] for k in keys]
        same = np.logical_and.reduce([k[1:] == k[:-1] for k in ordered])
        repeats = np.zeros(len(order), bool)
        repeats[order[1:][same]] = True
        return repeats
    return Rule(column, bad, lambda t, row: says(*(t.cell(name, row) for name in key)))


def _populations(t: _Table, times: float = 1.0) -> np.ndarray:
    """``times`` each event's country population in its onset year; NaN if unknown."""
    return np.array([times * t.population.get((country, year_of(month)), np.nan) for country, month
                     in zip(t["country"].tolist(), t["onset_month"].tolist())], dtype=float)


def _too_many_affected(t: _Table, row: int) -> str:
    country, year = t.cell("country", row), year_of(t.cell("onset_month", row))
    return (f"{t.cell('affected', row)} exceeds {AFFECTED_SANITY_FACTOR:g}x the population of "
            f"{country} in {year} ({t.population[(country, year)]})")


SCHEMAS = {schema.name: schema for schema in (
    Schema("economics.csv",
           (_code("country"), _int("year", 1900, 2100), _float("gdp_per_capita", 0.0, strict=True),
            _float("population", 0.0, strict=True), _enum("income_group", INCOME_GROUPS)),
           (_unique("country", ("country", "year"), lambda *key: f"duplicate row for {key}"),)),
    Schema("stocks.csv",
           (_code("origin"), _code("destination"), _enum("sex", SEXES), _int("anchor_year"),
            _float("count", 0.0)),
           (Rule("anchor_year", lambda t: ~np.isin(t["anchor_year"], ANCHOR_YEARS),
                 lambda t, row: f"must be one of {ANCHOR_YEARS}, got {t.cell('anchor_year', row)}"),
            Rule("destination", lambda t: t["origin"] == t["destination"],
                 lambda t, row: f"origin equals destination ({t.cell('origin', row)})"),
            _unique("anchor_year", ("origin", "destination", "sex", "anchor_year"),
                    lambda *key: f"duplicate anchor for {key[:3]}"))),
    Schema("age_profiles.csv",
           (_enum("sex", SEXES), _int("age", 0, MAX_AGE), _float("share", 0.0, 1.0)),
           (_unique("age", ("sex", "age"), lambda *key: f"duplicate row for {key}"),)),
    Schema("surplus_profiles.csv",
           (_code("country", global_default=True), _int("age", 0, MAX_AGE), _float("surplus", 0.0)),
           (Rule("surplus", lambda t: (t["age"] < MIN_SURPLUS_AGE) & (t["surplus"] != 0.0),
                 lambda t, row: f"must be 0 below age {MIN_SURPLUS_AGE}, "
                                f"got {t.cell('surplus', row)} at age {t.cell('age', row)}"),
            _unique("age", ("country", "age"), lambda *key: f"duplicate row for {key}"))),
    Schema("disasters.csv",
           (Field("event_id"), _code("country"), _month("onset_month"), _enum("hazard", HAZARDS),
            _float("affected", 0.0)),
           (Rule("event_id", lambda t: t["event_id"] == "", lambda t, row: "must be non-empty"),
            _unique("event_id", ("event_id",), lambda event_id: f"duplicate event_id {event_id!r}"),
            Rule("country", lambda t: np.isnan(_populations(t)),
                 lambda t, row: f"no economics row for {t.cell('country', row)} in onset year "
                                f"{year_of(t.cell('onset_month', row))}"),
            Rule("affected",
                 lambda t: t["affected"] > _populations(t, AFFECTED_SANITY_FACTOR),
                 _too_many_affected))),
    Schema("panel.csv",
           (_code("sender"), _code("recipient"), _month("month"), _float("amount_usd", 0.0)),
           (_unique("month", ("sender", "recipient", "month"), lambda sender, recipient, month:
                    f"duplicate observation for {sender}->{recipient} {month_label(month)}"),)),
)}
FILE_COLUMNS = {name: tuple(f.column for f in schema.fields) for name, schema in SCHEMAS.items()}


# ---------------------------------------------------------------------------
# Reading and checking one file

def _bytes(path: Path) -> bytes:
    """``path``'s bytes, without the byte-order mark that spreadsheet exports put first."""
    if not path.exists():
        raise DataValidationError(f"{path.name}: file not found at {path}")
    return path.read_bytes().removeprefix(codecs.BOM_UTF8)


def _text(path: Path) -> str:
    """``path``'s text, after a byte-order mark."""
    data = _bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise DataValidationError(f"{path.name}:{line}: not UTF-8 text: {exc.reason} "
                                  f"(byte 0x{data[exc.start]:02x})") from None


def _distinct(texts: Sequence) -> tuple[list[str], np.ndarray]:
    """The distinct ``texts`` and each row's index among them. Fixed-width
    bytes, as np.loadtxt reads them, are ASCII."""
    if isinstance(texts, np.ndarray) and texts.dtype.kind == "S":
        # sorted as unsigned ints where they fit, which takes a tenth of the
        # time of sorting bytes; and not by np.unique, whose inverse takes
        # several times the column's memory
        same = np.dtype(f"u{texts.itemsize}") if texts.itemsize <= 8 else texts.dtype
        values = np.ascontiguousarray(texts).view(same)
        ordered = np.sort(values)
        distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
        return ([text.decode() for text in distinct.view(texts.dtype).tolist()],
                np.searchsorted(distinct, values))
    distinct = list(set(texts))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))


# The bytes that send a file to the CSV reader: quotes and CRs, which
# np.loadtxt does not read as RFC 4180 does, and what it reads otherwise than
# the rules: whitespace, which it strips around numbers, NUL, which it strips
# from the end of fixed-width bytes, and non-ASCII bytes (it strips U+00A0).
_NOT_LOADTXT = tuple(c.encode() for c in '"\0' + _SPACES if c != "\n")


def _loadtxt(path: Path, fields: Sequence[Field]) -> tuple[list, np.ndarray] | None:
    """Each of ``fields``' column in ``path``'s data rows, as :func:`_parse`
    takes it, and the mask of the rows of the wrong width (none), by np.loadtxt,
    which skips blank lines. None where np.loadtxt refuses the text, or may have
    read it otherwise than the rules: a number that is not finite, a text that
    fills its fixed-width bytes."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without data rows
            rows = np.loadtxt(path, [(field.column, field.read) for field in fields],
                              delimiter=",", comments=None, skiprows=1, encoding="utf-8-sig",
                              ndmin=1)
    except ValueError:
        return None
    columns = []
    for field in fields:
        column = rows[field.column]
        if column.dtype == float:
            if not np.isfinite(column).all():
                return None
            columns.append(column.copy())
            continue
        columns.append(_distinct(column))
        if column.dtype.kind == "S" and column.itemsize in map(len, columns[-1][0]):
            return None
    return columns, np.zeros(len(rows), bool)


def _csv_rows(path: Path, text: str) -> tuple[list[str] | None, list[list[str]], list[int]]:
    """The header of ``text``, the non-blank rows after it and the physical line
    each ends on, by the CSV reader; a CSV error names the line its row starts on."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, ends, start = [], [], 1
    try:
        header = next(reader, None)
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                ends.append(reader.line_num)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataValidationError(f"{path.name}:{start}: unreadable CSV row: {exc}") from None
    return header, rows, ends


def _check_header(path: Path, header: Sequence[str] | None, columns: tuple[str, ...]) -> None:
    if header is None:
        raise DataValidationError(f"{path.name}: empty file, expected header {','.join(columns)}")
    if tuple(header) != columns:
        raise DataValidationError(f"{path.name}: header {','.join(header)} does not match "
                                  f"required {','.join(columns)}")


def _read(path: Path, fields: Sequence[Field]) -> tuple[list, np.ndarray, Callable[[int], int]]:
    """Each column of ``path``'s non-blank data rows as :func:`_parse` takes
    it, the mask of the rows with the wrong number of fields, and the physical
    line that a row ends on, by row index, blank lines counted.

    np.loadtxt reads a file unless it holds a byte of ``_NOT_LOADTXT``, or
    refuses or may misread its text; then the CSV reader does, and a row of
    another width is cut or padded with "" to fit. Only the CSV reader gives a
    Python ``str`` per field.
    """
    columns, data = tuple(field.column for field in fields), _bytes(path)
    plain = data and data.isascii() and not any(c in data for c in _NOT_LOADTXT)
    head = data.partition(b"\n")[0]
    del data  # either reader reads the file again, np.loadtxt in chunks
    if plain:
        _check_header(path, head.decode().split(","), columns)
        read = _loadtxt(path, fields)
        if read is not None:
            return (*read, lambda row: _csv_rows(path, _text(path))[2][row])
    header, rows, ends = _csv_rows(path, _text(path))
    _check_header(path, header, columns)
    width = len(columns)
    wrong = np.array([len(row) != width for row in rows], dtype=bool)
    if wrong.any():
        rows = [(row + [""] * width)[:width] for row in rows]
    texts = zip(*rows) if rows else [()] * width
    return list(map(_csv_column, fields, texts)), wrong, ends.__getitem__


def _csv_column(field: Field, texts: Sequence[str]) -> np.ndarray | tuple[list[str], np.ndarray]:
    """``texts`` as :func:`_parse` takes them: a float column's values if every
    text is a plain, finite number (the characters checked over the whole
    column at once), else the distinct texts and each row's index among them."""
    if field.read == "f8" and _plain(",".join(texts)):
        try:
            values = np.array(list(map(float, texts)), dtype=float)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values
    return _distinct(texts)


def _parse(field: Field, column: np.ndarray | tuple[list[str], np.ndarray]) -> _Parsed:
    """``field``'s parse of ``column``: the float values that np.loadtxt read,
    which refuse nothing; or the distinct texts and each row's index among
    them, where each distinct text is parsed once. A row's key is the index of
    its value among the distinct values, so equal values share a key however
    they are spelled; a refused row's key is -1 - k, for refusal k."""
    if isinstance(column, np.ndarray):
        return _Parsed(None, None, column, [], None)
    distinct, rows = column
    values, keys, refusals, same = [], [], [], {}
    for text in distinct:
        try:
            value = field.parse(text)
        except ValueError as exc:
            values.append(0)
            keys.append(-1 - len(refusals))
            refusals.append(str(exc))
        else:
            values.append(value)
            keys.append(same.setdefault(value, len(same)))
    keys = np.array(keys, dtype=np.intp)
    # each distinct text its own value, as is usual: the row indices are the
    # keys, and the rules' key columns (three on panel.csv) cost no memory
    keys = rows if np.array_equal(keys, np.arange(len(keys))) else keys[rows]
    return _Parsed(rows, keys, np.array(values, dtype=field.dtype), refusals, list(same))


def _checked(path: Path, population: Mapping[tuple[str, int], float] | None = None) -> _Table:
    """The parsed columns of ``path``, in schema order, once its schema's rules hold.

    Each rule masks the rows that break it. The first bad row is the least row
    of any mask; the error names its physical line and the first rule, in
    schema order, that it breaks.
    """
    schema = SCHEMAS[path.name]
    columns, wrong, line_of = _read(path, schema.fields)
    table = _Table({field.column: _parse(field, column)
                    for field, column in zip(schema.fields, columns)}, wrong, population or {})
    rules = schema.rules()
    hits = [(int(mask.argmax()), k) for k, rule in enumerate(rules) if (mask := rule.bad(table)).any()]
    if hits:
        row, k = min(hits)
        column, _, says = rules[k]
        where = f" column '{column}':" if column else ""
        raise DataValidationError(f"{path.name}:{line_of(row)}:{where} {says(table, row)}")
    return table


def _records(record: type, path: Path, population: Mapping | None = None) -> tuple:
    table = _checked(path, population)
    return tuple(map(record, *(table[column].tolist() for column in record._fields)))


# ---------------------------------------------------------------------------
# Whole-file checks and dataset assembly

def _check_anchor_years(stocks: Stocks) -> np.ndarray:
    """The read-only (corridors, 2 sexes, 3 anchor years) counts of ``stocks``,
    0 where a corridor has no series of a sex, once every (origin, destination,
    sex) series present has every anchor year; else the error names the first
    series, in sorted order, that misses one. Rows of other years are not read."""
    series = stocks._corridor_keys[1] * len(SEXES) + stocks.sex
    anchor = np.isin(stocks.anchor_year, ANCHOR_YEARS)
    cell = series[anchor], np.searchsorted(ANCHOR_YEARS, stocks.anchor_year[anchor])
    counts = np.zeros((len(stocks.corridors) * len(SEXES), len(ANCHOR_YEARS)))
    counts[cell] = stocks.count[anchor]
    have = np.zeros(counts.shape, bool)
    have[cell] = True
    short = np.flatnonzero((np.bincount(series, minlength=len(have)) > 0) & ~have.all(axis=1))
    if short.size:
        o, d, s, first = min((*stocks.corridors[k // len(SEXES)], SEXES[k % len(SEXES)], k)
                             for k in short.tolist())
        missing = [y for y, known in zip(ANCHOR_YEARS, have[first]) if not known]
        raise DataValidationError(f"stocks.csv: corridor {o}->{d} sex {s} missing anchor "
                                  f"year(s) {missing}")
    counts.flags.writeable = False
    return counts.reshape(-1, len(SEXES), len(ANCHOR_YEARS))


def _check_share_sums(age_profiles: Sequence[AgeProfile]) -> None:
    sums: dict[str, float] = {}
    for rec in age_profiles:
        sums[rec.sex] = sums.get(rec.sex, 0.0) + rec.share
    for sex, total in sorted(sums.items()):
        if abs(total - 1.0) > 1e-9:
            raise DataValidationError(
                f"age_profiles.csv: shares for sex {sex} sum to {total!r}, expected 1 +/- 1e-9")


def _check_surplus_ages(surplus_profiles: Sequence[SurplusProfile]) -> None:
    by_country: dict[str, set[int]] = {}
    for rec in surplus_profiles:
        by_country.setdefault(rec.country, set()).add(rec.age)
    for country, ages in sorted(by_country.items()):
        missing = sorted(set(range(N_AGES)) - ages)
        if missing:
            raise DataValidationError(
                f"surplus_profiles.csv: profile {country} missing age(s) {missing[:5]}"
                f"{'...' if len(missing) > 5 else ''}; every age 0-100 is required")


def load_dataset(data_dir: str | Path) -> Dataset:
    """Load and cross-validate all six input files from ``data_dir``.

    Raises :class:`DataValidationError` on the first violation; nothing is
    returned partially loaded.
    """
    data_dir = Path(data_dir)
    economics = _records(CountryEconomics, data_dir / "economics.csv")
    table = _checked(data_dir / "stocks.csv")
    codes = table.codes("origin", "destination")
    stocks = Stocks(codes, table.indices("origin", codes), table.indices("destination", codes),
                    table.indices("sex", SEXES), table["anchor_year"], table["count"])
    stocks.anchors  # the anchor-year check, once; the stock spline reads its result
    age_profiles = _records(AgeProfile, data_dir / "age_profiles.csv")
    _check_share_sums(age_profiles)
    surplus_profiles = _records(SurplusProfile, data_dir / "surplus_profiles.csv")
    _check_surplus_ages(surplus_profiles)
    population = {(r.country, r.year): r.population for r in economics}
    disasters = _records(DisasterEvent, data_dir / "disasters.csv", population)
    table = _checked(data_dir / "panel.csv")
    codes = table.codes("sender", "recipient")
    panel = Panel(codes, table.indices("sender", codes), table.indices("recipient", codes),
                  table["month"], table["amount_usd"], _unassigned(len(table["month"])))

    dataset = Dataset(economics=economics, stocks=stocks, age_profiles=age_profiles,
                      surplus_profiles=surplus_profiles, disasters=disasters, panel=panel)
    _check_cross_references(dataset)
    return dataset


def _present(labels: Sequence[str], *columns: np.ndarray) -> set[str]:
    """The ``labels`` that the index ``columns`` hold. Counted with bincount:
    numpy 2's np.unique, asked for no indices, imports numpy.ma (about 15 ms)."""
    counts = np.bincount(np.concatenate(columns), minlength=len(labels))
    return {labels[i] for i in np.flatnonzero(counts).tolist()}


def _check_cross_references(ds: Dataset) -> None:
    econ_years: dict[str, set[int]] = {}
    for r in ds.economics:
        econ_years.setdefault(r.country, set()).add(r.year)

    # Modeled countries need GDP and population for every simulated year.
    stocks = ds.stocks
    modeled = _present(stocks.codes, stocks.origin, stocks.destination)
    modeled |= {e.country for e in ds.disasters}
    for country in sorted(modeled):
        have = econ_years.get(country, set())
        missing = sorted(set(PANEL_YEARS) - have)
        if missing:
            raise DataValidationError(
                f"economics.csv: unknown country code or missing years for {country}: "
                f"needs every year {PANEL_YEARS[0]}-{PANEL_YEARS[-1]}, missing {missing}")

    sexes_in_stocks = _present(SEXES, stocks.sex)
    profiled = {r.sex for r in ds.age_profiles}
    for sex in sorted(sexes_in_stocks - profiled):
        raise DataValidationError(f"age_profiles.csv: no profile for sex {sex} present in stocks.csv")

    have_surplus = set(ds.surplus_by_country)
    if GLOBAL_SURPLUS not in have_surplus:
        destinations = _present(stocks.codes, stocks.destination)
        uncovered = sorted(destinations - have_surplus)
        if uncovered:
            raise DataValidationError(
                f"surplus_profiles.csv: no {GLOBAL_SURPLUS} profile and no profile for "
                f"destination(s) {uncovered}")


# ---------------------------------------------------------------------------
# Writing (round-trip support and fixture generation)

def _serialize_tables(ds: Dataset) -> Iterator[tuple[str, Iterator[tuple[str, ...]]]]:
    """Each file's name and its rows, from the Dataset field of the same name,
    each value written as its schema's field shows it."""
    for name, schema in SCHEMAS.items():
        table = getattr(ds, name.removesuffix(".csv"))
        columns = (table._columns() if isinstance(table, _Columns) else
                   [map(operator.attrgetter(field.column), table) for field in schema.fields])
        yield name, zip(*(map(field.show, column) for field, column in zip(schema.fields, columns)))


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
