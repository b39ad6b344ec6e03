"""CSV report writers, the run manifest, and the sums that feed them.

Floats are written as ``repr`` (shortest round-trip) with a fixed newline,
and sums that reach an output add left to right (:func:`sequential_sum`),
so identical runs produce byte-identical files on every Python version.
:func:`write_csv` is the one CSV writer, and writes the bytes of
``csv.writer``. Small reports pass it rows of values, formatted cell by
cell by :func:`fmt_cell` and written by ``csv.writer``. The large grids
(flows, induced flows, profiles, population) pass :class:`FormattedRows`
that :func:`columns` builds column by column, one ``repr`` pass over each
float array, which gives the same strings; they are streamed in blocks of
comma-joined lines, and a block whose text shows a cell that
``csv.writer`` would quote goes through ``csv.writer``. Manifests carry
content hashes of every input and output, the seed, and the package
version; they contain no timestamps.
"""
from __future__ import annotations

import csv
import hashlib
import json
from itertools import chain, cycle, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .months import month_label
from .population import Population

# Rows joined into one string before it is written. A block's row tuples
# are alive together; past about 2,000 of them (CPython's tuple free list)
# each new one counts toward a garbage collection, and 8,192-row blocks
# made the grid writers about a quarter slower.
_BLOCK_ROWS = 1024


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))  # plain float repr, also for numpy scalars
    return str(value)


def sequential_sum(values: Iterable[float] | np.ndarray) -> float:
    """Float sum in order, one rounding per addition, like ``sum`` before Python 3.12.

    Since 3.12 the builtin ``sum`` compensates float rounding, so
    ``sum([1e16, 1.0, -1e16])`` is 1.0 there and 0.0 before; ``np.sum``
    adds pairwise. This sum gives 0.0 on every version.
    """
    arr = (values.astype(float, copy=False).ravel() if isinstance(values, np.ndarray) else
            np.fromiter(values, dtype=float))
    if arr.size == 0:
        return 0.0
    return 0.0 + float(np.add.accumulate(arr)[-1])  # 0.0 + x turns -0.0 into 0.0, as sum does


class FormattedRows:
    """Lazy rows whose cells are strings already; :func:`write_csv` writes them as they are."""

    def __init__(self, rows: Iterable[tuple[str, ...]]):
        self._rows = rows

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return iter(self._rows)


def columns(*cols: Iterable[str] | np.ndarray) -> FormattedRows:
    """Rows of formatted cells, built column by column.

    Each column is a 1-D float array, whose values are formatted as
    :func:`fmt_cell` formats a float, or an iterable of strings; rows end
    with the shortest column.
    """
    return FormattedRows(zip(*(map(repr, c.tolist()) if isinstance(c, np.ndarray) else c
                               for c in cols)))


def distinct_reprs(values: np.ndarray) -> Iterator[str]:
    """The cells of the float array ``values`` as :func:`columns` formats them,
    each distinct value formatted once: for a column that repeats its values.
    Values are distinct by their bits, so -0.0 and 0.0 keep their own cells."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    return map(list(map(repr, bits.view(float).tolist())).__getitem__, inverse.tolist())


def concat_rows(blocks: Iterable[FormattedRows]) -> FormattedRows:
    """The rows of ``blocks`` one after another; each block is built when it is reached."""
    return FormattedRows(chain.from_iterable(blocks))


def _repeat_each(values: Iterable[str], times: int) -> Iterator[str]:
    """Each of ``values`` ``times`` times in a row: a column over row blocks."""
    return chain.from_iterable(repeat(v, times) for v in values)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write ``header`` and ``rows`` as ``csv.writer`` would. Cells are formatted
    by :func:`fmt_cell`, except in :class:`FormattedRows`, which hold strings
    already and are written block by block as joined lines (:func:`_write_lines`)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, FormattedRows):
            _write_lines(fh, writer, iter(rows))
        else:
            writer.writerows([fmt_cell(v) for v in row] for row in rows)
    return path


def _write_lines(fh, writer, rows: Iterator[tuple[str, ...]]) -> None:
    """Write ``rows`` in blocks of ``_BLOCK_ROWS``, each as its cells joined by
    commas and its rows ended by newlines, when that is what ``writer`` writes.

    The writer quotes a cell that holds a comma, a quote or a newline (from
    Python 3.13 a CR too), and writes a row of one empty cell as ``""``. A
    block's joined text shows neither when its commas number exactly the
    cells minus the rows (no cell holds one, and no row is empty), its
    newlines the rows, it holds no quote or CR, and it has no empty line. Any
    other block goes through ``writer``.
    """
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        text = "\n".join(map(",".join, block)) + "\n"
        if (text.count(",") == sum(map(len, block)) - len(block)
                and text.count("\n") == len(block) and '"' not in text and "\r" not in text
                and not text.startswith("\n") and "\n\n" not in text):
            fh.write(text)
        else:
            writer.writerows(block)


def write_json(path: str | Path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(output_dir: str | Path, command: str, config_echo: dict,
                   inputs: Sequence[Path], outputs: Sequence[Path]) -> Path:
    payload = {
        "command": command,
        "version": __version__,
        "config": config_echo,
        "inputs": {p.name: sha256_file(p) for p in sorted(inputs)},
        "outputs": {p.name: sha256_file(p) for p in sorted(outputs)},
    }
    return write_json(Path(output_dir) / f"manifest-{command}.json", payload)


def corridor_month_columns(corridors: Sequence[tuple[str, str]], months: Sequence[int]
                           ) -> tuple[Iterator[str], Iterator[str], Iterator[str]]:
    """Sender, recipient and month-label columns of the (corridor, month) cells
    in C order; each month label is formatted once."""
    n = len(months)
    return (_repeat_each((dest for _, dest in corridors), n),
            _repeat_each((origin for origin, _ in corridors), n),
            cycle([month_label(m) for m in months]))


def flow_rows(corridors: Sequence[tuple[str, str]], months: Sequence[int], flows,
              scenario_id: str) -> FormattedRows:
    """Formatted (sender, recipient, month, amount_usd, scenario_id) rows;
    ``flows`` is (n_corridors, n_months) aligned with corridors x months."""
    sender, recipient, month = corridor_month_columns(corridors, months)
    return columns(sender, recipient, month, np.asarray(flows, dtype=float).ravel(),
                   repeat(scenario_id))


def population_rows(population: Population, months: Sequence[int]) -> FormattedRows:
    """(origin, destination, sex, age, month, count) rows of ``months`` for the
    cohorts with a nonzero age share, built one corridor at a time."""
    months = list(months)
    cohorts = population.cohorts()
    sexes = [sex for sex, _ in cohorts]
    ages = [str(age) for _, age in cohorts]
    labels = [month_label(m) for m in months for _ in cohorts]
    return concat_rows(columns(repeat(origin), repeat(destination), cycle(sexes), cycle(ages),
                               labels, population.cohort_counts(c, months).ravel())
                       for c, (origin, destination) in enumerate(population.corridors))
