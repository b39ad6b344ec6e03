"""CSV report writers, the run manifest, and the sums that feed them.

Floats are written as ``repr`` (shortest round-trip) with a fixed newline,
and sums that reach an output add left to right (:func:`sequential_sum`),
so identical runs produce byte-identical files on every Python version.
:func:`write_csv` is the one CSV writer, and writes the bytes of
``csv.writer``. Small reports pass it rows of values, formatted cell by
cell by :func:`fmt_cell` and written by ``csv.writer``. The large grids
(flows, induced flows, profiles, population, demographics) pass a
:class:`Grid` of columns. Its float columns are formatted by
:func:`remitsim.floattext.repr_bytes` into the bytes of ``repr``, and its
string columns are small tables of distinct strings with an index per row;
the columns are joined block by block into the bytes ``csv.writer`` writes.
A grid holding a string that ``csv.writer`` would quote, an empty one or
a NUL is written by ``csv.writer`` instead. Manifests carry content hashes
of every input and output, the seed, and the package version; they contain
no timestamps.
"""
from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import __version__
from .months import month_label
from .population import Population, demographics_arrays

# Rows formatted and written at once: enough to spread numpy's per-call cost,
# few enough that a block's matrices stay under a megabyte.
GRID_BLOCK_ROWS = 8192

# A label that csv.writer quotes (a comma, a quote, a line end; a CR from
# Python 3.13), an empty one (csv.writer writes a row of one empty cell as ""),
# or one holding a NUL, the padding of the grid writer's matrices.
_NOT_PLAIN = re.compile('[,"\r\n\0]|^$')


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


class Grid(NamedTuple):
    """CSV rows given column by column, for :func:`write_csv`.

    ``labels[j]`` holds the strings of column ``j``, and its cells are
    indices into them; a column whose ``labels`` are None holds floats,
    written as ``repr`` writes them. Each of ``parts`` holds one array per
    column, all of one length, or an int in place of the index array of a
    column that repeats one label down the part. Parts are written one
    after another, each built only when it is reached.
    """
    labels: tuple[Sequence[str] | None, ...]
    parts: Iterable[tuple[np.ndarray | int, ...]]

    def cells(self) -> Iterator[list]:
        """The rows of the grid as lists of cell values, as :func:`fmt_cell` takes them."""
        for part in self.parts:
            n = max(len(col) for col in part if np.ndim(col))
            cols = [col.tolist() if names is None else
                    [names[col]] * n if np.ndim(col) == 0 else [names[i] for i in col.tolist()]
                    for names, col in zip(self.labels, part)]
            yield from map(list, zip(*cols))

    def blocks(self) -> Iterator[np.ndarray]:
        """The bytes ``csv.writer`` writes for the rows of the grid, when it quotes
        none of its labels, as ``uint8`` arrays of at most ``GRID_BLOCK_ROWS`` rows."""
        from .floattext import repr_bytes
        ends = [b","] * (len(self.labels) - 1) + [b"\n"]
        # a label's bytes end in the comma or newline after it
        tables = [None if names is None else _label_bytes(names, end)
                  for names, end in zip(self.labels, ends)]
        for part in self.parts:
            n = max(len(col) for col in part if np.ndim(col))
            for start in range(0, n, GRID_BLOCK_ROWS):
                rows = slice(start, min(start + GRID_BLOCK_ROWS, n))
                size = rows.stop - start
                fields = []
                for table, col, end in zip(tables, part, ends):
                    if table is None:
                        fields += [repr_bytes(col[rows]),
                                   np.broadcast_to(np.frombuffer(end, np.uint8), (size, 1))]
                    elif np.ndim(col) == 0:
                        fields.append(np.broadcast_to(table[col], (size, table.shape[1])))
                    else:
                        fields.append(table.take(col[rows], axis=0))
                text = np.concatenate(fields, axis=1).ravel()
                yield text[text != 0]


def _label_bytes(names: Sequence[str], end: bytes) -> np.ndarray:
    """The UTF-8 bytes of ``names``, each followed by ``end``, one NUL-padded row each."""
    encoded = [name.encode("utf-8") + end for name in names]
    width = max(map(len, encoded), default=1)
    return np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence] | Grid) -> Path:
    """Write ``header`` and ``rows`` as ``csv.writer`` would. Cells are formatted
    by :func:`fmt_cell`; a :class:`Grid` is written block by block as bytes
    (:meth:`Grid.blocks`), unless one of its labels is not plain text."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, Grid) and not any(map(_NOT_PLAIN.search, {
                name for names in rows.labels if names is not None for name in names})):
            fh.flush()
            for block in rows.blocks():
                fh.buffer.write(block)
        else:
            writer.writerows([fmt_cell(v) for v in row] for row in
                             (rows.cells() if isinstance(rows, Grid) else rows))
    return path


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


def corridor_month_labels(corridors: Sequence[tuple[str, str]], months: Sequence[int]
                          ) -> tuple[tuple[list[str], ...], tuple[np.ndarray, ...]]:
    """Grid labels and index arrays of the sender, recipient and month-label
    columns of the (corridor, month) cells in C order."""
    corridor = np.repeat(np.arange(len(corridors)), len(months))
    month = np.tile(np.arange(len(months)), len(corridors))
    return (([dest for _, dest in corridors], [origin for origin, _ in corridors],
             [month_label(m) for m in months]), (corridor, corridor, month))


def flow_grid(corridors: Sequence[tuple[str, str]], months: Sequence[int], flows,
              scenario_id: str) -> Grid:
    """(sender, recipient, month, amount_usd, scenario_id) rows; ``flows`` is
    (n_corridors, n_months) aligned with corridors x months."""
    labels, index = corridor_month_labels(corridors, months)
    return Grid((*labels, None, (scenario_id,)),
                [(*index, np.asarray(flows, dtype=float).ravel(), 0)])


def population_grid(population: Population, months: Sequence[int]) -> Grid:
    """(origin, destination, sex, age, month, count) rows of ``months`` for the
    cohorts with a nonzero age share, one part per corridor."""
    months = list(months)
    cohorts = population.cohorts()
    cohort = np.tile(np.arange(len(cohorts)), len(months))
    month = np.repeat(np.arange(len(months)), len(cohorts))
    labels = ([o for o, _ in population.corridors], [d for _, d in population.corridors],
              [sex for sex, _ in cohorts], [str(age) for _, age in cohorts],
              [month_label(m) for m in months], None)
    return Grid(labels, ((c, c, cohort, cohort, month, population.cohort_counts(c, months).ravel())
                         for c in range(len(population.corridors))))


def demographics_grid(population: Population, start: int, end: int) -> Grid:
    """(origin, destination, month, age_symmetry, sex_symmetry, asymmetry,
    family) rows of the populated corridor-months from ``start`` to ``end``;
    the family proxy is the asymmetry."""
    age_sym, sex_sym, asym = demographics_arrays(population)
    months = np.arange(population.n_months)
    c, m = np.nonzero((population.stocks.sum(axis=2) > 0) & (months >= start) & (months <= end))
    labels = ([o for o, _ in population.corridors], [d for _, d in population.corridors],
              [month_label(i) for i in range(population.n_months)], None, None, None, None)
    return Grid(labels, [(c, c, m, age_sym[c, m], sex_sym[c, m], asym[c, m], asym[c, m])])
