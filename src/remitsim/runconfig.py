"""Run configuration: a flat key-value text file plus CLI overrides.

Format: one ``key = value`` per line; blank lines and ``#`` comments are
ignored. Unknown keys are rejected to catch typos.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

from .months import LAST_MONTH, month_index

ATTRIBUTION_CONVENTIONS = ("only_hazard", "leave_one_out")
MIN_BAND_SAMPLES = 1000  # the fewest draws a percentile band is taken from


@dataclass(frozen=True)
class RunConfig:
    data_dir: Path = Path(".")
    output_dir: Path = Path("out")
    start: int = 0  # month index since 2010-01
    end: int = LAST_MONTH
    seed: int = 0
    split_seed: int | None = None  # defaults to seed
    split_fraction: float = 0.8
    starts: int = 8
    max_iter: int = 500
    tol: float = 1e-9
    bootstrap_reps: int = 0
    band_draws: int = 1000
    delta_gdp_clamp: bool = False
    attribution: str = "only_hazard"

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end <= LAST_MONTH:
            raise ValueError(f"date range outside 2010-01..2019-12: [{self.start}, {self.end}]")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.starts < 1 or self.max_iter < 0:
            raise ValueError("starts must be >= 1, max_iter >= 0")
        if self.bootstrap_reps < 0:
            raise ValueError(f"bootstrap_reps must be >= 0, got {self.bootstrap_reps}")
        if self.band_draws != 0 and self.band_draws < MIN_BAND_SAMPLES:
            raise ValueError(f"band_draws must be 0 (no bands) or >= {MIN_BAND_SAMPLES}, "
                             f"got {self.band_draws}")
        if self.tol < 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.attribution not in ATTRIBUTION_CONVENTIONS:
            raise ValueError(f"attribution must be one of {ATTRIBUTION_CONVENTIONS}")

    @property
    def effective_split_seed(self) -> int:
        return self.seed if self.split_seed is None else self.split_seed

    def echo(self) -> dict:
        """JSON-serializable view for manifests and result files."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = str(value) if isinstance(value, Path) else value
        return out


_PARSERS = {
    "data_dir": Path,
    "output_dir": Path,
    "start": month_index,
    "end": month_index,
    "seed": int,
    "split_seed": int,
    "split_fraction": float,
    "starts": int,
    "max_iter": int,
    "tol": float,
    "bootstrap_reps": int,
    "band_draws": int,
    "delta_gdp_clamp": None,  # bool, handled below
    "attribution": str,
}


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def read_config_file(path: str | Path) -> dict:
    """Parse the key-value file into typed values (no defaults applied)."""
    values = {}
    for lineno, raw_line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_bool(raw) if key == "delta_gdp_clamp" else _PARSERS[key](raw)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return values


def build_config(file_path: str | Path | None = None, **overrides) -> RunConfig:
    """Config file values, overridden by any non-None keyword arguments."""
    values = read_config_file(file_path) if file_path else {}
    values.update({k: v for k, v in overrides.items() if v is not None})
    return replace(RunConfig(), **values) if values else RunConfig()


def write_config_file(config: RunConfig, path: str | Path) -> None:
    from .months import month_label

    lines = []
    for key, value in config.echo().items():
        if value is None:
            continue
        if key in ("start", "end"):
            value = month_label(value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
