"""Year-month arithmetic on the January 2010 - December 2019 simulation window."""
from __future__ import annotations

import re

BASE_YEAR = 2010
WINDOW_MONTHS = 120  # 2010-01 .. 2019-12
FIRST_MONTH = 0
LAST_MONTH = WINDOW_MONTHS - 1

_MONTH_RE = re.compile("([0-9]{4})-([0-9]{2})")  # ASCII digits; matched whole


def month_index(label: str) -> int:
    """Convert a ``YYYY-MM`` label to months elapsed since 2010-01."""
    m = _MONTH_RE.fullmatch(label)
    if m is None:
        raise ValueError(f"invalid year-month {label!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"invalid month number in {label!r}")
    return (year - BASE_YEAR) * 12 + (month - 1)


def month_label(index: int) -> str:
    """Inverse of :func:`month_index`."""
    year, month = divmod(index, 12)
    return f"{BASE_YEAR + year:04d}-{month + 1:02d}"


def year_of(index: int) -> int:
    return BASE_YEAR + index // 12
