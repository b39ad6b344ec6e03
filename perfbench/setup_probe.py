"""The fixed cost every remitsim command pays, in a fresh process.

Imports the CLI module (and with it the whole package), loads and validates
the input directory, and builds the SimulationContext for the window. The
caller times the process from start to exit.

    python3 perfbench/setup_probe.py DATA_DIR START END
"""
from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    data_dir, start, end = argv
    from remitsim import cli
    from remitsim.months import month_index

    dataset = cli.load_dataset(data_dir)
    ctx = cli.SimulationContext(dataset, start=month_index(start), end=month_index(end))
    print(f"{ctx.n_corridors} corridors, {len(dataset.panel)} panel observations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
