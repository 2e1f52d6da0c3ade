#!/usr/bin/env python3
"""Print the 12-cell small-world verdict table, optionally with ratio CSVs."""

import argparse
import math
import sys
from pathlib import Path

from spidernets.cli import _verdict_line, format_fraction
from spidernets.small_world import (
    geometric_steps,
    ratio_sequence,
    verdict_table,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--csv-dir", help="write one ratio-sequence CSV per cell into this directory"
    )
    args = parser.parse_args()

    csv_dir = Path(args.csv_dir) if args.csv_dir else None
    if csv_dir:
        csv_dir.mkdir(parents=True, exist_ok=True)

    for notion, direction, verdict in verdict_table():
        print(_verdict_line(notion, direction, verdict))
        if not csv_dir:
            continue
        steps = geometric_steps(direction)
        points = ratio_sequence(notion, direction, steps)
        path = csv_dir / f"{notion.value}_vary_{direction.varying}.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("step,N,numerator,lnN,ratio\n")
            for value, pt in zip(steps, points):
                fh.write(
                    f"{value},{pt.n},{format_fraction(pt.numerator)},"
                    f"{math.log(pt.n):.6g},{pt.ratio:.6g}\n"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
