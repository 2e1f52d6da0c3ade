#!/usr/bin/env python3
"""Sweep a spider parameter grid and check every closed form against brute force.

Runs ``spidernets verify`` with the same grid and exit codes.
"""

import argparse
import sys

from spidernets import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mmax", type=int, default=8)
    parser.add_argument("--kmax", type=int, default=5)
    parser.add_argument("--lmax", type=int, default=6)
    parser.add_argument("--cap", type=int, default=2000, help="largest node count")
    args = parser.parse_args()
    return cli.main(
        [
            "verify",
            "--Mmax", str(args.mmax),
            "--Kmax", str(args.kmax),
            "--Lmax", str(args.lmax),
            "--cap", str(args.cap),
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
