#!/usr/bin/env python3
"""Print the involution counts of an affine family next to the closed form.

Example:
    python3 scripts/affine_growth.py --type affC --rank 2 --max-length 40

Columns: length, enumerated count, periodic part, remainder.  The line where
the detected repeating block starts is marked with a *; everything after it
should repeat with the printed period.
"""

import argparse

from fcheaps.coxeter import GroupType, build_graph
from fcheaps.enumerator import AFFINE_DEFAULT_WINDOW, enumerate_fc
from fcheaps.genfunc import affine_periodic_part, reconcile
from fcheaps.qpoly import TPoly


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--type", dest="family", default="affC",
                    choices=("affA", "affC", "affB", "affD"))
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--max-length", type=int, default=None)
    args = ap.parse_args()

    t = GroupType(args.family, args.rank)
    window = args.max_length or AFFINE_DEFAULT_WINDOW[args.family]
    g = build_graph(t)
    counts = TPoly(enumerate_fc(g, window, "involutions"), window)
    part, declared = affine_periodic_part(args.family, args.rank, window)
    remainder, report = reconcile(counts, part, declared)

    print(f"{t.family}:{t.n}  window {window}  declared period {declared}")
    print(f"detected period {report.period} from length {report.transient_start}"
          f"  block {list(report.repeating_block)}")
    print(f"{'len':>4} {'count':>8} {'periodic':>9} {'rest':>6}")
    for length in range(window + 1):
        mark = "*" if length == report.transient_start else " "
        print(f"{length:>4} {counts[length]:>8} {part[length]:>9} "
              f"{remainder[length]:>6}{mark}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
