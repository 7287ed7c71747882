#!/usr/bin/env python3
"""Print a table of colored Bell numbers B_{k,r} and cross-check the
exponential generating function against the recurrence."""

import argparse
import sys

from colorpart.diagrams import count_bell, egf_coefficients, stirling2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=10)
    ap.add_argument("--r-max", type=int, default=4)
    args = ap.parse_args()

    header = ["k\\r"] + [str(r) for r in range(1, args.r_max + 1)]
    print("\t".join(header))
    for k in range(args.k_max + 1):
        row = [str(k)]
        for r in range(1, args.r_max + 1):
            b = count_bell(k, r)
            if b != sum(stirling2(k, j) * r**j for j in range(k + 1)):
                sys.exit("B_{%d,%d} = %d disagrees with the Stirling sum" % (k, r, b))
            row.append(str(b))
        print("\t".join(row))

    for r in range(1, args.r_max + 1):
        if egf_coefficients(r, args.k_max) != [count_bell(k, r) for k in range(args.k_max + 1)]:
            sys.exit("egf/recurrence disagreement at r = %d" % r)
    print("egf/recurrence agreement: ok")


if __name__ == "__main__":
    main()
