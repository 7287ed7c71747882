#!/usr/bin/env python3
"""Walk through both Schensted-type bijections on the bundled r=5 worked
example, printing the insertion trace step by step."""

from colorpart.ribbon import insert, rt_rows, rt_shape, sw_diagram
from colorpart.rs import rs_forward
from colorpart.verify import BIJECTION_ARRAY, BIJECTION_DIAGRAM


def show(title, rows):
    print(title)
    for row in rows:
        print("   ", " ".join(str(set(b)) for b in row))


def main():
    d = BIJECTION_DIAGRAM
    print("diagram:", d)
    print()
    print("== row insertion ==")
    (P, S), (Q, T) = rs_forward(d)
    for c in range(d.r):
        if P[c]:
            show("P[%d]:" % c, P[c])
            show("Q[%d]:" % c, Q[c])
    print("S:", S)
    print("T:", T)
    print()
    print("== ribbon insertion ==")
    Pr = {}
    for step, (c, label, v) in enumerate(BIJECTION_ARRAY):
        Pr, _ = insert(Pr, c, v, d.r)
        print("step %d: insert %r with color %d -> shape %r"
              % (step, v, c, rt_shape(Pr)))
        show("  P:", rt_rows(Pr))
    (_, Sr), (_, Tr) = sw_diagram(d)
    show("S:", rt_rows(Sr))
    show("T:", rt_rows(Tr))


if __name__ == "__main__":
    main()
