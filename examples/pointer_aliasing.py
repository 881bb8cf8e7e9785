#!/usr/bin/env python3
"""The Section 5 memory model: races through pointer aliases.

In real nesC code the protected variables are often accessed through
pointers (``rec_ptr`` literally is one), so the checker "cannot infer the
global memory address being accessed syntactically".  The paper's answer is
a flow-insensitive alias analysis that bounds the lvalue pairs to check.
This example shows the pipeline: points-to analysis, escape set, and CIRC
verdicts on races that only exist through an alias.

Run:  python examples/pointer_aliasing.py
"""

from repro import check_race
from repro.circ import CircUnsafe
from repro.lang.parser import parse_program
from repro.lang.pointers import analyze_pointers

BUGGY = """
global int buffer, spare;
global int *cursor;

thread worker {
  local int tmp;
  while (1) {
    if (*) { cursor = &buffer; } else { cursor = &spare; }
    tmp = *cursor;          // read through the alias
    *cursor = tmp + 1;      // unprotected read-modify-write: races!
  }
}
"""

FIXED = """
global int buffer, spare, mtx;
global int *cursor;

thread worker {
  local int tmp;
  while (1) {
    lock(mtx);
    if (*) { cursor = &buffer; } else { cursor = &spare; }
    tmp = *cursor;
    *cursor = tmp + 1;
    unlock(mtx);
  }
}
"""


def show_alias_analysis(source: str) -> None:
    info = analyze_pointers(parse_program(source))
    print("  points-to:", {p: sorted(s) for p, s in info.pts.items()})
    print("  escaped (address-taken):", sorted(info.escaped()))
    print(
        "  may cursor alias buffer?",
        info.may_alias("cursor", "buffer"),
    )


def _label(result) -> str:
    if result.unknown:
        return f"UNKNOWN ({result.reason})"
    return "NO" if result.safe else "YES"


def main() -> None:
    print("buggy worker (no lock around the deref read-modify-write):")
    show_alias_analysis(BUGGY)
    for var in ("buffer", "spare"):
        result = check_race(BUGGY, var)
        print(f"  race on {var!r}: {_label(result)}")
        if isinstance(result, CircUnsafe):
            for tid, edge in result.steps[-4:]:
                print(f"      ... T{tid}: {edge.op}")

    print()
    print("fixed worker (lock held across the aliased access):")
    for var in ("buffer", "spare"):
        result = check_race(FIXED, var)
        print(f"  race on {var!r}: {_label(result)}")


if __name__ == "__main__":
    main()
