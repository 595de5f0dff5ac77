"""Survey the fixity spectrum of a list of groups.

For each group, enumerate the subgroup lattice up to conjugacy, compute the
fixity of every faithful transitive coset action, and print a histogram
fixity -> number of stabilizer classes, with the classes at a highlighted
fixity listed in full.

    python3 scripts/fixity_survey.py --groups sym_5 alt_6 psl2_7 psl2_11
    python3 scripts/fixity_survey.py --groups m11 --highlight 4

A group that cannot be resolved or a cap the lattice exceeds ends the
survey with an ``error:`` line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fixitylab.cli import _positive_int
from fixitylab.cosets import Caps, DEFAULT_CAPS, stabilizer_bundle_fixes
from fixitylab.enumeration import as_context
from fixitylab.errors import FixityError
from fixitylab.verifier import search_fixity_k
from fixitylab.zoo import resolve_group


def survey(selector: str, highlight: int, caps: Caps) -> None:
    name, g = resolve_group(selector)
    t0 = time.time()
    ctx = as_context(g, caps.elements)
    hist: Counter[int] = Counter()
    for sc in ctx.subgroup_classes(caps.subgroups):
        if sc.order in (1, ctx.n):
            continue
        fixes = stabilizer_bundle_fixes(ctx, sc.representative)
        fx = max(fixes) if fixes else 0
        if fx < ctx.n // sc.order:  # else a kernel element fixes every coset
            hist[fx] += 1
    # confirmed by the fixity count of each candidate, in the same class order
    hits = search_fixity_k(ctx, highlight, caps)
    dt = time.time() - t0
    print(f"{name}: order {ctx.n}, {sum(hist.values())} faithful actions "
          f"({dt:.1f}s)")
    for fx in sorted(hist):
        marker = "  <-- highlighted" if fx == highlight else ""
        print(f"  fixity {fx:3d}: {hist[fx]:4d} classes{marker}")
    for h in hits:
        sc = h.subgroup_class
        print(f"    order {sc.order:6d}  degree {h.degree:6d}  "
              f"normalizer {sc.normalizer_order}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", nargs="+", required=True)
    ap.add_argument("--highlight", type=int, default=4)
    ap.add_argument("--subgroup-cap", type=_positive_int, default=DEFAULT_CAPS.subgroups)
    args = ap.parse_args(argv)
    caps = Caps(
        elements=DEFAULT_CAPS.elements,
        subgroups=args.subgroup_cap,
        cosets=DEFAULT_CAPS.cosets,
    )
    try:
        for sel in args.groups:
            survey(sel, args.highlight, caps)
    except FixityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
