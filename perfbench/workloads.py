"""Workload definitions and the reference check shared by the benchmark parts.

Each workload is a set of claim ids from the packaged catalog, replayed by
one `fixitylab verify --jobs 1` process at a time (a closed loop with one
client).
The reference outputs under ``reference/`` are the `verify` JSON of each
workload's claims taken at the commit that defined the benchmark; a claim
whose verdict or rows differ from its reference counts as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CATALOG = "src/fixitylab/data/claims.json"
REFERENCE_DIR = BENCH_DIR / "reference"

# Full lattice searches: subgroup-lattice saturation and the BSGS rebuilds
# inside it take almost all the time.  psl2_32_none is left out because it
# alone would more than double a run.
LATTICE_SEARCH = (
    "psl2_7_search",
    "psl2_8_search",
    "psl2_9_search",
    "psl2_11_search",
    "psl2_13_search",
    "psl2_4_none",
    "psl2_16_none",
    "alt7_search",
    "m11_search",
)

# Stabilizers built directly, so the lattice of the claim's group is never
# computed: the time goes to element enumeration of large groups, coset
# actions, the slow fixity path of m22, and the lemma and Sylow-3 checks.
CONSTRUCTIVE_STABS = (
    "m12_stabs",
    "psu4_2_stabs",
    "sz8_stabs",
    "m22_stabs",
    "psl2_family_q17",
    "psl2_family_q19",
    "psl2_family_q23",
    "psl2_family_q25",
    "psl2_family_q27",
    "psl2_family_q29",
    "psl2_family_q31",
    "psl2_family_q37",
    "psl2_family_q41",
    "order27_lemma",
)

WORKLOADS: dict[str, tuple[str, ...]] = {
    "lattice_search": LATTICE_SEARCH,
    "constructive_stabs": CONSTRUCTIVE_STABS,
}

ALL_CLAIMS = LATTICE_SEARCH + CONSTRUCTIVE_STABS

# The workload whose traced run also replays its claims through
# run_claim_catalog(jobs=2): its slowest claim, m11_search, is over half of
# its serial time, so it is where the fan-out of the process pool shows.
POOL_WORKLOAD = "lattice_search"


def claims_of(workload: str) -> tuple[str, ...]:
    return WORKLOADS[workload]


def groups_of(workload: str) -> list[str]:
    """Group selectors the workload's claims resolve, in first-use order.

    order27_lemma builds its two groups of order 27 by hand, so it adds none.
    """
    catalog = {c["id"]: c for c in json.loads((ROOT / CATALOG).read_text())["claims"]}
    out: list[str] = []
    for cid in claims_of(workload):
        claim = catalog[cid]
        if "group" in claim:
            name = claim["group"]
        elif claim.get("mode") == "psl2_family":
            name = f"psl2_{claim['q']}"
        else:
            continue
        if name not in out:
            out.append(name)
    return out


def load_reference(workload: str, reference_dir: Path = REFERENCE_DIR) -> dict[str, dict]:
    """Reference claim dicts of a workload, keyed by claim id."""
    data = json.loads((reference_dir / f"{workload}.json").read_text())
    return {c["id"]: c for c in data["claims"]}


def count_failed(
    claims: list[dict], reference: dict[str, dict], expected_ids
) -> int:
    """Claims whose verdict or rows differ from the reference.

    A claim the output lacks, or repeats, counts as failed too, so the count
    is always out of ``len(expected_ids)``.
    """
    by_id: dict[str, list[dict]] = {}
    for c in claims:
        by_id.setdefault(c.get("id"), []).append(c)
    failed = 0
    for cid in expected_ids:
        got = by_id.get(cid, [])
        ref = reference[cid]
        if len(got) != 1 or got[0].get("verdict") != ref["verdict"] or got[0].get("rows") != ref["rows"]:
            failed += 1
    return failed
