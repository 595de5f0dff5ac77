"""One in-process replay of a workload's claims, run in a fresh interpreter.

    python3 perfbench/replay.py MODE WORKLOAD [SEED]

MODE is one of
    plain   run_claim on each claim in catalog order, untraced, timing each
    traced  the same, with every probe of ``tracer.PROBES`` wrapped in spans
    jobs2   run_claim_catalog(jobs=2) over the claims, untraced
    probe   build_bsgs on seeded random pairs of degree-26 permutations

and the result is printed as one JSON object.  Each mode gets its own
interpreter so that no cache or heap state carries from one to the next.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time

from workloads import CATALOG, ROOT, SRC, claims_of

sys.path.insert(0, str(SRC))

from fixitylab.cosets import DEFAULT_CAPS  # noqa: E402
from fixitylab.perm import Permutation, build_bsgs  # noqa: E402
from fixitylab.verifier import load_claims, run_claim, run_claim_catalog  # noqa: E402

from tracer import Tracer, instrumented  # noqa: E402

PROBE_PAIRS = 8
PROBE_DEGREE = 26


def workload_claims(workload: str) -> list[dict]:
    """The workload's claims in catalog order, as `verify --only` runs them."""
    ids = set(claims_of(workload))
    return [c for c in load_claims(ROOT / CATALOG) if c["id"] in ids]


def replay(claims: list[dict], tracer: Tracer | None = None) -> dict:
    """run_claim on each claim; with a tracer, each claim is a root span."""
    results, claim_s = [], {}
    t0 = time.perf_counter()
    for c in claims:
        t = time.perf_counter()
        if tracer is None:
            r = run_claim(c, DEFAULT_CAPS)
        else:
            with tracer.span(f"claim:{c['id']}"):
                r = run_claim(c, DEFAULT_CAPS)
        claim_s[c["id"]] = time.perf_counter() - t
        results.append(r.to_dict())
    return {"wall_s": time.perf_counter() - t0, "claim_s": claim_s, "claims": results}


def traced_replay(claims: list[dict]) -> dict:
    tracer = Tracer()
    with instrumented(tracer):
        out = replay(claims, tracer)
    out["trace"] = tracer.summary()
    return out


def jobs2(workload: str) -> dict:
    t0 = time.perf_counter()
    results = run_claim_catalog(ROOT / CATALOG, jobs=2, only=set(claims_of(workload)))
    return {"wall_s": time.perf_counter() - t0, "claims": [r.to_dict() for r in results]}


def probe(seed: int) -> dict:
    """Time build_bsgs on random generator pairs drawn from ``seed``.

    The check is that both generators sift to the identity and that the
    order divides n!; a random pair generates A_n or S_n only most of the
    time, so the order itself is not fixed.
    """
    rng = random.Random(seed)
    total, ok, orders = 0.0, True, []
    for _ in range(PROBE_PAIRS):
        gens = [Permutation(rng.sample(range(PROBE_DEGREE), PROBE_DEGREE)) for _ in range(2)]
        t = time.perf_counter()
        g = build_bsgs(gens)
        total += time.perf_counter() - t
        orders.append(g.order)
        ok = ok and all(g.contains(p) for p in gens) and math.factorial(PROBE_DEGREE) % g.order == 0
    return {"seconds": total, "ok": ok, "orders": orders}


def main(argv: list[str]) -> int:
    mode, workload = argv[0], argv[1]
    if mode == "plain":
        out = replay(workload_claims(workload))
    elif mode == "traced":
        out = traced_replay(workload_claims(workload))
    elif mode == "jobs2":
        out = jobs2(workload)
    elif mode == "probe":
        out = probe(int(argv[2]))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
