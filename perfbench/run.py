"""The fixitylab benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/fixitylab``; the
library is loaded from that source tree, never from an installed copy.

--trace 0 (the timed run).  A closed loop with one client: one
`fixitylab verify --only <claims> --jobs 1` child process at a time, until
the next one would end after S seconds (at least one).  The benchmark and
its children share one CPU.  Each child runs in slices of half a second;
between slices it is stopped and a fixed calibration kernel is timed, and
each slice is rescaled by those timings to a reference host speed.  Reports
the medians of the rescaled wall and CPU time and of the peak resident
memory of the child, the median rescaled set-up time of several fresh
interpreters, and the share of claims whose verdict and rows match the
stored reference.

--trace 1 (the traced run).  Fresh interpreters replay the same claims
in-process: once untraced (per-claim times), once with spans around the
public functions of each module (per-layer self times and counts), on
lattice_search once more through run_claim_catalog(jobs=2), and once on the
seeded build_bsgs probe.  The seed drives only that probe.  The traced run
replays the whole workload two or three times, so it ignores --seconds.
Its times are raw, not rescaled.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from workloads import (
    ALL_CLAIMS,
    BENCH_DIR,
    CATALOG,
    POOL_WORKLOAD,
    ROOT,
    SRC,
    WORKLOADS,
    claims_of,
    count_failed,
    groups_of,
    load_reference,
)

OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys\n"
    "import fixitylab.cli\n"
    "from fixitylab.zoo import resolve_group\n"
    "for name in sys.argv[1:]:\n"
    "    resolve_group(name)\n"
)

# Calibration: a Schreier-generator kernel on two permutations of degree 128
# (fixed here, independent of --seed).  CALIB_REF_S is the kernel's time on
# the reference host (a 2-vCPU Intel Xeon VM, Python 3.11.7) at full speed;
# every end-to-end time is reported at that speed.  A child runs in slices
# of SLICE_S seconds, each rescaled by the calibrations on either side.
_calib_rng = random.Random(0)
CALIB_GENS = [tuple(_calib_rng.sample(range(128), 128)) for _ in range(2)]
CALIB_ROUNDS = 4
CALIB_REF_S = 0.014
SLICE_S = 0.5

# per-layer metrics reported from the traced run: spans whose self time is
# reported, and the spans whose call count is reported too
SELF_TIME_SPANS = (
    "zoo.resolve",
    "perm.build_bsgs",
    "perm.contains",
    "perm.element_tables",
    "enumeration.context",
    "enumeration.lattice",
    "enumeration.subgroup_closure",
    "enumeration.structure_predicates",
    "cosets.screen",
    "cosets.build_coset_action",
    "cosets.fix_direct",
    "cosets.fixity",
    "verifier.search",
    "verifier.lemmas",
    "verifier.sylow3",
    "verifier.family",
    "verifier.order27",
)
CALL_SPANS = (
    "perm.build_bsgs",
    "perm.contains",
    "enumeration.subgroup_closure",
    "cosets.screen",
    "cosets.build_coset_action",
    "cosets.fix_direct",
)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ---------------------------------------------------------------------------
# --trace 0
# ---------------------------------------------------------------------------

def calibration_s() -> float:
    """Time of a fixed pure-Python kernel in this process: CALIB_ROUNDS times
    the orbit and transversal of a point under two fixed permutations, and
    every Schreier generator they give, the core of fixitylab's work."""
    gens = CALIB_GENS
    t0 = time.perf_counter()
    for _ in range(CALIB_ROUNDS):
        trans = {0: tuple(range(len(gens[0])))}
        orbit = [0]
        for pt in orbit:
            u = trans[pt]
            for g in gens:
                img = g[pt]
                if img not in trans:
                    trans[img] = tuple([g[i] for i in u])
                    orbit.append(img)
        inverse = {}
        for pt, u in trans.items():
            w = [0] * len(u)
            for i, x in enumerate(u):
                w[x] = i
            inverse[pt] = w
        schreier = set()
        for u in trans.values():
            for g in gens:
                ug = tuple([g[i] for i in u])
                back = inverse[ug[0]]
                schreier.add(tuple([back[i] for i in ug]))
    return time.perf_counter() - t0


def rescaled(slices: list[float], calibs: list[float]) -> float:
    """Total of the slice times, each rescaled to the reference speed by the
    mean of the calibrations just before it (``calibs[i]``) and just after
    it (``calibs[i + 1]``)."""
    return sum(
        dt * CALIB_REF_S / ((calibs[i] + calibs[i + 1]) / 2)
        for i, dt in enumerate(slices)
    )


def run_sliced(cmd: list[str], stdout, stderr) -> dict:
    """Run ``cmd`` on this process's CPU in slices of SLICE_S seconds.

    Between slices the child is stopped (its stopped time is not counted)
    and the calibration kernel is timed on the same CPU.  Returns the raw
    and the rescaled running time, the slices and calibrations, and the
    child's exit code and resource usage.
    """
    calibs = [calibration_s()]
    slices: list[float] = []
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            while True:
                if not select.select([pidfd], [], [], SLICE_S)[0]:
                    os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                slices.append(time.perf_counter() - t)
                calibs.append(calibration_s())
                if not os.WIFSTOPPED(status):
                    break
                t = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "raw_s": sum(slices),
        "scaled_s": rescaled(slices, calibs),
        "slices": slices,
        "calibs": calibs,
        "exit_code": proc.returncode,
        "usage": usage,
    }


def setup_once(groups: list[str]) -> float:
    """Running time, at the reference speed, of a fresh interpreter that
    imports the CLI and resolves every group of the workload."""
    r = run_sliced([sys.executable, "-c", SETUP_CODE, *groups], subprocess.DEVNULL, None)
    if r["exit_code"] != 0:
        raise RuntimeError(f"set-up child exited with code {r['exit_code']}")
    return r["scaled_s"]


def verify_once(workload: str, reference: dict) -> dict:
    """One `fixitylab verify` child over the workload's claims: its running
    time at the reference speed, its CPU time rescaled alike, its peak RSS,
    and the claims whose output differs from the reference."""
    ids = claims_of(workload)
    out_path = OUT_DIR / f"{workload}.verify.json"
    out_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, "-m", "fixitylab.cli", "verify",
        "--catalog", CATALOG,
        "--only", ",".join(ids),
        "--jobs", "1",
        "--out", str(out_path),
    ]
    with open(OUT_DIR / f"{workload}.verify.err", "w") as err:
        r = run_sliced(cmd, subprocess.DEVNULL, err)
    try:
        claims = json.loads(out_path.read_text())["claims"]
    except (OSError, ValueError, KeyError):
        claims = []  # no usable output: every claim counts as failed
    usage = r["usage"]
    return {
        "raw_wall_s": r["raw_s"],
        "wall_s": r["scaled_s"],
        "cpu_s": (usage.ru_utime + usage.ru_stime) * r["scaled_s"] / r["raw_s"],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "failed": count_failed(claims, reference, ids),
        "exit_code": r["exit_code"],
        "slices": r["slices"],
        "calibs": r["calibs"],
    }


def timed_run(workload: str, seconds: float, reference: dict) -> dict:
    """Set-up samples, then one verify child after another: the next starts
    only if the last one's whole time, stops and calibrations included,
    says it ends within ``seconds`` (the first always runs).  Everything
    runs on one CPU.  Reports medians over the samples."""
    groups = groups_of(workload)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups = [setup_once(groups) for _ in range(SETUP_REPEATS)]
    runs: list[dict] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        runs.append(verify_once(workload, reference))
        now = time.perf_counter()
        if (now - start) + (now - t) > seconds:
            break
    (OUT_DIR / f"{workload}.samples.json").write_text(
        json.dumps({"setup_s": setups, "verify": runs}, indent=1)
    )
    attempted = len(runs) * len(claims_of(workload))
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "claim_pass_share": ((attempted - failed) / attempted, "ratio"),
    }
    return {
        "correct": failed == 0 and all(r["exit_code"] == 0 for r in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# --trace 1
# ---------------------------------------------------------------------------

def replay_child(mode: str, workload: str, seed: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "replay.py"), mode, workload, str(seed)],
        cwd=ROOT, env=child_env(), check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    plain: dict, traced: dict, jobs2: dict | None, probe: dict, fail_share: float
) -> dict:
    """Per-layer metrics; ``jobs2`` is None on a workload run with one worker,
    and verifier.pool_efficiency then reads 0."""
    tr = traced["trace"]
    self_s, calls, edges, counts = tr["self_s"], tr["calls"], tr["edges"], tr["counts"]
    m: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_SPANS:
        m[f"{name}_s"] = (self_s.get(name, 0.0), "s")
    for name in CALL_SPANS:
        m[f"{name}_calls"] = (calls.get(name, 0), "count")
    m["enumeration.lattice_classes"] = (counts.get("enumeration.lattice_classes", 0), "count")
    m["cosets.cosets_built"] = (counts.get("cosets.cosets_built", 0), "count")
    m["cosets.actions_per_stabilizer"] = (
        ratio(calls.get("cosets.build_coset_action", 0), tr["distinct"].get("cosets.stabilizers", 0)),
        "ratio",
    )
    m["verifier.screen_hit_share"] = (
        ratio(edges.get("verifier.search>cosets.fixity", 0), edges.get("verifier.search>cosets.screen", 0)),
        "ratio",
    )
    m["verifier.claim_fail_share"] = (fail_share, "ratio")
    m["verifier.pool_efficiency"] = (
        ratio(sum(plain["claim_s"].values()), 2 * jobs2["wall_s"]) if jobs2 else 0.0,
        "ratio",
    )
    for cid in ALL_CLAIMS:
        m[f"verifier.claim.{cid}_s"] = (plain["claim_s"].get(cid, 0.0), "s")
    m["perm.bsgs_random26_s"] = (probe["seconds"], "s")
    m["trace.overhead_ratio"] = (ratio(traced["wall_s"], plain["wall_s"]), "ratio")
    m["trace.coverage"] = (ratio(tr["covered_s"], traced["wall_s"]), "ratio")
    return m


def traced_run(workload: str, seed: int, reference: dict) -> dict:
    ids = claims_of(workload)
    plain = replay_child("plain", workload)
    traced = replay_child("traced", workload)
    # only one workload pays for the jobs2 replay behind
    # verifier.pool_efficiency; the timed runs never enter the process pool
    jobs2 = replay_child("jobs2", workload) if workload == POOL_WORKLOAD else None
    probe = replay_child("probe", workload, seed)
    replays = [plain, traced] + ([jobs2] if jobs2 else [])
    traced_failed = count_failed(traced["claims"], reference, ids)
    failed = sum(count_failed(r["claims"], reference, ids) for r in replays)
    (OUT_DIR / f"{workload}.trace.json").write_text(json.dumps(traced["trace"], indent=1))
    return {
        "correct": failed == 0 and probe["ok"],
        "attempted": len(replays) * len(ids),
        "failed": failed,
        "metrics": layer_metrics(plain, traced, jobs2, probe, traced_failed / len(ids)),
    }


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark unwinds, so a child it stopped is killed, not left
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fixitylab" / "cli.py").is_file():
        print(f"no fixitylab source tree under {SRC}", file=sys.stderr)
        return 2
    reference = load_reference(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(args.workload, args.seed, reference)
    else:
        result = timed_run(args.workload, args.seconds, reference)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
