"""Paired benchmark runs: a parent commit against the work tree.

Each side is copied into its own temporary directory, the parent from
``git archive <rev>`` and the change from the files ``git ls-files`` lists
in the work tree (untracked files that are not ignored included), so both
start with the same bytecode state: no ``__pycache__`` on either side.  For
each seed 1..N it runs ``perfbench/run.py --trace 0`` once per side, the
order alternated by seed parity (odd seeds run the change first), and writes
every end-to-end metric of ``BENCHMARK.json`` per run, with medians and
quartiles, as one BENCH_*.json file.  Every workload of ``BENCHMARK.json``
runs, each run for its ``run_seconds``:

    python3 scripts/bench_pairs.py --parent HEAD --out BENCH_13.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev)), mode="r:") as tar:
        tar.extractall(dest)


def export_work_tree(dest: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        # a tracked file deleted in the work tree is not part of the change
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_side(side: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=side, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {
        "runs": runs,
        "median": round(statistics.median(runs), 4),
        "q1": round(q1, 4),
        "q3": round(q3, 4),
    }


def bench_workload(sides: dict[str, Path], workload: str, pairs: int,
                   seconds: float, metrics: list[dict]) -> dict:
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for seed in range(1, pairs + 1):
        order = ("change", "parent") if seed % 2 else ("parent", "change")
        for name in order:
            res = run_side(sides[name], workload, seed, seconds)
            results[name].append(res)
            wall = res["metrics"]["wall_s"]["value"]
            print(f"{workload} seed {seed} {name}: wall_s {wall:.4f}", file=sys.stderr)
    out = {
        "seeds": list(range(1, pairs + 1)),
        "all_correct": all(r["correct"] for side in results.values() for r in side),
        "failed": sum(r["failed"] for side in results.values() for r in side),
        "metrics": {},
    }
    for m in metrics:
        name = m["name"]
        runs = {s: [r["metrics"][name]["value"] for r in results[s]] for s in results}
        entry = {"unit": m["unit"], "parent": summary(runs["parent"]),
                 "change": summary(runs["change"])}
        if m["better"] == "lower":
            entry["change_lower_in_pairs"] = sum(
                c < p for p, c in zip(runs["parent"], runs["change"])
            )
        out["metrics"][name] = entry
    return out


def notes(workloads: dict, metrics: list[dict]) -> str:
    """One line per workload and metric: the medians, their change, how many
    pairs the change won, and the parent's spread."""
    lines = []
    for w, data in workloads.items():
        for m in metrics:
            e = data["metrics"][m["name"]]
            p, c = e["parent"]["median"], e["change"]["median"]
            rel = f" ({(c - p) / p:+.1%})" if p else ""
            won = e.get("change_lower_in_pairs")
            won = f", change lower in {won} of {len(data['seeds'])} pairs" if won is not None else ""
            iqr = e["parent"]["q3"] - e["parent"]["q1"]
            lines.append(
                f"{w} {m['name']}: {p} -> {c} {m['unit']}{rel}{won}; "
                f"parent Q3 - Q1 {iqr:.4f}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(prog="scripts/bench_pairs.py")
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--out", required=True, help="BENCH_*.json file to write")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    rev = git("rev-parse", "--short", args.parent).decode().strip()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        for p in sides.values():
            p.mkdir()
        export_parent(args.parent, sides["parent"])
        export_work_tree(sides["change"])
        workloads = {
            w["name"]: bench_workload(sides, w["name"], args.pairs, seconds, metrics)
            for w in spec["workloads"]
        }
    report = {
        "description": (
            f"Paired timed perfbench runs, parent commit {rev} against this change, "
            "one pair per seed, the order of the two sides alternated by seed parity "
            "(odd seeds ran the change first); each side ran from its own fresh copy."
        ),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "host": (
            f"{os.cpu_count()} CPUs (the timed run pins itself to one), "
            f"Python {platform.python_version()}, {platform.system()}"
        ),
        "workloads": workloads,
        "notes": notes(workloads, metrics),
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
