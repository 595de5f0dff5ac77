"""Tests of the benchmark's own machinery: run with

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import fixitylab
import fixitylab.cosets
import fixitylab.enumeration
import fixitylab.perm
import fixitylab.verifier
import fixitylab.zoo
from replay import traced_replay, workload_claims
import run
from run import layer_metrics, run_sliced
from tracer import Tracer, instrumented
from workloads import ALL_CLAIMS, REFERENCE_DIR, ROOT, WORKLOADS, count_failed, load_reference

SMALL_CLAIMS = ("psl2_7_search", "psl2_family_q17", "order27_lemma")


def small_claims():
    claims = [c for w in WORKLOADS for c in workload_claims(w)]
    return [c for c in claims if c["id"] in SMALL_CLAIMS]


def all_references():
    return {cid: c for w in WORKLOADS for cid, c in load_reference(w).items()}


def fixitylab_namespace():
    """Every module-level name and probed class attribute, by identity."""
    snap = {}
    for mod in (fixitylab, fixitylab.cosets, fixitylab.enumeration,
                fixitylab.perm, fixitylab.verifier, fixitylab.zoo):
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
    for cls in (fixitylab.perm.PermGroup, fixitylab.enumeration.GroupContext):
        for key, value in vars(cls).items():
            snap[(cls.__name__, key)] = value
    return snap


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 7.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    with tr.span("outer"):          # 0 .. 10
        with tr.span("inner"):      # 2 .. 5
            pass
        with tr.span("inner"):      # 6 .. 7
            pass
    assert tr.self_s["outer"] == pytest.approx(6.0)
    assert tr.self_s["inner"] == pytest.approx(4.0)
    assert tr.calls == {"outer": 1, "inner": 2}
    assert tr.edges[("outer", "inner")] == 2
    assert tr.root_s == pytest.approx(10.0)
    assert tr.covered_s == pytest.approx(4.0)


def test_self_time_of_recursive_span():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    tr = Tracer(clock=lambda: next(ticks))
    with tr.span("f"):
        with tr.span("f"):
            pass
    # both calls together cover 0..4 exactly once
    assert tr.self_s["f"] == pytest.approx(4.0)
    assert tr.calls["f"] == 2


def test_reference_matches_itself():
    ref = all_references()
    assert count_failed(list(ref.values()), ref, ALL_CLAIMS) == 0


def test_tampered_output_counts_as_failed_claim():
    ref = load_reference("lattice_search")
    ids = list(ref)
    out = copy.deepcopy(list(ref.values()))
    out[0]["rows"][0]["fixity"] += 1
    out[1]["verdict"] = "FAIL"
    del out[2]
    assert count_failed(out, ref, ids) == 3
    # a repeated claim is not a correct one
    dup = copy.deepcopy(list(ref.values()))
    assert count_failed(dup + dup[:1], ref, ids) == 1


def test_tampered_reference_counts_as_failed_claim(tmp_path):
    for f in REFERENCE_DIR.glob("*.json"):
        shutil.copy(f, tmp_path / f.name)
    path = tmp_path / "constructive_stabs.json"
    data = json.loads(path.read_text())
    data["claims"][-1]["rows"][0]["elements_checked"] += 1
    path.write_text(json.dumps(data))
    good = load_reference("constructive_stabs")
    bad = load_reference("constructive_stabs", tmp_path)
    assert count_failed(list(good.values()), bad, list(good)) == 1


def test_wrappers_are_restored_after_traced_run():
    before = fixitylab_namespace()
    tracer = Tracer()
    with instrumented(tracer):
        # names re-imported into other modules are wrapped as well
        assert fixitylab.enumeration.build_bsgs is not before[("fixitylab.perm", "build_bsgs")]
        assert fixitylab.build_bsgs is not before[("fixitylab.perm", "build_bsgs")]
        assert fixitylab.verifier.fixity is not before[("fixitylab.cosets", "fixity")]
    assert fixitylab_namespace() == before

    out = traced_replay(small_claims())
    assert out["trace"]["calls"]["perm.build_bsgs"] > 0
    assert fixitylab_namespace() == before


def test_wrappers_are_restored_after_an_error():
    before = fixitylab_namespace()
    with pytest.raises(RuntimeError):
        with instrumented(Tracer()):
            raise RuntimeError("boom")
    assert fixitylab_namespace() == before


def test_counts_repeat_across_traced_runs():
    first = traced_replay(small_claims())
    second = traced_replay(small_claims())
    for key in ("calls", "edges", "counts", "distinct"):
        assert first["trace"][key] == second["trace"][key], key
    assert first["claims"] == second["claims"]
    assert count_failed(first["claims"], all_references(), SMALL_CLAIMS) == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = {"self_s": {}, "calls": {}, "edges": {}, "counts": {}, "distinct": {},
             "root_s": 0.0, "covered_s": 0.0}
    metrics = layer_metrics(
        {"wall_s": 1.0, "claim_s": {}}, {"wall_s": 1.0, "trace": trace},
        {"wall_s": 1.0}, {"seconds": 1.0}, 0.0,
    )
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }


def test_every_layer_metric_has_a_prediction():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    preds = json.loads((ROOT / "perfbench" / "predictions.json").read_text())["predictions"]
    predicted = {p["metric"] for p in preds}
    for m in spec["per_layer"]:
        name = m["name"]
        if name.startswith("verifier.claim."):
            name = "verifier.claim.<claim_id>_s"
        assert name in predicted, m["name"]


def test_pool_efficiency_reads_zero_without_jobs2_replay():
    trace = {"self_s": {}, "calls": {}, "edges": {}, "counts": {}, "distinct": {},
             "root_s": 0.0, "covered_s": 0.0}
    plain = {"wall_s": 4.0, "claim_s": {"a": 1.0, "b": 3.0}}
    traced = {"wall_s": 4.0, "trace": trace}
    with_pool = layer_metrics(plain, traced, {"wall_s": 2.5}, {"seconds": 1.0}, 0.0)
    without = layer_metrics(plain, traced, None, {"seconds": 1.0}, 0.0)
    assert with_pool["verifier.pool_efficiency"] == (0.8, "ratio")
    assert without["verifier.pool_efficiency"] == (0.0, "ratio")


def test_sliced_child_is_stopped_resumed_and_reaped():
    # long enough to be stopped for calibration a few times
    code = "import time\nt = time.process_time()\nwhile time.process_time() - t < 1.2: pass\n"
    r = run_sliced([sys.executable, "-c", code], subprocess.DEVNULL, None)
    assert r["exit_code"] == 0
    assert 1.2 <= r["raw_s"] < 5.0
    assert r["scaled_s"] > 0
    assert r["usage"].ru_utime + r["usage"].ru_stime >= 1.2


def test_sliced_child_exit_code_is_reported():
    r = run_sliced([sys.executable, "-c", "raise SystemExit(3)"], subprocess.DEVNULL, None)
    assert r["exit_code"] == 3


def test_rescaled_slices_use_the_calibrations_around_them():
    # calibs[i] ran before slice i, calibs[i + 1] after it; the reference
    # time of the calibration kernel is CALIB_REF_S
    ref = run.CALIB_REF_S
    assert run.rescaled([1.0], [ref, ref]) == pytest.approx(1.0)
    # a host running at half speed doubles the calibration: times halve
    assert run.rescaled([2.0, 2.0], [2 * ref] * 3) == pytest.approx(2.0)
    # the host slows down during the second slice
    assert run.rescaled([1.0, 1.0], [ref, ref, 3 * ref]) == pytest.approx(1.5)
