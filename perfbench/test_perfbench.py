"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

The traced tests run a tiny version of each workload and require every
layer metric to be nonzero where that layer does work, so a rename inside
``malgrange`` cannot silently zero a layer (an unknown name already fails
at install time).
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

ALWAYS = ("cli.run.total_s", "cli.run.self_s", "trace.invocations",
          "trace.overhead_ratio", "rings.invocations",
          "rings.order_key.calls", "groebner.buchberger.calls",
          "groebner.buchberger.self_s", "groebner.buchberger.out_gens",
          "groebner.divide.calls", "groebner.divide.self_s",
          "modules.bass_torsion.total_s", "modules.kernel.total_s",
          "modules.hom_module.calls", "modules.HomModule.builds")

WORKING_LAYERS = {
    "corpus-verify": (
        "groebner.SpanSolver.builds", "groebner.SpanSolver.repeat_ratio",
        "groebner.buchberger.repeat_ratio", "groebner.solve_mod.calls",
        "groebner.syzygies_mod.total_s", "modules.hom_module.hit_ratio",
        "functors.verify_main_theorem.total_s",
        "functors.verify_adjunction.total_s", "functors.nat_hom.total_s",
        "functors.stable_hom.self_s", "control.malgrange_check.total_s",
        "rings.Poly.mul.calls"),
    "torsion-xy": (
        "groebner.colon_ideal.total_s", "modules.annihilator.calls",
        "modules.annihilator.total_s", "groebner.buchberger.repeat_ratio",
        "rings.Poly.mul.calls", "session.parse_session.s"),
    "analyze-xyz": (
        "groebner.extended_buchberger.calls",
        "groebner.extended_buchberger.self_s",
        "groebner.SpanSolver.syzygies.self_s", "groebner.SpanSolver.builds",
        "groebner.SpanSolver.repeat_ratio", "control.autonomy_report.total_s",
        "rings.Poly.mul.calls", "session.parse_session.s"),
}


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result["metrics"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_covers_every_working_layer(workload):
    metrics = _bench(workload, 1)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    for name in ALWAYS + WORKING_LAYERS[workload]:
        assert metrics[name]["value"] > 0, name
    share = metrics["cli.run.self_share"]["value"]
    assert share < 0.05, f"{share:.1%} of cli.run is outside named spans"


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _bench("analyze-xyz", 0)
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_gate_rejects_each_kind_of_failure():
    w = run.WORKLOADS["torsion-xy"]
    good = ("torsion M: generators: 1\n"
            "  generator [1, 0]: annihilator x\n")
    digest = hashlib.sha256(good.encode()).hexdigest()
    assert run.check_output(w, 0, good, digest) is None
    assert run.check_output(w, None, "", digest) == "time limit exceeded"
    assert run.check_output(w, 1, good, digest) == "exit code 1"
    assert "differs" in run.check_output(w, 0, good, "0" * 64)
    empty = good.replace(" x\n", " \n")
    assert "annihilator" in run.check_output(w, 0, empty, digest)
    failed = run.WORKLOADS["analyze-xyz"]
    text = ("analyze S: controllable: no, autonomy: 1\n"
            "  torsion = defect: failed\n")
    assert "failed" in run.check_output(failed, 0, text, digest)
    assert run.check_output(failed, 0, text.replace("no, autonomy: 1",
                                                    "yes, autonomy: 0"),
                            digest) is not None
    verify = run.WORKLOADS["corpus-verify"]
    assert run.check_output(verify, 0, "verify: 9 checks, 1 failures\n",
                            digest) is not None


def test_schedule_is_seeded_and_keeps_the_cost_profile():
    costs = {k: k * k for k in range(1, inputs.UNIVERSE + 1)}
    a = run.schedule(costs, 3, 16)
    assert a == run.schedule(costs, 3, 16)
    assert a != run.schedule(costs, 4, 16)
    # one pick per stratum of four neighbouring costs
    assert sorted((k - 1) // 4 for k in a) == list(range(16))
    assert len(run.schedule(costs, 3, 100)) == 100


def test_quantile_is_the_harrell_davis_estimate():
    assert run.quantile([3.0] * 7, 0.5) == pytest.approx(3.0)
    # for 0..n-1 the weights are Beta mass on [i/n, (i+1)/n): p*n - 1/2
    assert run.quantile(range(100), 0.9) == pytest.approx(89.5, abs=1e-6)
    assert run.tail_percentile(25) == 60.0
    assert run.tail_percentile(10) == 100.0


def test_inputs_are_pure_functions_of_their_number():
    assert inputs.torsion_session(5) == inputs.torsion_session(5)
    assert inputs.analyze_session(5) == inputs.analyze_session(5)
    assert inputs.analyze_session(5) != inputs.analyze_session(6)
