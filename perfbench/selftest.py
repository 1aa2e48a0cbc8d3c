"""Self-test of the benchmark: every metric is emitted and no check is vacuous.

    python3 perfbench/selftest.py

1. Runs each workload for its shortest run (--seconds 1: two rounds
   untraced, one pair of rounds traced), and asserts that the last line
   carries exactly the metrics BENCHMARK.json names, each with its unit,
   that every unit passed, and that the traced run records no convolution
   on bounds and no filter-bound report on the others.
2. Feeds each check one genuine output and corrupted copies of it: the
   genuine output must pass and every corrupted copy must fail.
3. Runs the benchmark in a directory holding only BENCHMARK.json and this
   directory, where it must exit nonzero without printing a result.

Takes about three minutes on a 2-core machine.  Exits 0 when all pass.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics_emitted():
    for wl in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(wl["name"], trace)
            assert out.returncode == 0, (wl["name"], trace, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["correct"] is True and result["failed"] == 0, result
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
            if trace:
                calls = {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}
                if wl["name"] == "bounds":
                    assert calls["net.joint_conv.calls"] == calls["net.lifting_conv.calls"] == 0, calls
                else:
                    assert calls["analysis.filter_bound_report.calls"] == 0, calls
                    assert calls["net.joint_conv.calls"] > 0, calls
            print(f"ok  {wl['name']} --trace {trace}: {len(got)} metrics with units")


def expect(check, output, passes, label):
    failures, _ = check(output)
    assert (not failures) == passes, (label, failures)
    print(f"ok  {label}: {'passes' if passes else 'fails: ' + failures[0][:70]}")


def check_checks_not_vacuous():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w
    from rstcnn import experiments

    # sweep: K=5, L_alpha=3, seed 0 has finite errors at layers 1-3 and inf
    # over a zero reference slice at layers 4-5
    cfg = experiments.fig3_config(k_list=(5,), l_alpha_list=(3,), seeds=(0,))
    text = experiments.run_equivariance_sweep(cfg)
    ref = w.load_reference()
    lines = text.splitlines()
    row = {int(ln.split(",")[3]): i for i, ln in enumerate(lines) if ln.startswith("5,3,0,")}
    assert math.isinf(float(lines[row[4]].split(",")[4])), "expected inf at layer 4"

    def with_error(layer, value):
        out = list(lines)
        out[row[layer]] = ",".join(out[row[layer]].split(",")[:4] + [value])
        return "\n".join(out) + "\n"

    finite = float(lines[row[1]].split(",")[4])
    sweep = lambda t: w.check_sweep(t, cfg, ref)
    expect(sweep, text, True, "sweep genuine")
    expect(sweep, "\n".join(lines[:-1]) + "\n", False, "sweep row missing")
    expect(sweep, text.replace("K,L_alpha", "K;L_alpha"), False, "sweep header broken")
    expect(sweep, with_error(1, "x"), False, "sweep error unparsable")
    expect(sweep, with_error(1, repr(-finite)), False, "sweep error negative")
    expect(sweep, with_error(1, "nan"), False, "sweep error nan")
    expect(sweep, with_error(1, repr(finite * (1 + 1e-5))), False, "sweep error off stored by 1e-5")
    expect(sweep, with_error(2, "inf"), False, "sweep inf over a nonzero slice")
    expect(lambda t: w.check_sweep(t, cfg, {}, slice_norms=lambda c: [1.0] * c.layers), text, False,
           "sweep inf, no stored value, nonzero slice")
    expect(lambda t: w.check_sweep(t, cfg, {}), text, True, "sweep inf, no stored value, zero slice")

    report = w._nonexp_unit(0)
    expect(w.check_nonexp, report, True, "nonexp genuine")
    worse = report.per_layer_worst[:-1] + (1.0 + 2e-3,)
    expect(w.check_nonexp, dataclasses.replace(report, per_layer_worst=worse, worst_ratio=1.0 + 2e-3),
           False, "nonexp ratio above 1 + 1e-3")
    expect(w.check_nonexp, dataclasses.replace(report, worst_ratio=0.0), False, "nonexp worst is not the max")
    expect(w.check_nonexp, dataclasses.replace(report, constancy_dev=1e-9), False, "nonexp zero input not constant")
    expect(w.check_nonexp, dataclasses.replace(report, n_trials=19), False, "nonexp trial skipped")

    bounds = experiments.run_bounds_report(w.bounds_config(0))
    expect(w.check_bounds, bounds, True, "bounds genuine")
    for label, edit in (
        ("bounds not ok", lambda r: r.update(ok=False)),
        ("bounds joint ratio 1.03", lambda r: r["draws"][0]["joint"].update(ratio=1.03)),
        ("bounds lifting ratio nan", lambda r: r["draws"][0]["lifting"].update(ratio=math.nan)),
        ("bounds worst ratio 1.021", lambda r: r.update(worst_ratio=1.021)),
        ("bounds no draw", lambda r: r.update(draws=[])),
    ):
        bad = copy.deepcopy(bounds)
        edit(bad)
        expect(w.check_bounds, bad, False, label)


def check_fails_without_source():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    print(f"ok  without src/: exit {out.returncode}, no result printed")


if __name__ == "__main__":
    check_fails_without_source()
    check_checks_not_vacuous()
    check_metrics_emitted()
    print("selftest passed")
