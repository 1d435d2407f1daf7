"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import speedprobe  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_same_seed_gives_same_words_and_order():
    for name in wl.WORKLOADS:
        a, b = wl.Workload(name, 7), wl.Workload(name, 7)
        for index in range(3):
            assert a.pass_ops(index) == b.pass_ops(index)
    a, b = wl.Workload("word_algebra", 7), wl.Workload("word_algebra", 8)
    assert a.pass_ops(0) != b.pass_ops(0)


def test_core_letters_on_one_site_never_meet():
    # Between two letters on site i there must be one on site i-1 or i+1;
    # otherwise r_i could commute next to r_i^-1 and cancel.
    for _, _, _, core in wl.WORD_SHAPES:
        sites = [int(token[1:].removesuffix("^-1")) for token in core.split()]
        for k, site in enumerate(sites):
            nxt = next((j for j in range(k + 1, len(sites)) if sites[j] == site), None)
            if nxt is not None:
                assert any(abs(s - site) == 1 for s in sites[k + 1 : nxt]), core


def _bindings() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "vtl" and not name.startswith("vtl."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, member_value in vars(value).items():
                    out[(name, attr, member)] = member_value
    return out


def test_tracer_restores_every_binding():
    import vtl.cli  # noqa: F401  (loaded before the snapshot, as in a run)
    import vtl.elements
    import vtl.reps
    from vtl.scalars import QuadScalar

    before = _bindings()
    with Tracer():
        assert vtl.reps.element_multiply is not before[("vtl.reps", "element_multiply")]
        assert vtl.elements.element_multiply is not before[("vtl.elements", "element_multiply")]
        assert QuadScalar.__add__ is not before[("vtl.scalars", "QuadScalar", "__add__")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_run_gives_same_outputs_and_every_metric():
    params = wl.expand_params()
    ops = [
        op for op in wl.verify_ops("verify_diagram", 3)
        if op.key == "verify_diagram/utl/n=4/sqrt5"
    ]
    ops += [op for op in wl.word_ops(random.Random(3)) if "n=5" in op.key]
    plain = [run.run_op(op, params) for op in ops]
    with Tracer() as tracer:
        traced = [run.run_op(op, params) for op in ops]
    assert traced == plain
    report = json.loads(plain[0][1])
    assert [c["status"] for c in report["checks"]].count("fail") == 1  # the known BGR defect

    table = tracer.table()
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    derived = {"trace.overhead_share", "verify.mismatch_share"}
    assert {m["name"] for m in spec["per_layer"]} - derived <= table.keys()
    assert table["relations.check_relation.calls"] == len(report["checks"])


def test_normalise_divides_by_the_probe_slowdown_and_drops_probe_time():
    probe = speedprobe.SpeedProbe()
    ref = speedprobe.REFERENCE_S
    # Probe samples every 0.1 s, twice as slow as the reference.
    probe.stamps = [0.1 * k for k in range(40)]
    probe.costs = [2 * ref] * 40
    # [1.0, 2.0) holds 10 samples; the window adds those within WINDOW_S.
    expected = (1.0 - 10 * 2 * ref) / 2
    assert abs(probe.normalise(1.0, 2.0) - expected) < 1e-12
    assert abs(probe.normalise(1.0, 2.0) * 2 - probe.normalise(1.0, 3.0)) < 0.01


def test_speed_probe_samples_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    with speedprobe.SpeedProbe() as probe:
        start = speedprobe.clock()
        while speedprobe.clock() - start < 0.3:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.costs) == len(probe.stamps) >= 3
    assert probe.normalise(start, start + 0.3) > 0
