"""Smoke test of the benchmark at small sizes (n <= 6, d <= 16).

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from qensembles import ensembles, hilbert, pipelines, rmt, scrooge, spectral, stats  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture()
def recorder():
    rec = spans.Recorder(memory=True)
    restore = spans.install(rec)
    yield rec
    restore()


def run_small(rec, name, seed=3, **sizes):
    ops = workloads.WORKLOADS[name](seed, **dict(workloads.SMALL[name], **sizes))
    rec.active = True
    outputs = [op.run() for op in ops]
    rec.active = False
    return ops, outputs


def test_every_alias_resolves_to_the_wrapper(recorder):
    aliases = [
        (spectral, "apply_local_rotations"),
        (stats, "apply_local_rotations"),
        (scrooge, "apply_local_rotations"),
        (rmt, "diagonalize"),
        (rmt, "bind_state"),
        (rmt, "finite_time_frobenius_distances"),
        (ensembles, "projection_table"),
        (ensembles, "tensor_power"),
        (stats, "evolve_grid"),
        (stats, "subentropy"),
    ]
    for module, attr in aliases:
        assert hasattr(getattr(module, attr), "perfbench_span"), f"{module.__name__}.{attr}"
    assert hilbert.apply_local_rotations is stats.apply_local_rotations
    assert hasattr(pipelines.SpectrumCache.spectrum, "perfbench_span")


def test_restore_unwraps():
    original = stats.subentropy
    restore = spans.install(spans.Recorder())
    assert stats.subentropy is not original
    restore()
    assert stats.subentropy is original
    assert not hasattr(pipelines.SpectrumCache.spectrum, "perfbench_span")


def test_span_counts(recorder):
    ops, outputs = run_small(recorder, "projected-gen", cases=((2, 2), (2, 3)))
    m = recorder.metrics()
    kept = 2 ** (6 - 2) - m.get("scrooge.conditional_states.dropped_outcomes", 0)
    # one Scrooge moment of rho_A plus one per kept outcome, for each operation
    assert m["scrooge.scrooge_moment.calls"] == 2 * (1 + kept)
    assert m["spectral.diagonalize.calls"] == 1
    assert m["pipelines.SpectrumCache.misses"] == 1
    assert m["pipelines.SpectrumCache.hits"] == 3
    assert m["scrooge.scrooge_moment.multisets"] == (1 + kept) * (10 + 20)
    assert all(not op.check(out) for op, out in zip(ops, outputs))

    recorder.calls.clear()
    run_small(recorder, "rmt-conv")
    assert recorder.calls["rmt.sample_gue"] == 4
    assert recorder.calls["spectral.diagonalize"] == 4
    assert recorder.calls["ensembles.finite_time_frobenius_distances"] == 4


def test_self_times_partition_the_run(recorder):
    t0 = time.perf_counter()
    run_small(recorder, "kdesign")
    elapsed = time.perf_counter() - t0
    m = recorder.metrics()
    self_times = [v for k, v in m.items() if k.endswith(".self_s")]
    assert min(self_times) >= 0
    assert sum(self_times) <= elapsed
    assert m["stats.trace_distance.dim"] == 8**3
    assert m["ensembles.moment_k.entries"] == (8**3) ** 2
    assert m["ensembles.moment_k.peak_mb"] > 0
    assert m["spectral.diagonalize.residual_max"] < 1e-10


def test_every_per_layer_metric_is_produced(recorder):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        run_small(recorder, name)
    produced = set(recorder.metrics()) | {"unwrapped.self_s", "trace.overhead_s"}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    assert not missing


def test_checks_pass_at_small_sizes():
    for name in workloads.WORKLOADS:
        ops = workloads.WORKLOADS[name](5, **workloads.SMALL[name])
        for op in ops:
            assert op.check(op.run()) == [], (name, op.label)


def test_perturbed_reference_fails():
    ops = workloads.projected_gen(0, n=6, cases=((2, 2),))
    out = ops[0].run()
    refs = {(6, 2, 2): {"dist_scrooge": out.dist_scrooge + 1e-6}}
    bad = workloads.projected_gen(0, n=6, cases=((2, 2),), refs=refs)
    assert bad[0].check(bad[0].run())
    refs = {(6, 2, 2): {"dist_scrooge": out.dist_scrooge}}
    good = workloads.projected_gen(0, n=6, cases=((2, 2),), refs=refs)
    assert good[0].check(good[0].run()) == []


def test_wrong_closed_form_fails(monkeypatch):
    ops = workloads.kdesign(0, **workloads.SMALL["kdesign"])
    out = ops[0].run()
    assert ops[0].check(out) == []
    right = workloads.closed_form_haar_distance
    monkeypatch.setattr(workloads, "closed_form_haar_distance", lambda *a: right(*a) + 1e-6)
    assert ops[0].check(out)


def test_failed_or_raising_operation_counts_as_failed(monkeypatch):
    import worker

    def boom():
        raise ValueError("boom")

    monkeypatch.setattr(workloads, "closed_form_haar_distance", lambda d_a, d_b, k: 0.5)
    small = workloads.kdesign(0, **workloads.SMALL["kdesign"])
    raising = workloads.Operation("raises", boom, lambda out: [])
    monkeypatch.setitem(workloads.WORKLOADS, "kdesign", lambda seed: small + [raising])
    result = worker.main("kdesign", 0, "plain")
    assert result["attempted"] == 2 and result["failed"] == 2
    assert "ValueError: boom" in result["failures"]["raises"][0]
