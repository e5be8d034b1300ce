"""The parent's checks: failures counted, outputs compared, score drift."""
from run import check_runs, declared_metrics, overhead_resolved
from tracer import LayerProbe, Tracer


def fake_run(scores=None, hashes=None, traced=False, unit_failures=()):
    return {
        "unit_s": [1.0, 2.0], "unit_failures": list(unit_failures), "checks": 1,
        "check_failures": [], "scores": scores or {"a": 0.5, "b": 0.25},
        "hashes": hashes or {"results.csv": "x"}, "traced": traced,
    }


def test_identical_runs_matching_the_reference_pass_with_zero_drift():
    runs = [fake_run(), fake_run(traced=True)]
    checks, drift = check_runs(runs, {"scores": {"a": 0.5, "b": 0.25}})
    assert checks.failures == [] and drift == 0.0
    # 2 units + 1 own check + 1 finite-score check per run, 1 comparison,
    # then per run the keys and one check per score
    assert checks.attempted == 2 * 4 + 1 + 2 * 3


def test_drift_beyond_the_tolerance_and_byte_differences_fail():
    runs = [fake_run(), fake_run(scores={"a": 0.5, "b": 0.3}, hashes={"results.csv": "y"})]
    checks, drift = check_runs(runs, {"scores": {"a": 0.5, "b": 0.25}})
    assert abs(drift - 0.05) < 1e-12
    assert len(checks.failures) == 2  # run 1 vs run 0, run 1's b vs the reference


def test_drift_within_the_tolerance_is_reported_but_passes():
    ref = {"00:ridge/tfidf/all/text/fold0": 0.99,
           "01:gbdt/hashed/all/text/fold0": 0.75,
           "break/noise_dilution/t0/hashed": 60.0,
           "coverage/a->b": 0.875}
    rounded = dict(ref, **{"00:ridge/tfidf/all/text/fold0": 0.99 + 2e-16,
                           "01:gbdt/hashed/all/text/fold0": 0.75 - 1 / 200,
                           "break/noise_dilution/t0/hashed": 65.0})
    checks, drift = check_runs([fake_run(scores=rounded)], {"scores": ref})
    assert checks.failures == [] and drift == 5.0
    for key, off in [("00:ridge/tfidf/all/text/fold0", 1e-6),
                     ("01:gbdt/hashed/all/text/fold0", 3 / 200),
                     ("break/noise_dilution/t0/hashed", 15.0),
                     ("coverage/a->b", 1e-12)]:
        moved = dict(ref, **{key: ref[key] + off})
        checks, _ = check_runs([fake_run(scores=moved)], {"scores": ref})
        assert len(checks.failures) == 1 and key in checks.failures[0]


def test_without_a_reference_drift_is_unknown_but_runs_are_compared():
    checks, drift = check_runs([fake_run(unit_failures=["cell 0: boom"]), fake_run()], None)
    assert drift is None
    assert checks.failures == ["run 0: cell 0: boom"]


def test_benchmark_declares_every_metric_the_run_prints():
    layers = set(LayerProbe(Tracer("t")).metrics()) | {"trace.overhead_s"}
    assert set(declared_metrics("per_layer")) == layers
    assert set(declared_metrics("end_to_end")) == {"wall_s", "setup_s", "peak_rss_mb",
                                                   "cell_max_s"}


def test_overhead_is_resolved_only_when_the_ranges_are_apart():
    assert not overhead_resolved([2.0], [1.0])  # one run each: no spread known
    assert not overhead_resolved([1.0, 2.0], [1.5, 3.0])
    assert overhead_resolved([2.0, 2.1], [1.0, 1.2])
