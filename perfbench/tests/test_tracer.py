"""Self-time arithmetic, span recording and the layer probe."""
import pytest

from tabtext import evaluate
from tabtext.embed import HashedNgram
from tabtext.evaluate import ExperimentSpec, run_experiment
from tabtext.ingest import DatasetManifest
from tabtext.models import Gbdt, Ridge
from tracer import LayerProbe, Span, Tracer, busy_time, self_time_by_name, self_times
from workloads import cls_boost_table, grid_ridge_table


def spans_of(*rows):
    return [Span(i, name, parent, start, end) for i, (name, parent, start, end) in enumerate(rows)]


def test_self_time_subtracts_children_at_every_level():
    spans = spans_of(
        ("cell", None, 0.0, 10.0),
        ("fit", 0, 1.0, 4.0),
        ("predict", 1, 2.0, 3.0),
        ("metric", 0, 5.0, 9.0),
    )
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = spans_of(
        ("parent", None, 0.0, 10.0),
        ("a", 0, 1.0, 5.0),
        ("b", 0, 3.0, 7.0),
        ("late", 0, 9.0, 12.0),
    )
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_by_name_sums_spans_of_a_name():
    spans = spans_of(
        ("cell", None, 0.0, 4.0),
        ("fit", 0, 0.0, 1.0),
        ("cell", None, 4.0, 6.0),
        ("fit", 2, 4.5, 5.0),
    )
    totals = self_time_by_name(spans)
    assert totals["cell"] == pytest.approx(3.0 + 1.5)
    assert totals["fit"] == pytest.approx(1.5)


def test_busy_time_counts_same_name_nesting_once():
    spans = spans_of(
        ("predict", None, 0.0, 4.0),
        ("predict", 0, 1.0, 2.0),
        ("other", None, 4.0, 5.0),
        ("predict", 2, 4.2, 4.7),
    )
    assert busy_time(spans, "predict") == pytest.approx(4.5)


def test_wrap_records_parents_errors_and_hooks():
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    seen = []

    def after(span, args, result):
        seen.append((span.name, args, result))

    inner = tracer.wrap(lambda x: x + 1, "inner", after)
    outer = tracer.wrap(lambda x: inner(x) * 2, lambda a: f"outer.{a[0]}")

    def boom():
        raise ValueError("no")

    failing = tracer.wrap(boom, "boom", after)
    assert outer(3) == 8
    with pytest.raises(ValueError):
        failing()
    names = [(s.name, s.parent, s.error) for s in tracer.spans]
    assert names == [("outer.3", None, False), ("inner", 0, False), ("boom", None, True)]
    assert seen == [("inner", (3,), 4), ("boom", (), None)]
    assert all(s.end > s.start for s in tracer.spans)


def small_spec(selector=None):
    manifest = DatasetManifest("grid-ridge", "unused.csv", "y", grid_ridge_table(0, 60).task)
    return ExperimentSpec(manifest, HashedNgram(buckets=16), selector, Ridge(), True,
                          k_folds=2, feature_cap=5, seed=1)


def test_probe_counts_one_cell_and_leaves_results_unchanged():
    table = grid_ridge_table(0, 60)
    plain = run_experiment(small_spec("variance"), table)
    original = evaluate.run_experiment
    probe = LayerProbe(Tracer("t"))
    probe.install()
    try:
        traced = evaluate.run_experiment(small_spec("variance"), table)
    finally:
        probe.uninstall()
    assert evaluate.run_experiment is original
    assert traced.per_fold == plain.per_fold
    m = probe.metrics()
    assert m["evaluate.cells"] == 1 and m["evaluate.folds"] == 2
    assert m["embed.calls"] == 2 and m["embed.reuse_ratio"] == 1.0
    assert m["select.fire_ratio"] == 1.0
    # each fold predicts its test half, then the whole train half again
    assert m["models.predict_useful_ratio"] == pytest.approx(0.5)
    assert m["models.ridge_fit_s"] > 0 and m["models.gbdt_trees"] == 0
    assert m["core.calls"] == 2  # one subsample, one split
    assert m["trace.spans"] == len(probe.tracer.spans)


def test_probe_keys_feature_sets_by_content_not_identity():
    table = grid_ridge_table(0, 60)
    probe = LayerProbe(Tracer("t"))
    probe.install()
    try:
        for _ in range(2):
            evaluate.run_experiment(small_spec(), table.subset(range(table.n_rows)))
    finally:
        probe.uninstall()
    m = probe.metrics()
    assert m["embed.calls"] == 4 and m["embed.reuse_ratio"] == 0.5


def test_probe_counts_the_trees_the_booster_grew():
    table = cls_boost_table(0, 60)
    manifest = DatasetManifest("cls-boost", "unused.csv", table.target, table.task)
    spec = ExperimentSpec(manifest, HashedNgram(buckets=16), None, Gbdt(2, 0.3, 3), True,
                          k_folds=2, seed=1)
    probe = LayerProbe(Tracer("t"))
    probe.install()
    try:
        evaluate.run_experiment(spec, table)
    finally:
        probe.uninstall()
    # 2 folds x 3 rounds x 3 classes
    assert probe.metrics()["models.gbdt_trees"] == 18
