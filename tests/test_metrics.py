import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab import metrics as metrics_module
from longtail_lab import (EpochRecord, GroupReport, RunHistory, checkpoint_gaps,
                          average_precision_per_label, distribution_from_counts,
                          gaps_from_series, group_report, group_report_from_values,
                          group_split)


def isic_style_split():
    # 8 classes ranked 0..7, boundaries 2/5: groups of 2/3/3
    dist = distribution_from_counts([800, 700, 600, 500, 400, 300, 200, 100])
    return group_split(dist, (2, 5))


def predictions_with_per_class_acc(acc_per_class, per_class=100):
    truths, preds = [], []
    for c, acc in enumerate(acc_per_class):
        n_correct = round(acc * per_class)
        truths += [c] * per_class
        preds += [c] * n_correct + [(c + 1) % len(acc_per_class)] * (per_class - n_correct)
    return np.array(preds), np.array(truths)


class TestGroupReport:
    def test_reproduces_published_average_arithmetic(self):
        split = isic_style_split()
        # per-class accuracies chosen to yield group means 79.00/60.67/38.33
        acc = [0.79, 0.79, 0.61, 0.61, 0.60, 0.39, 0.38, 0.38]
        preds, truths = predictions_with_per_class_acc(acc)
        report = group_report(preds, truths, split)
        assert report.head == pytest.approx(79.00, abs=0.005)
        assert report.medium == pytest.approx(60.67, abs=0.005)
        assert report.tail == pytest.approx(38.33, abs=0.005)
        assert report.average == pytest.approx(59.33, abs=0.005)

    def test_all_correct(self):
        split = isic_style_split()
        truths = np.repeat(np.arange(8), 5)
        report = group_report(truths, truths, split)
        assert (report.head, report.medium, report.tail, report.average) == (100, 100, 100, 100)

    def test_three_classes_hand_tally(self):
        dist = distribution_from_counts([3, 2, 1])
        split = group_split(dist, (1, 2))
        truths = np.array([0, 0, 1, 1, 2, 2])
        preds = np.array([0, 0, 1, 0, 0, 1])
        report = group_report(preds, truths, split)
        assert (report.head, report.medium, report.tail) == (100.0, 50.0, 0.0)
        assert report.average == pytest.approx(50.0)

    def test_average_is_group_mean(self):
        split = isic_style_split()
        values = np.array([80.0, 70, 60, 50, 40, 30, 20, 10])
        report = group_report_from_values(values, split)
        assert report.average == pytest.approx((report.head + report.medium + report.tail) / 3,
                                               abs=1e-9)

    def test_zero_sample_class_excluded_with_warning(self):
        split = isic_style_split()
        truths = np.repeat(np.arange(7), 4)  # class 7 absent
        with pytest.warns(UserWarning, match=r"classes \[7\]"):
            report = group_report(truths, truths, split)
        assert np.isnan(report.per_class_acc[7])
        assert report.tail == 100.0

    def test_fully_empty_group_rejected(self):
        split = isic_style_split()
        truths = np.repeat(np.arange(5), 4)  # tail classes 5,6,7 all absent
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="tail"):
                group_report(truths, truths, split)

    def test_relabeling_within_group_invariant(self):
        rng = np.random.default_rng(0)
        dist = distribution_from_counts([60, 50, 40, 30, 20, 10])
        split = group_split(dist, (2, 4))
        truths = rng.integers(0, 6, size=400)
        preds = rng.integers(0, 6, size=400)
        base = group_report(preds, truths, split)
        # swap the two head classes everywhere
        swap = {0: 1, 1: 0}
        truths2 = np.array([swap.get(t, t) for t in truths])
        preds2 = np.array([swap.get(p, p) for p in preds])
        again = group_report(preds2, truths2, split)
        assert again.head == pytest.approx(base.head, abs=1e-9)
        assert again.average == pytest.approx(base.average, abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            group_report([0, 1], [0], isic_style_split())

    def test_posthoc_with_uniform_prior_leaves_report_unchanged(self):
        from longtail_lab.losses import posthoc_shift

        rng = np.random.default_rng(3)
        dist = distribution_from_counts([25, 25, 25, 25])
        split = group_split(dist, (1, 3))
        scores = rng.standard_normal((200, 4))
        truths = rng.integers(0, 4, size=200)
        base = group_report(np.argmax(scores, axis=1), truths, split)
        for tau in (0.5, 1.0, 3.0):
            adjusted = scores - posthoc_shift(dist, tau)
            report = group_report(np.argmax(adjusted, axis=1), truths, split)
            assert report.average == base.average
            assert report.head == base.head


def per_class_acc_loop(preds, truths, k):
    """Reference: a masked mean per class, NaN for a class with no samples."""
    per_class = np.full(k, np.nan)
    for c in range(k):
        mask = truths == c
        if mask.any():
            per_class[c] = 100.0 * float((preds[mask] == c).mean())
    return per_class


class TestGroupReportWholeArray:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 40), st.integers(3, 500), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_per_class_loop(self, k, n, hit_rate, seed):
        rng = np.random.default_rng(seed)
        # skewed truths so that some classes are often absent
        truths = np.minimum(rng.geometric(0.3, size=n) - 1, k - 1)
        truths[:3] = np.arange(3)  # every group of the (1, 2) split keeps a class
        preds = np.where(rng.random(n) < hit_rate, truths, rng.integers(0, k, size=n))
        split = group_split(distribution_from_counts(np.arange(k, 0, -1) * 10), (1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            report = group_report(preds, truths, split)
        expected = per_class_acc_loop(preds, truths, k)
        assert report.per_class_acc.tobytes() == expected.tobytes()


def ap_bruteforce(scores, truth):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits, total = 0, 0.0
    for rank, i in enumerate(order, start=1):
        if truth[i]:
            hits += 1
            total += hits / rank
    return total / hits if hits else float("nan")


class TestAveragePrecision:
    def test_textbook_single_label(self):
        scores = np.array([[0.9], [0.8], [0.1]])
        truths = np.array([[1], [0], [1]])
        assert average_precision_per_label(scores, truths)[0] == pytest.approx((1 + 2 / 3) / 2)

    def test_perfect_ranking(self):
        scores = np.array([[0.9], [0.8], [0.1]])
        truths = np.array([[1], [1], [0]])
        assert average_precision_per_label(scores, truths)[0] == 1.0

    def test_single_positive_at_last_rank(self):
        n = 6
        scores = np.arange(n, dtype=float)[::-1].reshape(-1, 1)
        truths = np.zeros((n, 1), dtype=int)
        truths[-1, 0] = 1
        assert average_precision_per_label(scores, truths)[0] == pytest.approx(1 / n)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            scores = rng.random((n, 1))
            truths = rng.integers(0, 2, size=(n, 1))
            if truths.sum() == 0:
                continue
            got = average_precision_per_label(scores, truths)[0]
            assert got == pytest.approx(ap_bruteforce(scores[:, 0], truths[:, 0]), abs=1e-12)

    def test_tie_break_by_sample_index(self):
        scores = np.array([[0.5], [0.5], [0.5]])
        truths = np.array([[0], [1], [0]])
        # ranking is 0,1,2 by index; the positive sits at rank 2
        assert average_precision_per_label(scores, truths)[0] == pytest.approx(0.5)

    def test_zero_positive_label_skipped_with_warning(self):
        scores = np.random.default_rng(0).random((4, 2))
        truths = np.array([[1, 0], [0, 0], [1, 0], [0, 0]])
        with pytest.warns(UserWarning, match=r"labels \[1\]"):
            aps = average_precision_per_label(scores, truths)
        assert np.isnan(aps[1]) and not np.isnan(aps[0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_precision_per_label(np.ones((3, 2)), np.ones((2, 3), dtype=int))


def ap_per_label_loop(scores, truths):
    """Per-label AP one label at a time, each ranked by its own stable argsort."""
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truths)
    n, k = s.shape
    aps = np.full(k, np.nan)
    ranks = np.arange(1, n + 1)
    for label in range(k):
        positives = t[:, label].sum()
        if positives == 0:
            continue
        order = np.argsort(-s[:, label], kind="stable")
        rel = t[order, label].astype(np.float64)
        precision_at = np.cumsum(rel) / ranks
        aps[label] = float((precision_at * rel).sum() / positives)
    return aps


# Few distinct values, so ties, signed zeros, NaN and infinities are common
SCORE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def scored_truths(draw):
    """(n, K) scores, each drawn from a small pool with some probability, else normal."""
    n = draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(120, 300)))
    k = draw(st.integers(1, 6))
    pool = np.array(draw(st.lists(SCORE_VALUES, min_size=1, max_size=8)))
    pooled = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rates = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=k, max_size=k))
    dtype = draw(st.sampled_from([np.int64, np.float64, bool]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = np.where(rng.random((n, k)) < pooled, rng.choice(pool, size=(n, k)),
                      rng.standard_normal((n, k)))
    return scores, (rng.random((n, k)) < rates).astype(dtype)


def ap_blocked(scores, truths, chunk=None):
    """``average_precision_per_label`` with ``chunk`` elements per label block (None: the
    module's own), its no-positive warning silenced."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if chunk is not None:
            mp.setattr(metrics_module, "AP_CHUNK_ELEMENTS", chunk)
        return average_precision_per_label(scores, truths)


def tie_cases():
    """(name, scores, truths) where the ranking rests on the tie rules."""
    nan, rng = np.nan, np.random.default_rng(11)
    # every label ties positives with each other and with negatives, -0.0 beside 0.0
    tied = np.array([[0.5, 0.0, 1.0, 2.0], [0.5, -0.0, 1.0, 2.0], [0.5, 0.0, 0.5, 2.0],
                     [0.7, -0.0, 1.0, 3.0], [0.5, 0.0, 1.0, 2.0], [0.2, 0.0, 1.0, 2.0]])
    tied_truths = np.array([[0, 1, 1, 0], [1, 0, 1, 1], [1, 1, 0, 0],
                            [0, 0, 1, 1], [1, 1, 1, 0], [0, 1, 0, 1]])
    nans = np.array([[nan, 1.0, nan], [nan, nan, 0.0], [0.3, nan, nan],
                     [nan, 2.0, -nan], [1.0, nan, nan]])
    nan_truths = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 1], [1, 0, 0], [0, 1, 1]])
    rounded = np.round(rng.standard_normal((40, 9)), 1)
    rounded[rng.random((40, 9)) < 0.1] = nan
    return [
        ("ties", tied, tied_truths),
        ("nan-positives-beside-nan-negatives", nans, nan_truths),
        ("all-equal", np.full((7, 5), 0.25), (rng.random((7, 5)) < 0.5).astype(np.int64)),
        ("all-equal-all-positive", np.zeros((6, 3)), np.ones((6, 3), dtype=np.int64)),
        ("n=1", np.array([[0.3, nan, -0.0, 0.3]]), np.array([[1, 1, 1, 0]])),
        ("rounded-with-nan", rounded, (rng.random((40, 9)) < 0.4).astype(np.int64)),
    ]


class TestAveragePrecisionPerLabel:
    @settings(max_examples=300, deadline=None)
    @given(scored_truths(), st.sampled_from([None, 1, 7, 64]))
    def test_bitwise_equal_to_per_label_loop(self, case, chunk):
        scores, truths = case
        got = ap_blocked(scores, truths, chunk)
        want = ap_per_label_loop(scores, truths)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("name, scores, truths", tie_cases(), ids=[c[0] for c in tie_cases()])
    def test_ties_bitwise_equal_in_every_block_size(self, name, scores, truths):
        # 1 to 3 labels per block, and the default, so tied labels fall on both sides of a
        # block boundary, and the runs of equal keys are counted a few at a time
        n = scores.shape[0]
        want = ap_per_label_loop(scores, truths)
        for chunk in (n, 2 * n, 3 * n + 1, None):
            got = ap_blocked(scores, truths, chunk)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), chunk

    def test_label_blocks_bitwise_equal_one_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        scores = np.round(rng.standard_normal((37, 11)), 1)  # rounding makes ties
        truths = (rng.random((37, 11)) < 0.3).astype(np.int64)
        truths[:, 4] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            whole = average_precision_per_label(scores, truths)
            # 3 labels per block: the 10 scored labels leave a short last block
            monkeypatch.setattr(metrics_module, "AP_CHUNK_ELEMENTS", 3 * 37)
            blocked = average_precision_per_label(scores, truths)
        assert np.array_equal(blocked.view(np.uint64), whole.view(np.uint64))
        assert np.array_equal(whole.view(np.uint64),
                              ap_per_label_loop(scores, truths).view(np.uint64))

    def test_inputs_are_not_modified(self):
        scores = np.random.default_rng(3).standard_normal((20, 4))
        truths = np.eye(20, 4, dtype=np.int64)
        before = scores.copy()
        average_precision_per_label(scores, truths)
        assert np.array_equal(scores, before)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_non_binary_truths_rejected(self, bad):
        truths = np.zeros((3, 2))
        truths[1, 1] = bad
        with pytest.raises(ValueError, match="truths must be binary"):
            average_precision_per_label(np.ones((3, 2)), truths)


def history_from(val, test):
    def report(avg):
        return GroupReport(np.array([avg]), avg, avg, avg, avg)

    return RunHistory([EpochRecord(epoch=i, train_loss=0.0, val=report(v), test=report(t))
                       for i, (v, t) in enumerate(zip(val, test))])


class TestCheckpointGaps:
    def test_hand_example(self):
        stats = checkpoint_gaps(history_from([60, 70, 65], [55, 68, 66]))
        assert stats.epoch_best_val == 1
        assert stats.gap_best == 0.0
        assert stats.gap_final == 2.0
        assert stats.epoch_best_test == 1

    def test_identical_monotone_curves(self):
        stats = checkpoint_gaps(history_from([10, 20, 30], [10, 20, 30]))
        assert stats.gap_best == 0.0 and stats.gap_final == 0.0

    def test_single_epoch(self):
        stats = checkpoint_gaps(history_from([50], [40]))
        assert stats.gap_best == 0.0 and stats.gap_final == 0.0

    def test_earliest_tie_wins(self):
        stats = checkpoint_gaps(history_from([70, 70, 60], [50, 55, 52]))
        assert stats.epoch_best_val == 0
        assert stats.gap_best == pytest.approx(5.0)

    def test_gap_best_non_negative_random(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            stats = gaps_from_series(rng.random(n), rng.random(n))
            assert stats.gap_best >= 0.0

    def test_gap_final_can_be_negative_only_when_final_beats_selected(self):
        stats = gaps_from_series([60, 70, 65], [55, 60, 66])
        assert stats.gap_final == pytest.approx(-6.0)
        assert stats.gap_best == pytest.approx(6.0)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            checkpoint_gaps(RunHistory([]))
