import numpy as np
import pytest

from longtail_lab import (BatchSampler, LossContext, LossSpec, MixupSpec, SamplerSpec,
                          distribution_from_counts, loss_value, mixup_batch)

from conftest import blob_manifest, multilabel_manifest


def draw_class_frequencies(sampler, n_draws, seed, num_classes, batch=1000):
    rng = np.random.default_rng(seed)
    counts = np.zeros(num_classes)
    drawn = 0
    while drawn < n_draws:
        _, labels = sampler.next_batch(min(batch, n_draws - drawn), rng)
        counts += np.bincount(labels, minlength=num_classes)
        drawn += len(labels)
    return counts / n_draws


class TestNextBatch:
    @pytest.mark.parametrize("kind", ["original", "class_balanced", "difficulty"])
    def test_balanced_dataset_symmetry(self, kind):
        manifest = blob_manifest([200, 200])
        sampler = BatchSampler(SamplerSpec(kind), manifest)
        freq = draw_class_frequencies(sampler, 20000, seed=0, num_classes=2)
        assert abs(freq[0] - 0.5) < 0.02

    def test_class_balanced_ignores_imbalance(self):
        manifest = blob_manifest([99, 1], feature_dim=2, seed=1)
        sampler = BatchSampler(SamplerSpec("class_balanced"), manifest)
        freq = draw_class_frequencies(sampler, 100_000, seed=0, num_classes=2)
        assert abs(freq[1] - 0.5) <= 0.01

    def test_original_matches_empirical_distribution(self):
        manifest = blob_manifest([90, 10], feature_dim=2)
        sampler = BatchSampler(SamplerSpec("original"), manifest)
        freq = draw_class_frequencies(sampler, 50_000, seed=3, num_classes=2)
        assert abs(freq[0] - 0.9) < 0.01

    def test_difficulty_probabilities(self):
        manifest = blob_manifest([50, 50])
        sampler = BatchSampler(SamplerSpec("difficulty"), manifest)
        sampler.update_difficulty([1.0, 0.25])
        np.testing.assert_allclose(sampler.class_probabilities(), [0.2, 0.8])
        freq = draw_class_frequencies(sampler, 50_000, seed=5, num_classes=2)
        assert abs(freq[1] - 0.8) < 0.01

    def test_difficulty_floor(self):
        manifest = blob_manifest([50, 50])
        sampler = BatchSampler(SamplerSpec("difficulty"), manifest)
        sampler.update_difficulty([0.0, 1.0])
        expected = (1 / 0.01) / (1 / 0.01 + 1.0)
        np.testing.assert_allclose(sampler.class_probabilities()[0], expected)

    def test_difficulty_update_idempotent(self):
        manifest = blob_manifest([30, 20])
        sampler = BatchSampler(SamplerSpec("difficulty"), manifest)
        sampler.update_difficulty([0.5, 0.9])
        first = sampler.class_probabilities()
        sampler.update_difficulty([0.5, 0.9])
        np.testing.assert_array_equal(first, sampler.class_probabilities())

    def test_difficulty_wrong_length_rejected(self):
        sampler = BatchSampler(SamplerSpec("difficulty"), blob_manifest([10, 10]))
        with pytest.raises(ValueError, match="2 per-class"):
            sampler.update_difficulty([0.5, 0.5, 0.5])

    def test_difficulty_matches_bruteforce_oracle(self):
        # ten-line oracle: normalize 1/max(a, floor) by hand
        manifest = blob_manifest([40, 30, 20], val_per_class=2, test_per_class=2)
        sampler = BatchSampler(SamplerSpec("difficulty"), manifest)
        acc = [0.9, 0.4, 0.005]
        sampler.update_difficulty(acc)
        inv = [1.0 / max(a, 0.01) for a in acc]
        oracle = [v / sum(inv) for v in inv]
        np.testing.assert_allclose(sampler.class_probabilities(), oracle, atol=1e-12)

    def test_class_balanced_uniform_convergence(self):
        counts = [400, 200, 100, 37, 12, 5, 1, 1, 1, 1, 1, 1, 3, 9, 80, 2, 2, 2, 2, 2]
        manifest = blob_manifest(counts, feature_dim=20, val_per_class=1, test_per_class=1)
        sampler = BatchSampler(SamplerSpec("class_balanced"), manifest)
        freq = draw_class_frequencies(sampler, 100_000, seed=2, num_classes=20)
        assert np.abs(freq - 1 / 20).max() < 0.01

    def test_empty_class_rejected_by_name(self):
        manifest = blob_manifest([10, 10, 10])
        # drop every class-1 train record
        keep = [i for i in range(len(manifest))
                if not (manifest.splits[i] == "train" and manifest.labels[i] == 1)]
        broken = manifest.subset(keep)
        with pytest.raises(ValueError, match="class 1 has no training samples"):
            BatchSampler(SamplerSpec("class_balanced"), broken)
        BatchSampler(SamplerSpec("original"), broken)  # instance sampling still fine

    def test_multilabel_class_conditional_rejected(self):
        with pytest.raises(ValueError, match="single-label"):
            BatchSampler(SamplerSpec("class_balanced"), multilabel_manifest())

    def test_epoch_length_default_and_override(self, tiny_manifest):
        assert BatchSampler(SamplerSpec(), tiny_manifest).epoch_length == 35
        assert BatchSampler(SamplerSpec(epoch_length=12), tiny_manifest).epoch_length == 12

    def test_batch_shapes(self, tiny_manifest):
        sampler = BatchSampler(SamplerSpec(), tiny_manifest)
        feats, labels = sampler.next_batch(8, np.random.default_rng(0))
        assert feats.shape == (8, 4) and labels.shape == (8,)


class TestMixup:
    def test_identity_at_lambda_one(self):
        xa, ya = np.array([[2.0, 0.0]]), np.array([0])
        xb, yb = np.array([[0.0, 2.0]]), np.array([1])
        mixed = mixup_batch((xa, ya), (xb, yb), MixupSpec(), np.random.default_rng(0), lam=1.0)
        np.testing.assert_array_equal(mixed.features, xa)
        dist = distribution_from_counts([1, 1])
        ctx = LossContext(dist)
        spec = LossSpec("ce")
        logits = np.array([0.3, -0.2])
        combined = (mixed.lam * loss_value(spec, logits, int(mixed.labels_a[0]), ctx)
                    + (1 - mixed.lam) * loss_value(spec, logits, int(mixed.labels_b[0]), ctx))
        assert combined == loss_value(spec, logits, 0, ctx)

    def test_midpoint(self):
        mixed = mixup_batch((np.array([[2.0, 0.0]]), [0]), (np.array([[0.0, 2.0]]), [1]),
                            MixupSpec(), np.random.default_rng(0), lam=0.5)
        np.testing.assert_array_equal(mixed.features, [[1.0, 1.0]])

    def test_lambda_sequence_deterministic(self):
        spec = MixupSpec(alpha=0.2, enabled=True)
        batch = (np.zeros((2, 2)), np.zeros(2, dtype=int))
        lams_a = [mixup_batch(batch, batch, spec, np.random.default_rng(42)).lam
                  for _ in range(3)]
        rng = np.random.default_rng(42)
        lams_b = [mixup_batch(batch, batch, spec, rng).lam for _ in range(3)]
        assert lams_a[0] == lams_a[1] == lams_a[2]
        assert lams_b[0] == lams_a[0] and len(set(lams_b)) == 3

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical shapes"):
            mixup_batch((np.zeros((2, 3)), [0, 1]), (np.zeros((3, 3)), [0, 1, 0]),
                        MixupSpec(), np.random.default_rng(0))

    def test_interpolated_loss_contract(self):
        # training loss on a mixed batch must equal the explicit lambda blend
        from longtail_lab import batch_loss_and_grad, loss_plan

        rng = np.random.default_rng(4)
        dist = distribution_from_counts([30, 10, 5])
        plan = loss_plan(LossSpec("balanced_softmax"), dist)
        logits = rng.standard_normal((6, 3))
        ya = rng.integers(0, 3, size=6)
        yb = rng.integers(0, 3, size=6)
        lam = 0.37
        va, ga = batch_loss_and_grad(plan, logits, ya)
        vb, gb = batch_loss_and_grad(plan, logits, yb)
        blended = lam * va + (1 - lam) * vb
        for i in range(6):
            direct = (lam * batch_loss_and_grad(plan, logits[i:i + 1], ya[i:i + 1])[0]
                      + (1 - lam) * batch_loss_and_grad(plan, logits[i:i + 1], yb[i:i + 1])[0])
            assert abs(blended[i] - direct[0]) < 1e-12

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            MixupSpec(alpha=0.0)
