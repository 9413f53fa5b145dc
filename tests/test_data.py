import numpy as np
import pytest

from sea_ensemble.data import (
    CLASSIFICATION,
    Dataset,
    LibsvmParseError,
    NormStats,
    encode_classification,
    kfold_split,
    parse_libsvm,
    serialize_libsvm,
    standardize,
    synth_regression,
)


class TestParseLibsvm:
    def test_single_line(self):
        ds = parse_libsvm("2.5 1:0.5 3:-1.2\n")
        assert ds.n_samples == 1
        np.testing.assert_array_equal(ds.targets, [[2.5]])
        np.testing.assert_array_equal(ds.features, [[0.5, 0.0, -1.2]])

    def test_two_lines_sparse(self):
        ds = parse_libsvm("1 2:1\n-1 1:1\n")
        np.testing.assert_array_equal(ds.targets[:, 0], [1.0, -1.0])
        np.testing.assert_array_equal(ds.features, [[0.0, 1.0], [1.0, 0.0]])

    def test_non_numeric_value_reports_line(self):
        with pytest.raises(LibsvmParseError, match="line 1"):
            parse_libsvm("3 1:x\n")

    def test_non_increasing_index(self):
        with pytest.raises(LibsvmParseError, match="strictly increasing"):
            parse_libsvm("1 2:1 2:3\n")

    def test_index_below_one(self):
        with pytest.raises(LibsvmParseError, match="< 1"):
            parse_libsvm("1 0:1\n")

    # float() reads each of these, and 1e400 overflows to inf
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("where", ["label", "value"])
    def test_non_finite_reports_line(self, where, bad):
        line = f"{bad} 1:0.5" if where == "label" else f"1 1:{bad}"
        with pytest.raises(LibsvmParseError, match=f"^line 2: non-finite {where} ") as info:
            parse_libsvm(f"1 1:0.5\n{line}\n2 1:1\n")
        assert info.value.line_no == 2

    def test_empty_input(self):
        with pytest.raises(LibsvmParseError, match="empty"):
            parse_libsvm("\n\n")

    def test_n_features_pads(self):
        ds = parse_libsvm("1 1:2\n", n_features=4)
        assert ds.n_features == 4

    def test_blank_lines_skipped(self):
        ds = parse_libsvm("1 1:1\n\n2 1:2\n")
        assert ds.n_samples == 2

    def test_roundtrip_identical(self):
        rng = np.random.default_rng(3)
        feats = rng.normal(size=(20, 6))
        feats[rng.random(size=feats.shape) < 0.3] = 0.0  # sparsity exercises omission
        ds = Dataset("rt", feats, rng.normal(size=20))
        text = serialize_libsvm(ds)
        back = parse_libsvm(text, n_features=ds.n_features, name="rt")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.targets, ds.targets)


class TestStandardize:
    def test_two_point_column(self):
        ds = Dataset("x", np.array([[2.0], [4.0]]), np.array([0.0, 0.0]))
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.features, [[-1.0], [1.0]])
        assert stats.feature_mean[0] == 3.0 and stats.feature_std[0] == 1.0

    def test_constant_column_untouched(self):
        ds = Dataset("x", np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros(3))
        out, _ = standardize(ds)
        np.testing.assert_array_equal(out.features[:, 0], [5.0, 5.0, 5.0])

    def test_refit_equals_apply(self):
        ds = synth_regression(50, 0.2, 0)
        fresh, stats = standardize(ds)
        applied, _ = standardize(ds, stats)
        np.testing.assert_array_equal(fresh.features, applied.features)
        np.testing.assert_array_equal(fresh.targets, applied.targets)

    def test_fitted_moments(self):
        rng = np.random.default_rng(11)
        ds = Dataset("m", rng.normal(3.0, 2.5, size=(200, 4)), rng.normal(size=200))
        out, _ = standardize(ds)
        assert np.abs(out.features.mean(axis=0)).max() < 1e-10
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-10)
        assert abs(out.targets.mean()) < 1e-10
        np.testing.assert_allclose(out.targets.std(), 1.0, atol=1e-10)

    def test_classification_targets_untouched(self):
        feats = np.array([[1.0], [2.0], [3.0]])
        targs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        ds = Dataset("c", feats, targs, task=CLASSIFICATION)
        out, stats = standardize(ds)
        np.testing.assert_array_equal(out.targets, targs)
        assert stats.target_mean is None

    def test_dimension_mismatch(self):
        ds = Dataset("x", np.ones((3, 2)), np.zeros(3))
        bad = NormStats(np.zeros(5), np.ones(5), np.zeros(1), np.ones(1))
        with pytest.raises(ValueError, match="features"):
            standardize(ds, bad)

    # finite entries, non-finite standardized values: refused once per call, where they arise
    def test_overflowing_fit_rejected(self):
        for feats, targs in [(np.full((4, 1), 1e308), np.zeros(4)), (np.ones((4, 1)), np.full(4, -1e308))]:
            with pytest.raises(ValueError, match="not finite"):
                standardize(Dataset("big", feats, targs))

    def test_overflowing_test_fold_rejected(self):
        _, stats = standardize(Dataset("train", np.array([[0.0], [0.2]]), np.zeros(2)))
        with pytest.raises(ValueError, match="not finite"):
            standardize(Dataset("test", np.array([[1e308]]), np.zeros(1)), stats)


class TestOneHot:
    """encode_classification maps the distinct raw labels, ascending, onto the rows of the identity."""

    @staticmethod
    def encode(labels) -> np.ndarray:
        ds = Dataset("labels", np.zeros((len(labels), 1)), np.asarray(labels, dtype=np.float64))
        return encode_classification(ds).targets

    def test_basic(self):
        np.testing.assert_array_equal(self.encode([0, 2, 1]), [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_single(self):
        np.testing.assert_array_equal(self.encode([1]), [[1]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 7, size=500)
        oh = self.encode(labels)
        assert (oh.sum(axis=1) == 1.0).all()
        np.testing.assert_array_equal(oh.argmax(axis=1), labels)

    def test_any_label_values_encode_in_range(self):
        # negative, fractional and large raw labels: ids come from their sorted distinct values
        np.testing.assert_array_equal(self.encode([1e9, -3.5, 0.25, -3.5]),
                                      [[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 0, 0]])

    def test_label_remap_sorted(self):
        ds = parse_libsvm("-1 1:1\n1 1:2\n-1 1:3\n")
        enc = encode_classification(ds)
        assert enc.n_outputs == 2
        np.testing.assert_array_equal(enc.targets, [[1, 0], [0, 1], [1, 0]])


class TestKfold:
    def test_even_split(self):
        split = kfold_split(10, 5, 0)
        assert [len(f) for f in split.folds] == [2, 2, 2, 2, 2]

    def test_partition_property(self):
        for n in (7, 53, 1000):
            split = kfold_split(n, 5, seed=n)
            combined = np.sort(np.concatenate(split.folds))
            np.testing.assert_array_equal(combined, np.arange(n))
            sizes = [len(f) for f in split.folds]
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = kfold_split(37, 4, 9)
        b = kfold_split(37, 4, 9)
        for fa, fb in zip(a.folds, b.folds):
            np.testing.assert_array_equal(fa, fb)

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            kfold_split(3, 5, 0)

    def test_too_few_folds(self):
        with pytest.raises(ValueError):
            kfold_split(10, 1, 0)

    def test_train_test_complement(self):
        split = kfold_split(23, 5, 2)
        for f in range(5):
            both = np.sort(np.concatenate([split.train_indices(f), split.test_indices(f)]))
            np.testing.assert_array_equal(both, np.arange(23))


class TestSynth:
    def test_zero_noise_exact(self):
        ds = synth_regression(64, 0.0, 123)
        x = ds.features
        expected = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1] ** 2
        np.testing.assert_array_equal(ds.targets[:, 0], expected)

    def test_deterministic(self):
        a = synth_regression(100, 0.1, 77)
        b = synth_regression(100, 0.1, 77)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_feature_range(self):
        ds = synth_regression(500, 0.0, 1)
        assert ds.features.min() >= -1.0 and ds.features.max() <= 1.0


class TestDatasetInvariants:
    def test_arrays_frozen(self):
        ds = synth_regression(5, 0.0, 0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0
