"""Unit tests for repro.utils.rand and repro.utils.zipf."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rand import derive_rng, derive_seed, ensure_rng
from repro.utils.zipf import (
    fit_heaps,
    fit_zipf,
    heaps_vocabulary_size,
    zipf_cdf,
    zipf_probabilities,
)


class TestEnsureRng:
    def test_int_seed_reproducible(self):
        assert ensure_rng(42).integers(1000) == ensure_rng(42).integers(1000)

    def test_generator_passes_through(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_labels_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_parent_seed_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_label_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_integer_labels_supported(self):
        assert derive_seed(1, 5) == derive_seed(1, "5")

    def test_derive_rng_streams_independent(self):
        a = derive_rng(7, "x").random(5)
        b = derive_rng(7, "y").random(5)
        assert not np.allclose(a, b)


class TestZipfProbabilities:
    def test_sums_to_one(self):
        assert zipf_probabilities(100).sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        probs = zipf_probabilities(50, exponent=1.0)
        assert np.all(np.diff(probs) <= 0)

    def test_exponent_zero_is_uniform(self):
        probs = zipf_probabilities(10, exponent=0.0)
        assert np.allclose(probs, 0.1)

    def test_classic_ratio(self):
        # Under s=1, rank 1 is twice as likely as rank 2.
        probs = zipf_probabilities(1000, exponent=1.0)
        assert probs[0] / probs[1] == pytest.approx(2.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            zipf_probabilities(10, exponent=-1.0)

    def test_cdf_last_is_one(self):
        assert zipf_cdf(20)[-1] == pytest.approx(1.0)


class TestHeaps:
    def test_prediction_monotone(self):
        sizes = [heaps_vocabulary_size(n) for n in (0, 100, 10_000, 1_000_000)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 0

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            heaps_vocabulary_size(-1)

    def test_fit_recovers_parameters(self):
        tokens = np.logspace(2, 6, 20)
        vocab = 25.0 * tokens**0.55
        k, beta = fit_heaps(tokens, vocab)
        assert k == pytest.approx(25.0, rel=1e-6)
        assert beta == pytest.approx(0.55, rel=1e-6)

    def test_fit_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_heaps(np.arange(5), np.arange(4))


class TestFitZipf:
    def test_recovers_exponent_from_exact_power_law(self):
        ranks = np.arange(1, 2000)
        frequencies = 1e6 * ranks**-1.1
        exponent, r_squared = fit_zipf(frequencies)
        assert exponent == pytest.approx(1.1, abs=0.01)
        assert r_squared > 0.999

    def test_skip_top_ignores_outliers(self):
        ranks = np.arange(1, 1000)
        frequencies = 1e6 * ranks**-1.0
        frequencies[0] *= 100  # distorted head
        exponent, _ = fit_zipf(frequencies, skip_top=5)
        assert exponent == pytest.approx(1.0, abs=0.02)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_zipf(np.array([5.0, 1.0]))
