"""The four Table-2 comparison detectors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BaseStackModelDetector,
    PhishIntentionDetector,
    URLNetDetector,
    VisualPhishNetDetector,
)
from repro.baselines.visualphishnet import pairwise_distances
from repro.errors import NotFittedError
from repro.ml import train_test_split
from repro.simnet import Browser
from repro.simnet.browser import PageSnapshot
from repro.webdoc import Document, Element, VisualSignature
from repro.webdoc.render import SIGNATURE_DIM


@pytest.fixture(scope="module")
def split(ground_truth):
    indices = np.arange(len(ground_truth.pages))
    tr, te, ytr, yte = train_test_split(
        indices.reshape(-1, 1), ground_truth.labels, test_size=0.3, random_state=5
    )
    train_pages = [ground_truth.pages[int(i)] for i in tr.ravel()]
    test_pages = [ground_truth.pages[int(i)] for i in te.ravel()]
    return train_pages, ytr, test_pages, yte


def _accuracy(detector, test_pages, yte):
    predictions = np.array([detector.predict_page(p) for p in test_pages])
    return float(np.mean(predictions == yte))


class TestURLNet:
    def test_learns_strong_lexical_signal(self):
        """On URLs with a clean token signal the CNN learns the boundary."""
        rng = np.random.default_rng(0)
        words = ["sunny", "maple", "corner", "happy", "blue", "craft"]
        benign = [
            f"https://{words[i % 6]}{i}.example.com/" for i in range(120)
        ]
        phish = [
            f"https://{words[i % 6]}{i}-login-verify.example.com/"
            for i in range(120)
        ]
        urls = benign + phish
        labels = np.array([0] * 120 + [1] * 120)
        order = rng.permutation(len(urls))
        urls = [urls[i] for i in order]
        labels = labels[order]
        detector = URLNetDetector(epochs=30, random_state=1)
        detector.fit_urls(urls[:180], labels[:180])
        probs = detector.predict_proba_urls(urls[180:])
        accuracy = np.mean((probs >= 0.5) == labels[180:])
        assert accuracy > 0.85

    def test_encoding_fixed_length(self):
        from repro.baselines.urlnet import encode_url

        encoded = encode_url("https://example.com/", max_len=30)
        assert encoded.shape == (30,)
        assert encode_url("x" * 500, max_len=30).shape == (30,)

    def test_unfitted_raises(self, split):
        _tr, _ytr, test_pages, _yte = split
        with pytest.raises(NotFittedError):
            URLNetDetector().predict_page(test_pages[0])

    def test_probabilities_bounded(self, split):
        train_pages, ytr, test_pages, _ = split
        detector = URLNetDetector(epochs=3, random_state=1)
        detector.fit_pages(train_pages, ytr)
        probs = detector.predict_proba_urls([str(p.url) for p in test_pages])
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_training_reduces_loss(self):
        """More epochs fit a clean lexical boundary better."""
        urls = [f"https://benign{i}.example.com/" for i in range(60)]
        urls += [f"https://verify-login{i}.example.com/" for i in range(60)]
        labels = np.array([0] * 60 + [1] * 60)
        few = URLNetDetector(epochs=1, random_state=1).fit_urls(urls, labels)
        many = URLNetDetector(epochs=30, random_state=1).fit_urls(urls, labels)
        acc_few = np.mean((few.predict_proba_urls(urls) >= 0.5) == labels)
        acc_many = np.mean((many.predict_proba_urls(urls) >= 0.5) == labels)
        assert acc_many >= acc_few
        assert acc_many > 0.9


class TestVisualPhishNet:
    def test_gallery_covers_catalog(self):
        detector = VisualPhishNetDetector()
        detector.build_gallery()
        assert len(detector._gallery) == 109

    def test_fit_and_reasonable_accuracy(self, split):
        train_pages, ytr, test_pages, yte = split
        detector = VisualPhishNetDetector(random_state=2)
        detector.fit_pages(train_pages, ytr)
        accuracy = _accuracy(detector, test_pages, yte)
        assert accuracy > 0.6

    def test_brand_own_domain_not_flagged(self, split, web, rng):
        """A page visually matching a brand but on its real domain is fine."""
        train_pages, ytr, _te, _yte = split
        detector = VisualPhishNetDetector(random_state=2)
        detector.fit_pages(train_pages, ytr)
        from repro.baselines.visualphishnet import _brand_login_markup
        from repro.core.preprocess import Preprocessor
        from repro.sitegen.templates import TemplateLibrary

        brand = detector.catalog.by_slug("paypaul")
        markup = _brand_login_markup(brand, TemplateLibrary(), rng)
        # Host the page at whatever brand the matcher deems nearest, so the
        # own-domain exemption is what decides the verdict.
        from repro.webdoc import render_signature

        slug, legit_domain, _dist = detector._nearest_brand(
            render_signature(markup)
        )
        site = web.self_hosting.create_site(
            legit_domain, owner=slug, now=0, registered_at=-10 ** 7
        )
        site.add_page("/", markup)
        page = Preprocessor(web).process(site.root_url, 5)
        assert detector.predict_page(page) == 0

    def test_unfitted_raises(self, split):
        with pytest.raises(NotFittedError):
            VisualPhishNetDetector().predict_page(split[2][0])


def _margins(detector, pages, reference=False):
    margin = detector.page_margin_reference if reference else detector.page_margin
    return np.asarray([margin(page) for page in pages])


def _fit_both(detector_kwargs, pages, labels):
    """One detector fitted through ``page_margin``, one through the
    per-signature reference."""
    fast = VisualPhishNetDetector(**detector_kwargs).fit_pages(pages, labels)
    reference = VisualPhishNetDetector(**detector_kwargs)
    reference.page_margin = reference.page_margin_reference
    reference.fit_pages(pages, labels)
    return fast, reference


class TestVisualPhishNetMargins:
    """The stacked margin path against its per-signature reference."""

    @pytest.mark.parametrize("random_state", [0, 2, 7])
    def test_page_margin_bit_identical_to_reference(self, ground_truth, random_state):
        pages, labels = ground_truth.pages, ground_truth.labels
        fast, reference = _fit_both({"random_state": random_state}, pages, labels)
        assert fast._threshold == reference._threshold
        margins = _margins(fast, pages)
        assert margins.tobytes() == _margins(fast, pages, reference=True).tobytes()

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_labels(self, ground_truth, label):
        """No phishing references, or no benign ones (the -brand branch)."""
        pages = ground_truth.pages[::4]
        labels = np.full(len(pages), label)
        fast, reference = _fit_both({"random_state": 3}, pages, labels)
        assert (fast._benign_refs == []) == (label == 1)
        assert (fast._phish_refs == []) == (label == 0)
        assert fast._threshold == reference._threshold
        margins = _margins(fast, pages)
        assert margins.tobytes() == _margins(fast, pages, reference=True).tobytes()

    def test_empty_catalog(self, ground_truth):
        """No gallery: the reference's nearest brand is at ``inf``, and the
        stacked minimum over an empty axis must give the same."""
        pages, labels = ground_truth.pages[::4], ground_truth.labels[::4]
        assert set(labels.tolist()) == {0, 1}
        # BrandCatalog rejects an empty brand list; any empty iterable works.
        fast, reference = _fit_both({"catalog": [], "random_state": 3}, pages, labels)
        assert fast._gallery == [] and fast._gallery_matrix.shape == (0, SIGNATURE_DIM)
        assert fast._threshold == reference._threshold
        margins = _margins(fast, pages)
        assert margins.tobytes() == _margins(fast, pages, reference=True).tobytes()
        # Benign references only: nothing on the brand side at all.
        benign_only = VisualPhishNetDetector(catalog=[], random_state=3)
        # Every training margin is -inf, so the threshold search's
        # quantiles are NaN; only the margins are under test here.
        with np.errstate(invalid="ignore"):
            benign_only.fit_pages(pages, np.zeros(len(pages), dtype=np.int64))
        margin = benign_only.page_margin(pages[0])
        assert margin == benign_only.page_margin_reference(pages[0]) == -np.inf

    def test_page_without_regions(self, ground_truth):
        """A page whose DOM has no qualifying region scores its signature only."""
        pages, labels = ground_truth.pages, ground_truth.labels
        detector = VisualPhishNetDetector(random_state=2).fit_pages(pages, labels)
        bare = dataclasses.replace(
            pages[0],
            snapshot=PageSnapshot(
                url=pages[0].url, fetched_at=0, markup="",
                document=Document(root=Element("html")), certificate=None,
            ),
        )
        assert bare.snapshot.regions == []
        assert detector.page_margin(bare) == detector.page_margin_reference(bare)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        exponent=st.integers(-8, 8),
        n_queries=st.integers(1, 13),
        n_profiles=st.integers(0, 30),
    )
    def test_pairwise_distances_match_signature_distance(
        self, seed, exponent, n_queries, n_profiles
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** exponent

        def vectors(n):
            return rng.normal(size=(n, SIGNATURE_DIM)) * scale * rng.uniform(
                0.1, 10.0, size=(n, 1)
            )

        queries, profiles = vectors(n_queries), vectors(n_profiles)
        distances = pairwise_distances(queries, profiles)
        expected = np.array(
            [
                [VisualSignature(q).distance(VisualSignature(p)) for p in profiles]
                for q in queries
            ]
        ).reshape(n_queries, n_profiles)
        assert distances.tobytes() == expected.tobytes()


class TestPhishIntention:
    def test_high_accuracy_including_evasive(self, split, ground_truth):
        train_pages, ytr, test_pages, yte = split
        detector = PhishIntentionDetector(Browser(ground_truth.web), random_state=2)
        detector.fit_pages(train_pages, ytr)
        accuracy = _accuracy(detector, test_pages, yte)
        assert accuracy > 0.9

    def test_dynamic_phase_catches_two_step(self, ground_truth):
        """Pages whose credentials live one hop away are still flagged."""
        two_step_indices = [
            i for i, v in enumerate(ground_truth.variants) if v == "two_step"
        ]
        if not two_step_indices:
            pytest.skip("no two-step samples in this ground truth draw")
        detector = PhishIntentionDetector(Browser(ground_truth.web), random_state=2)
        detector.fit_pages(ground_truth.pages, ground_truth.labels)
        caught = sum(
            detector.predict_page(ground_truth.pages[i]) for i in two_step_indices
        )
        assert caught >= len(two_step_indices) * 0.6


class TestBaseStackModel:
    def test_uses_base_features(self, split):
        train_pages, ytr, test_pages, yte = split
        detector = BaseStackModelDetector(n_estimators=15, random_state=3)
        detector.fit_pages(train_pages, ytr)
        accuracy = _accuracy(detector, test_pages, yte)
        assert accuracy > 0.8

    def test_batch_prediction_matches_single(self, split):
        train_pages, ytr, test_pages, _ = split
        detector = BaseStackModelDetector(n_estimators=10, random_state=3)
        detector.fit_pages(train_pages, ytr)
        batch = detector.predict_pages(test_pages[:10])
        singles = [detector.predict_page(p) for p in test_pages[:10]]
        assert batch.tolist() == singles

    def test_unfitted_raises(self, split):
        with pytest.raises(NotFittedError):
            BaseStackModelDetector().predict_page(split[2][0])
