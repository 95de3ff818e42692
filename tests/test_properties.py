"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import hhmm_to_minutes, minutes_to_hhmm
from repro.errors import URLError
from repro.ml import DecisionTreeRegressor
from repro.ml.metrics import accuracy_score, confusion_matrix, f1_score
from repro.simnet.url import URL, extract_urls, parse_url
from repro.webdoc import levenshtein, levenshtein_ratio, parse_html
from repro.webdoc.similarity import _best_match_ratio, levenshtein_reference
from repro.webdoc.render import render_signature

# -- strategies ---------------------------------------------------------------

_label = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=8
)
_host = st.builds(
    lambda parts: ".".join(parts),
    st.lists(_label, min_size=2, max_size=4),
)
_path = st.builds(
    lambda parts: "/" + "/".join(parts),
    st.lists(_label, min_size=0, max_size=3),
)
_url_text = st.builds(
    lambda scheme, host, path: f"{scheme}://{host}{path}",
    st.sampled_from(["http", "https"]),
    _host,
    _path,
)

_short_text = st.text(
    alphabet="abcdefghij <>/=\"'", min_size=0, max_size=60
)


class TestUrlProperties:
    @given(_url_text)
    def test_parse_str_roundtrip(self, text):
        url = parse_url(text)
        assert parse_url(str(url)) == url

    @given(_url_text)
    def test_registered_domain_is_host_suffix(self, text):
        url = parse_url(text)
        assert url.host.endswith(url.registered_domain)
        assert url.registered_domain.endswith(url.tld)

    @given(_url_text)
    def test_subdomain_plus_registered_reconstructs_host(self, text):
        url = parse_url(text)
        if url.subdomain:
            assert f"{url.subdomain}.{url.registered_domain}" == url.host
        else:
            assert url.host == url.registered_domain

    @given(st.text(max_size=120))
    def test_extract_urls_never_raises(self, text):
        for url in extract_urls(text):
            assert isinstance(url, URL)

    @given(_url_text, st.text(alphabet="abc !?", max_size=20))
    def test_extracted_from_padding(self, url_text, padding):
        found = extract_urls(f"{padding} {url_text} {padding}")
        assert any(u.host == parse_url(url_text).host for u in found)


class TestLevenshteinProperties:
    @given(st.text(max_size=40), st.text(max_size=40))
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(max_size=40))
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(st.text(max_size=30), st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=40)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_bounds(self, a, b):
        distance = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_ratio_in_unit_interval(self, a, b):
        assert 0.0 <= levenshtein_ratio(a, b) <= 1.0

    @given(st.text(max_size=100), st.text(max_size=100))
    @settings(max_examples=150)
    def test_matches_dp_reference(self, a, b):
        assert levenshtein(a, b) == levenshtein_reference(a, b)

    @given(st.text(alphabet="ab<>", max_size=100),
           st.text(alphabet="ab<>", max_size=100))
    @settings(max_examples=150)
    def test_matches_dp_reference_small_alphabet(self, a, b):
        assert levenshtein(a, b) == levenshtein_reference(a, b)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 100])
    def test_matches_dp_reference_at_word_boundaries(self, m):
        rng = np.random.default_rng(m)
        for n in (0, 1, m - 1, m, m + 1, 100):
            for alphabet in ("ab", "abcdefgh<>=\" é漢"):
                chars = list(alphabet)
                pattern = "".join(rng.choice(chars, size=m))
                text = "".join(rng.choice(chars, size=n))
                assert levenshtein(pattern, text) == levenshtein_reference(pattern, text)
                assert levenshtein(text, pattern) == levenshtein_reference(text, pattern)
        assert levenshtein("a" * m, "") == m
        assert levenshtein("a" * m, "b" * m) == m
        assert levenshtein("a" * m, "a" * (m - 1) + "b") == 1

    @given(st.text(alphabet="ab<>= d", max_size=30),
           st.lists(st.text(alphabet="ab<>= d", max_size=30), min_size=1, max_size=12))
    @settings(max_examples=150)
    def test_best_match_ratio_is_brute_force_max(self, tag, candidates):
        lengths = np.asarray([len(c) for c in candidates])
        brute = max(
            1.0 - levenshtein_reference(tag, c) / max(len(tag), len(c), 1)
            for c in candidates
        )
        assert _best_match_ratio(tag, candidates, lengths) == brute


class TestParserProperties:
    @given(_short_text)
    @settings(max_examples=60)
    def test_parse_never_raises_on_text(self, text):
        document = parse_html(text)
        assert document.root.tag == "html"

    @given(_short_text)
    @settings(max_examples=40)
    def test_serialized_output_reparses(self, text):
        document = parse_html(text)
        again = parse_html(document.to_html())
        assert again.root.tag == "html"

    @given(_short_text)
    @settings(max_examples=40)
    def test_signature_finite(self, text):
        signature = render_signature(parse_html(text))
        assert np.isfinite(signature.vector).all()


class TestTimeProperties:
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_hhmm_roundtrip(self, minutes):
        assert hhmm_to_minutes(minutes_to_hhmm(minutes)) == minutes


class TestMetricProperties:
    @given(
        st.lists(st.integers(0, 1), min_size=1, max_size=50),
        st.lists(st.integers(0, 1), min_size=1, max_size=50),
    )
    def test_confusion_matrix_sums(self, y_true, y_pred):
        n = min(len(y_true), len(y_pred))
        matrix = confusion_matrix(y_true[:n], y_pred[:n])
        assert matrix.sum() == n
        assert (matrix >= 0).all()

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=50))
    def test_perfect_prediction(self, labels):
        assert accuracy_score(labels, labels) == 1.0
        if 1 in labels:
            assert f1_score(labels, labels) == 1.0


class TestTreeProperties:
    @given(
        st.integers(min_value=5, max_value=60),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_predictions_within_target_range(self, n, depth, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = rng.uniform(-5, 5, size=n)
        tree = DecisionTreeRegressor(max_depth=depth).fit(X, y)
        predictions = tree.predict(X)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_deeper_trees_fit_no_worse(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, 2))
        y = rng.normal(size=60)
        shallow = DecisionTreeRegressor(max_depth=1).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=5).fit(X, y)
        mse_shallow = float(np.mean((shallow.predict(X) - y) ** 2))
        mse_deep = float(np.mean((deep.predict(X) - y) ** 2))
        assert mse_deep <= mse_shallow + 1e-9
