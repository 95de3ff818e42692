"""Cross-counter invariants of ``scripts/validate_telemetry.py``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "validate_telemetry.py"


@pytest.fixture(scope="module")
def validator():
    spec = importlib.util.spec_from_file_location("validate_telemetry", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _document(**counters):
    return {"metrics": {"counters": counters}}


#: A drained serve export: 10 requests, each served and looked up once.
SERVE_OK = {
    "serve.requests": 10,
    "serve.served.cache_exact": 4,
    "serve.served.model": 6,
    "serve.cache.hit.exact": 4,
    "serve.cache.miss": 6,
    "serve.admission.admitted": 6,
}


class TestServeConsistency:
    def test_balanced_counters_pass(self, validator):
        assert validator.serve_consistency(_document(**SERVE_OK)) == []

    def test_campaign_export_skipped(self, validator):
        assert validator.serve_consistency(_document(**{"serve.served.model": 3})) == []

    def test_unserved_request(self, validator):
        counters = dict(SERVE_OK, **{"serve.served.cache_exact": 3})
        assert validator.serve_consistency(_document(**counters)) == [
            "serve: 10 requests but 9 served verdicts "
            "(every request must be served exactly once)"
        ]

    def test_missing_lookup(self, validator):
        counters = dict(SERVE_OK, **{"serve.cache.miss": 5})
        assert validator.serve_consistency(_document(**counters)) == [
            "serve: 10 requests but 9 cache hits+misses "
            "(every request does one tiered lookup)"
        ]

    def test_admissions_exceed_model_verdicts(self, validator):
        counters = dict(SERVE_OK, **{"serve.admission.degraded": 1})
        assert validator.serve_consistency(_document(**counters)) == [
            "serve: 7 admission decisions exceed 6 model-layer verdicts"
        ]


CACHE_OK = {
    "preprocess.cache.hit": 2,
    "preprocess.cache.miss": 5,
    "preprocess.cache.evicted": 5,
    "classify.batch.calls": 3,
    "classify.batch.rows": 3,
}


class TestCacheConsistency:
    def test_balanced_counters_pass(self, validator):
        assert validator.cache_consistency(_document(**CACHE_OK)) == []

    def test_eviction_without_insert(self, validator):
        counters = dict(CACHE_OK, **{"preprocess.cache.evicted": 6})
        assert validator.cache_consistency(_document(**counters)) == [
            "cache: preprocess.cache.evicted=6 exceeds "
            "preprocess.cache.miss=5 (evictions require prior inserts)"
        ]

    def test_empty_batch(self, validator):
        counters = dict(CACHE_OK, **{"classify.batch.calls": 4})
        assert validator.cache_consistency(_document(**counters)) == [
            "cache: classify.batch.calls=4 exceeds "
            "classify.batch.rows=3 (batches cannot be empty)"
        ]
