"""VisualPhishNet margin bench: one distance matrix per page vs the scalar loop.

VisualPhishNet scores a page by its best triplet-style margin over the page
signature and its salient regions, each compared against the brand
gallery and the phishing and benign reference sets. ``page_margin`` stacks
a page's signatures into one matrix and scores it against each set in one
call; ``page_margin_reference`` compares one signature with one profile at
a time. This bench fits VisualPhishNet on the bench corpus, through both
paths, then times margin matching alone over every page, with the regions
already rendered (the fit renders and memoizes them). It pins both claims
at the repo root in ``BENCH_visual.json``:

* **speedup** — stacked margin matching must be >= 8x faster than the
  per-signature loop;
* **equivalence** — every page's margin must be bit-identical across the
  two paths, and so must the fitted decision threshold.

Run directly (no pytest-benchmark required)::

    PYTHONPATH=src:benchmarks pytest benchmarks/bench_visual.py -s
"""

import json
import time
from pathlib import Path

import numpy as np
from conftest import emit

from repro.baselines import VisualPhishNetDetector

REPO_ROOT = Path(__file__).resolve().parents[1]

BENCH_SCHEMA = "repro.baselines/bench_visual.v1"
RANDOM_STATE = 7
MIN_SPEEDUP = 8.0


def _timed_margins(margin, pages):
    start = time.perf_counter()
    margins = np.asarray([margin(page) for page in pages])
    return time.perf_counter() - start, margins


def test_stacked_margins_beat_per_signature_reference(bench_ground_truth):
    pages, labels = bench_ground_truth.pages, bench_ground_truth.labels
    detector = VisualPhishNetDetector(random_state=RANDOM_STATE)
    detector.fit_pages(pages, labels)
    reference = VisualPhishNetDetector(random_state=RANDOM_STATE)
    reference.page_margin = reference.page_margin_reference
    reference.fit_pages(pages, labels)

    stacked_s, stacked = _timed_margins(detector.page_margin, pages)
    reference_s, scalar = _timed_margins(detector.page_margin_reference, pages)

    identical = (
        stacked.tobytes() == scalar.tobytes()
        and detector._threshold == reference._threshold
    )
    assert identical, "stacked margins diverge from the per-signature reference"
    speedup = reference_s / stacked_s if stacked_s > 0 else float("inf")
    assert speedup >= MIN_SPEEDUP, (
        f"stacked margins only {speedup:.1f}x over the per-signature loop "
        f"(bar: {MIN_SPEEDUP:.0f}x)"
    )

    signatures = sum(1 + len(page.snapshot.regions) for page in pages)
    profiles = len(detector._gallery) + len(detector._phish_refs) + len(detector._benign_refs)
    payload = {
        "schema": BENCH_SCHEMA,
        "config": {
            "pages": len(pages),
            "random_state": RANDOM_STATE,
            "min_speedup": MIN_SPEEDUP,
        },
        "margins": {
            "n_signatures": signatures,
            "n_profiles": profiles,
            "stacked_seconds": stacked_s,
            "stacked_us_per_page": 1e6 * stacked_s / len(pages),
            "reference_seconds": reference_s,
            "reference_us_per_page": 1e6 * reference_s / len(pages),
            "speedup": speedup,
        },
        "threshold": detector._threshold,
        "identical": identical,
    }
    out = REPO_ROOT / "BENCH_visual.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    emit(
        "Throughput — VisualPhishNet margin matching",
        "\n".join([
            f"{len(pages)} pages, {signatures:,} signatures x {profiles} profiles: "
            f"{stacked_s:.3f} s stacked vs {reference_s:.3f} s per-signature "
            f"({speedup:.1f}x, margins and threshold identical)",
            f"wrote {out.name}",
        ]),
    )
