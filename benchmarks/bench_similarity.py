"""Table 1 hot-path bench: the bit-parallel edit distance vs the two-row DP.

``build_table1`` spends nearly all its time in the Appendix-A best-match
search, one edit distance per (source tag, candidate tag) comparison. The
search runs :func:`~repro.webdoc.similarity._bit_parallel_distance` (Myers'
bit-vector algorithm on Python ints, the source tag as the pattern). This
bench builds Table 1 at the tier-1 test's size twice: once through the
kernel, once with every distance computed by
:func:`~repro.webdoc.similarity.levenshtein_reference` under the same
pruning. It pins both claims at the repo root in ``BENCH_similarity.json``:

* **speedup** — Table 1 through the kernel must be >= 10x faster than
  through the DP;
* **equivalence** — every Table 1 row must be identical across the two
  paths, medians compared bitwise.

Run directly (no pytest-benchmark required)::

    PYTHONPATH=src:benchmarks pytest benchmarks/bench_similarity.py -s
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import emit

import repro.webdoc.similarity as similarity
from repro.analysis import build_table1
from repro.webdoc.similarity import levenshtein_reference

REPO_ROOT = Path(__file__).resolve().parents[1]

BENCH_SCHEMA = "repro.webdoc/bench_similarity.v1"
BENCH_SEED = 5
SITES_PER_CLASS = 6
MAX_PAIRS = 20
MIN_SPEEDUP = 10.0


@contextmanager
def _counted_distances(reference: bool):
    """Count the best-match search's distance calls; with ``reference``,
    answer each from the DP instead of the kernel (the "masks" handed to
    the distance are then the source tag itself)."""
    calls = [0]
    masks, distance = similarity._match_masks, similarity._bit_parallel_distance

    def counted(peq, m, text):
        calls[0] += 1
        return levenshtein_reference(peq, text) if reference else distance(peq, m, text)

    if reference:
        similarity._match_masks = lambda tag: tag
    similarity._bit_parallel_distance = counted
    try:
        yield calls
    finally:
        similarity._match_masks, similarity._bit_parallel_distance = masks, distance


def _timed_table1(reference: bool):
    with _counted_distances(reference) as calls:
        start = time.perf_counter()
        rows = build_table1(
            seed=BENCH_SEED, sites_per_class=SITES_PER_CLASS, max_pairs=MAX_PAIRS
        )
        seconds = time.perf_counter() - start
    return seconds, calls[0], [(r.fwb, r.n_sites, r.median_similarity) for r in rows]


def test_bit_parallel_table1_beats_dp_reference():
    kernel_s, kernel_calls, kernel_rows = _timed_table1(reference=False)
    reference_s, reference_calls, reference_rows = _timed_table1(reference=True)

    identical = kernel_rows == reference_rows and kernel_calls == reference_calls
    assert identical, "Table 1 through the kernel diverges from the DP reference"
    speedup = reference_s / kernel_s if kernel_s > 0 else float("inf")
    assert speedup >= MIN_SPEEDUP, (
        f"bit-parallel Table 1 only {speedup:.1f}x over the DP "
        f"(bar: {MIN_SPEEDUP:.0f}x)"
    )

    payload = {
        "schema": BENCH_SCHEMA,
        "config": {
            "seed": BENCH_SEED,
            "sites_per_class": SITES_PER_CLASS,
            "max_pairs": MAX_PAIRS,
            "min_speedup": MIN_SPEEDUP,
        },
        "table1": {
            "n_distances": kernel_calls,
            "kernel_seconds": kernel_s,
            "kernel_us_per_distance": 1e6 * kernel_s / kernel_calls,
            "reference_seconds": reference_s,
            "reference_us_per_distance": 1e6 * reference_s / kernel_calls,
            "speedup": speedup,
        },
        "rows": [[fwb, n_sites, median] for fwb, n_sites, median in kernel_rows],
        "rows_identical": identical,
    }
    out = REPO_ROOT / "BENCH_similarity.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    emit(
        "Throughput — bit-parallel edit distance (Table 1)",
        "\n".join([
            f"Table 1 ({SITES_PER_CLASS} sites/class, {MAX_PAIRS} pairs, seed "
            f"{BENCH_SEED}): {kernel_s:.2f} s bit-parallel vs {reference_s:.2f} s "
            f"DP ({speedup:.1f}x, {kernel_calls:,} distances, rows identical)",
            f"per distance: {1e6 * kernel_s / kernel_calls:,.1f} us vs "
            f"{1e6 * reference_s / kernel_calls:,.1f} us",
            f"wrote {out.name}",
        ]),
    )
