"""VirusTotal hot-path bench: the vectorized engine fleet vs the per-engine loop.

``VirusTotal.scan`` scores a URL once, at first sight, through
:class:`~repro.ecosystem.engines.EngineFleet` (all 76 engines in numpy, the
first draw of every (engine, URL) stream computed in one kernel) and keeps
one detection-time array per URL. This bench replays a seeded campaign's URL
mix — every tracked URL first seen when the campaign saw it, then rescanned
at the monitor's sample offsets — through ``scan`` and through
``scan_reference`` (one ``DetectionEngine.evaluate`` per engine), and pins
both claims at the repo root in ``BENCH_vt.json``:

* **speedup** — first sight through the fleet must be >= 3x faster than
  the per-engine loop;
* **equivalence** — every report (positives, engine names in fleet order)
  must be identical across the two paths, first sight and rescans alike.

Intel is gathered by the campaign beforehand, so both paths time the
engines alone. Run directly (no pytest-benchmark required)::

    PYTHONPATH=src:benchmarks pytest benchmarks/bench_vt_scan.py -s
"""

import json
import time
from pathlib import Path

from conftest import emit

from repro.config import SeedBank, SimulationConfig
from repro.core.monitor import VT_SAMPLE_OFFSETS
from repro.ecosystem import VirusTotal, default_engine_fleet
from repro.sim import CampaignWorld
from repro.simnet.url import parse_url

REPO_ROOT = Path(__file__).resolve().parents[1]

BENCH_SCHEMA = "repro.ecosystem/bench_vt.v1"
BENCH_SEED = 20231024
BENCH_DAYS = 2
BENCH_TARGET = 350
MIN_SPEEDUP = 3.0


def _report_key(report):
    return (report.scanned_at, report.positives, tuple(report.engines))


def _timed_pass(scan, scans):
    start = time.perf_counter()
    keys = [_report_key(scan(url, now)) for url, now in scans]
    return time.perf_counter() - start, keys


def test_fleet_scan_beats_per_engine_reference():
    config = SimulationConfig(
        seed=BENCH_SEED, duration_days=BENCH_DAYS, target_fwb_phishing=BENCH_TARGET
    )
    world = CampaignWorld(config, train_samples_per_class=60)
    result = world.run()
    first_sight = [(parse_url(t.url), t.first_seen) for t in result.timelines]
    assert [str(url) for url, _ in first_sight] == [t.url for t in result.timelines]
    rescans = [
        (url, first_seen + offset)
        for url, first_seen in first_sight
        for offset in VT_SAMPLE_OFFSETS
    ]

    # Separate fleets, identical profiles: the reference's per-engine
    # verdict memo cannot leak into the fleet path.
    fleet_vt = VirusTotal(default_engine_fleet(SeedBank(BENCH_SEED)), world.intel)
    reference_vt = VirusTotal(default_engine_fleet(SeedBank(BENCH_SEED)), world.intel)

    fleet_first_s, fleet_first = _timed_pass(fleet_vt.scan, first_sight)
    reference_first_s, reference_first = _timed_pass(
        reference_vt.scan_reference, first_sight
    )
    fleet_rescan_s, fleet_rescan = _timed_pass(fleet_vt.scan, rescans)
    reference_rescan_s, reference_rescan = _timed_pass(
        reference_vt.scan_reference, rescans
    )

    identical = fleet_first == reference_first and fleet_rescan == reference_rescan
    assert identical, "fleet scan reports diverge from the per-engine reference"
    speedup = reference_first_s / fleet_first_s if fleet_first_s > 0 else float("inf")
    assert speedup >= MIN_SPEEDUP, (
        f"fleet first sight only {speedup:.1f}x over the per-engine loop "
        f"(bar: {MIN_SPEEDUP:.0f}x)"
    )

    n_urls, n_rescans = len(first_sight), len(rescans)
    payload = {
        "schema": BENCH_SCHEMA,
        "config": {
            "seed": BENCH_SEED,
            "days": BENCH_DAYS,
            "target_fwb_phishing": BENCH_TARGET,
            "n_engines": fleet_vt.n_engines,
            "min_speedup": MIN_SPEEDUP,
        },
        "first_sight": {
            "n_urls": n_urls,
            "fleet_seconds": fleet_first_s,
            "fleet_us_per_url": 1e6 * fleet_first_s / n_urls,
            "reference_seconds": reference_first_s,
            "reference_us_per_url": 1e6 * reference_first_s / n_urls,
            "speedup": speedup,
        },
        "rescan": {
            "n_scans": n_rescans,
            "fleet_seconds": fleet_rescan_s,
            "fleet_us_per_scan": 1e6 * fleet_rescan_s / n_rescans,
            "reference_seconds": reference_rescan_s,
            "reference_us_per_scan": 1e6 * reference_rescan_s / n_rescans,
        },
        "reports_identical": identical,
    }
    out = REPO_ROOT / "BENCH_vt.json"
    out.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    emit(
        "Throughput — vectorized VirusTotal engine fleet",
        "\n".join([
            f"first sight: {1e6 * fleet_first_s / n_urls:,.0f} us/URL fleet vs "
            f"{1e6 * reference_first_s / n_urls:,.0f} us/URL per-engine "
            f"({speedup:.1f}x, {n_urls} URLs, reports identical)",
            f"rescan: {1e6 * fleet_rescan_s / n_rescans:,.1f} us/scan fleet vs "
            f"{1e6 * reference_rescan_s / n_rescans:,.1f} us/scan per-engine "
            f"({n_rescans} scans)",
            f"wrote {out.name}",
        ]),
    )
