"""Detection-engine fleet and the VirusTotal aggregator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SeedBank
from repro.core.monitor import VT_SAMPLE_OFFSETS
from repro.ecosystem import IntelService, VirusTotal, default_engine_fleet
from repro.ecosystem.engines import NEVER, EngineFleet, _FirstDraws
from repro.ecosystem.intel import UrlIntel
from repro.simnet import Browser, Web
from repro.simnet.tls import ValidationLevel
from repro.simnet.url import parse_url


@pytest.fixture(scope="module")
def fleet():
    return default_engine_fleet(SeedBank(5))


def _intel(url_text: str, **overrides) -> UrlIntel:
    intel = UrlIntel(url=parse_url(url_text), reachable=True)
    for key, value in overrides.items():
        setattr(intel, key, value)
    return intel


HOT = dict(
    domain_age_days=2.0, cheap_tld=True, has_credential_form=True,
    brand_title_mismatch=True, kit_markup=True, in_ct_log=True,
    sensitive_url_words=3,
)
COLD = dict(domain_age_days=12 * 365.0, com_tld=True, is_fwb=True,
            fwb_name="weebly", fwb_scrutiny=1.9)


class TestEngines:
    def test_fleet_size_is_76(self, fleet):
        assert len(fleet) == 76

    def test_verdicts_deterministic_per_url(self, fleet):
        intel = _intel("https://scam-login.xyz/", **HOT)
        engine = fleet[0]
        assert engine.evaluate(intel, 100) == engine.evaluate(intel, 100)

    def test_engines_disagree(self, fleet):
        intel = _intel("https://scam-login.xyz/", **HOT)
        verdicts = {engine.evaluate(intel, 0)[0] for engine in fleet}
        assert verdicts == {True, False}

    def test_hot_detected_more_than_cold(self, fleet):
        hot_hits = cold_hits = 0
        for i in range(20):
            hot = _intel(f"https://scam{i}-login.xyz/", **HOT)
            cold = _intel(f"https://innocuous{i}.weebly.com/", **COLD)
            hot_hits += sum(engine.evaluate(hot, 0)[0] for engine in fleet)
            cold_hits += sum(engine.evaluate(cold, 0)[0] for engine in fleet)
        assert hot_hits > 3 * max(cold_hits, 1)

    def test_detection_time_after_first_seen(self, fleet):
        intel = _intel("https://scam-now.xyz/", **HOT)
        for engine in fleet:
            detects, when = engine.evaluate(intel, first_seen=1000)
            if detects:
                assert when > 1000

    def test_reproducible_across_fleets(self):
        a = default_engine_fleet(SeedBank(5))
        b = default_engine_fleet(SeedBank(5))
        intel = _intel("https://stable.xyz/", **HOT)
        assert [e.evaluate(intel, 0) for e in a] == [e.evaluate(intel, 0) for e in b]


def _reference_times(engines, intel, first_seen):
    """Per-engine ``evaluate`` times, with NEVER where an engine never flags."""
    times = []
    for engine in engines:
        engine._verdicts.clear()  # the memo is keyed by URL alone
        detects, when = engine.evaluate(intel, first_seen)
        times.append(when if detects else NEVER)
    return np.array(times, dtype=np.int64)


class TestFirstDrawKernel:
    """The fleet's first draws equal each engine's own generator, bit for bit."""

    @pytest.fixture(scope="class")
    def edge_engines(self):
        engines = default_engine_fleet(SeedBank(11))[:12]
        engines[0]._seed = 7                # one entropy word
        engines[1]._seed = 2 ** 32 - 1      # largest one-word seed
        engines[2]._seed = 2 ** 32          # smallest two-word seed
        engines[3]._seed = 0
        return engines

    @pytest.mark.parametrize("url_hash", [
        0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 0x9E3779B97F4A7C15,
    ])
    def test_uniforms_match_seed_sequence(self, edge_engines, url_hash):
        expected = np.array([
            np.random.default_rng(
                np.random.SeedSequence([engine._seed, url_hash])
            ).random()
            for engine in edge_engines
        ])
        got = EngineFleet(edge_engines).first_uniforms(url_hash)
        assert np.array_equal(got, expected)

    def test_uniforms_match_over_many_hashes(self, fleet):
        fleet_arrays = EngineFleet(fleet)
        hashes = np.random.default_rng(3).integers(0, 2 ** 63, size=40)
        for url_hash in (int(h) * 2 + 1 for h in hashes):
            expected = [engine._url_rng(url_hash).random() for engine in fleet]
            assert np.array_equal(fleet_arrays.first_uniforms(url_hash), expected)

    def test_kernel_rejects_short_entropy(self):
        with pytest.raises(ValueError):
            _FirstDraws([7])
        with pytest.raises(ValueError):
            _FirstDraws([2 ** 40])(2 ** 32 - 1)
        with pytest.raises(ValueError):
            _FirstDraws([2 ** 40])(2 ** 64)


_AGES = st.one_of(
    st.none(),
    st.sampled_from([0.0, 29.9, 30.0, 364.9, 365.0, 5 * 365.0, 5 * 365.0 + 1]),
    st.floats(min_value=0.0, max_value=6000.0),
)


@st.composite
def _any_intel(draw):
    host = draw(st.integers(min_value=0, max_value=10 ** 9))
    tld = draw(st.sampled_from(["com", "xyz", "top", "net"]))
    intel = UrlIntel(
        url=parse_url(f"https://s{host}.{tld}/p{draw(st.integers(0, 99))}"),
        reachable=draw(st.booleans()),
        domain_age_days=draw(_AGES),
        cert_level=draw(st.sampled_from([None, *ValidationLevel])),
        sensitive_url_words=draw(st.integers(min_value=0, max_value=6)),
    )
    for flag in ("cheap_tld", "https", "in_ct_log", "indexed",
                 "has_credential_form", "brand_title_mismatch", "kit_markup",
                 "malicious_download", "external_iframe", "linkout_button",
                 "hidden_elements"):
        setattr(intel, flag, draw(st.booleans()))
    return intel


class TestEngineFleet:
    @settings(max_examples=150, deadline=None)
    @given(intel=_any_intel())
    def test_odds_match_per_engine_bitwise(self, fleet, intel):
        margin, probability = EngineFleet(fleet)._odds(intel)
        expected = [engine._odds(intel) for engine in fleet]
        assert np.array_equal(margin, [m for m, _ in expected])
        assert np.array_equal(probability, [p for _, p in expected])

    @settings(max_examples=150, deadline=None)
    @given(intel=_any_intel(), first_seen=st.integers(min_value=0, max_value=10 ** 5))
    def test_detection_times_match_evaluate(self, fleet, intel, first_seen):
        times = EngineFleet(fleet).detection_times(intel, first_seen)
        assert times.dtype == np.int64
        assert np.array_equal(times, _reference_times(fleet, intel, first_seen))

    def test_trusted_url_scores_zero_and_never_detects(self, fleet):
        intel = _intel("https://old-shop.com/", domain_age_days=9 * 365.0,
                       https=True, cert_level=ValidationLevel.EV, indexed=True)
        times = EngineFleet(fleet).detection_times(intel, 50)
        assert (times == NEVER).all()
        assert np.array_equal(times, _reference_times(fleet, intel, 50))

    def test_unreachable_never_detects(self, fleet):
        intel = _intel("https://gone.xyz/", **HOT)
        intel.reachable = False
        assert (EngineFleet(fleet).detection_times(intel, 0) == NEVER).all()

    def test_hot_url_detected_by_some_not_all(self, fleet):
        times = EngineFleet(fleet).detection_times(
            _intel("https://scam-login.xyz/", **HOT), 100
        )
        detected = times != NEVER
        assert 0 < detected.sum() < len(fleet)
        assert (times[detected] > 100).all()


class TestVirusTotal:
    @pytest.fixture()
    def vt_world(self, fleet):
        web = Web()
        intel_service = IntelService(web, Browser(web))
        return web, VirusTotal(fleet, intel_service)

    def test_detections_accumulate_over_time(self, vt_world, kit_generator, rng):
        web, vt = vt_world
        site = kit_generator.create_site(web.self_hosting, now=0, rng=rng)
        early = vt.scan(site.root_url, now=10).positives
        late = vt.scan(site.root_url, now=7 * 24 * 60).positives
        assert late >= early
        assert late > 0

    def test_scan_reports_engine_names(self, vt_world, kit_generator, rng):
        web, vt = vt_world
        site = kit_generator.create_site(web.self_hosting, now=0, rng=rng)
        report = vt.scan(site.root_url, now=7 * 24 * 60)
        assert report.positives == len(report.engines)
        assert report.total_engines == 76
        assert 0.0 <= report.detection_ratio <= 1.0

    def test_first_seen_anchors_latencies(self, vt_world, kit_generator, rng):
        """Engines date their latency from VT's first sight of the URL."""
        web, vt = vt_world
        site = kit_generator.create_site(web.self_hosting, now=0, rng=rng)
        vt.scan(site.root_url, now=5000)  # first seen late
        assert str(site.root_url) in vt._first_seen
        assert vt._first_seen[str(site.root_url)] == 5000

    def test_fwb_vs_self_hosted_gap(self, vt_world, rng):
        """Figure 7's headline: FWB attacks accrue far fewer detections."""
        from repro.sitegen import PhishingKitGenerator, PhishingSiteGenerator

        web, vt = vt_world
        phish_gen = PhishingSiteGenerator()
        kit_gen = PhishingKitGenerator()
        week = 7 * 24 * 60
        fwb_counts, self_counts = [], []
        providers = list(web.fwb_providers.values())
        for i in range(30):
            provider = providers[i % len(providers)]
            fwb_site = phish_gen.create_site(provider, now=0, rng=rng)
            self_site = kit_gen.create_site(web.self_hosting, now=0, rng=rng)
            # First scan at t=0 anchors first-seen; re-scan a week later.
            vt.scan(fwb_site.root_url, 0)
            vt.scan(self_site.root_url, 0)
            fwb_counts.append(vt.scan(fwb_site.root_url, week).positives)
            self_counts.append(vt.scan(self_site.root_url, week).positives)
        assert np.median(self_counts) >= np.median(fwb_counts) + 3

    def test_file_scan_passthrough(self, vt_world):
        _web, vt = vt_world
        assert vt.scan_file_detections(9) == 9

    def test_scan_matches_reference_over_campaign_mix(self, campaign_world_and_result):
        """Fleet and per-engine scans agree on a campaign's URLs, including
        URLs first seen days after t=0."""
        world, _result = campaign_world_and_result
        engines = default_engine_fleet(SeedBank(world.config.seed))
        fast = VirusTotal(engines, world.intel)
        reference = VirusTotal(engines, world.intel)
        late = 3 * 24 * 60
        first_sights = {}
        for observation in world.analysis._tracked:
            first_sights.setdefault(str(observation.url), observation)
        assert first_sights
        for index, observation in enumerate(first_sights.values()):
            url = observation.url
            first_seen = observation.observed_at + (late if index % 3 == 0 else 0)
            for offset in (0,) + VT_SAMPLE_OFFSETS:
                a = fast.scan(url, first_seen + offset)
                b = reference.scan_reference(url, first_seen + offset)
                assert (a.scanned_at, a.positives, a.engines) == (
                    b.scanned_at, b.positives, b.engines
                )
            key = str(url)
            assert fast._first_seen[key] == reference._first_seen[key] == first_seen
            intel = world.intel.intel_for(url, first_seen)
            assert np.array_equal(
                fast._times[key], _reference_times(engines, intel, first_seen)
            )
