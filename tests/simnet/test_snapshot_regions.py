"""The memoized ``PageSnapshot.regions``: rendered once, only where read."""

import pytest

import repro.simnet.browser as browser_module
from repro.baselines import PhishIntentionDetector, VisualPhishNetDetector
from repro.config import SimulationConfig
from repro.sim import CampaignWorld, build_ground_truth
from repro.simnet import Browser, Web
from repro.webdoc.render import region_signatures

PAGE = """<html><head><title>Sign in</title></head>
<body><div><h1>Account</h1><p>Welcome back</p></div>
<form action="/login"><input name="email"><input type="password" name="pw">
<button>Sign in</button></form></body></html>"""


@pytest.fixture()
def region_calls(monkeypatch):
    """Count the renders behind ``PageSnapshot.regions``."""
    calls = []

    def counted(document, **kwargs):
        calls.append(document)
        return region_signatures(document, **kwargs)

    monkeypatch.setattr(browser_module, "region_signatures", counted)
    return calls


def test_regions_rendered_once(region_calls):
    web = Web()
    site = web.fwb_providers["weebly"].create_site("regions", owner="u", now=0)
    site.add_page("/", PAGE)
    snapshot = Browser(web).snapshot(site.root_url, now=1)
    assert region_calls == []

    first = snapshot.regions
    assert snapshot.regions is first
    assert len(region_calls) == 1
    expected = region_signatures(snapshot.document, max_regions=12)
    assert [r.vector.tobytes() for r in first] == [r.vector.tobytes() for r in expected]


def test_phishintention_fit_reuses_visualphishnet_regions(region_calls):
    dataset = build_ground_truth(n_per_class=15, seed=4)
    VisualPhishNetDetector(random_state=1).fit_pages(dataset.pages, dataset.labels)
    assert len(region_calls) == len(dataset.pages)

    detector = PhishIntentionDetector(Browser(dataset.web), random_state=1)
    detector.fit_pages(dataset.pages, dataset.labels)
    assert len(region_calls) == len(dataset.pages)


def test_campaign_snapshots_never_render(region_calls, monkeypatch):
    snapshots = []
    snapshot_from = browser_module.Browser.snapshot_from

    def recorded(self, result, now):
        snapshot = snapshot_from(self, result, now)
        snapshots.append(snapshot)
        return snapshot

    monkeypatch.setattr(browser_module.Browser, "snapshot_from", recorded)
    config = SimulationConfig(seed=17, duration_days=1, target_fwb_phishing=30)
    CampaignWorld(config, train_samples_per_class=20).run()

    assert snapshots
    assert region_calls == []
    assert all(s._regions is None and s._signature is None for s in snapshots)
