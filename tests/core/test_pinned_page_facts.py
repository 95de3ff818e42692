"""Cross-commit pin: everything the hot path reads from a page, per URL.

One seeded ground-truth web — phishing sites of every variant on every FWB
service, the self-hosted kit pages the two-step and iframe variants point
at, benign FWB and self-hosted sites — is walked URL by URL: every page
and every file of every site. Per URL the digest takes

* the base and FWB feature vectors (``FeatureExtractor``);
* every ``UrlIntel`` field (``gather_intel``);
* the snapshot's outbound links, iframe contents and downloads;
* the §5.5 ``classify_evasive`` vector;
* the URLs of the browser's click-through chain (``follow_workflow``);
* whether ``SearchIndex.submit`` indexes the page.

A third of the kit pages are taken down first, so two-step pages with a
dead target are in the web too. A change to how any of these readers
decides a page fact must leave the digest unchanged.
"""

import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.core.evasive import classify_evasive
from repro.core.features import FeatureExtractor
from repro.ecosystem.intel import gather_intel
from repro.errors import FetchError
from repro.simnet import Browser
from repro.sim import build_ground_truth
from repro.sitegen.legitimate import LegitimateSiteGenerator

NOW = 10

#: Taken before the page-facts pass replaced the per-module DOM walks.
PINNED = "eed6783007df3e36c578e71323519a4ceb98ffc822d9d1c4c991a8604afbd001"


def _build_web():
    ground_truth = build_ground_truth(n_per_class=120, seed=20231024)
    web = ground_truth.web
    rng = np.random.default_rng(4000)
    benign = LegitimateSiteGenerator()
    for _ in range(6):
        benign.create_self_hosted_site(web.self_hosting, now=0, rng=rng)
    kits = [s for s in web.self_hosting.iter_sites() if s.metadata.get("is_phishing")]
    for site in kits[::3]:
        web.take_down(site.root_url, now=1)
    return web


@pytest.fixture(scope="module")
def pinned_web():
    return _build_web()


def _urls(web):
    for site in web.iter_sites():
        for path in list(site.pages) + list(site.files):
            yield site.root_url.with_path(path)


def _value(value):
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_value(v) for v in value) + "]"
    if dataclasses.is_dataclass(value):
        return repr(dataclasses.astuple(value))
    if hasattr(value, "value"):  # an Enum
        return repr(value.value)
    if type(value).__name__ == "URL":
        return str(value)
    return repr(value)


def _url_record(web, browser, extractor, url) -> str:
    intel = gather_intel(web, browser, url, NOW)
    fields = [
        f"{field.name}={_value(getattr(intel, field.name))}"
        for field in dataclasses.fields(intel)
    ]
    try:
        snapshot = browser.snapshot(url, NOW)
    except FetchError:
        return str(url) + "|unreachable|" + "|".join(fields)
    features = extractor.extract(url, snapshot)
    evasive = classify_evasive(snapshot, browser, NOW)
    chain = browser.follow_workflow(url, NOW, max_hops=3)
    web.search_index.record_incoming_link(url)
    indexed = web.search_index.submit(url, snapshot.markup, NOW)
    return "|".join(
        [
            str(url),
            features.base_vector.tobytes().hex(),
            features.fwb_vector.tobytes().hex(),
            *fields,
            _value(snapshot.outbound_links),
            _value([(str(src), markup) for src, markup in snapshot.iframe_contents]),
            _value(snapshot.downloads),
            _value(evasive),
            _value([hop.url for hop in chain]),
            repr(indexed),
        ]
    )


def _coverage(web):
    services, variants, benign = set(), Counter(), Counter()
    for site in web.iter_sites():
        meta = site.metadata
        if meta.get("is_phishing"):
            variants[meta.get("variant")] += 1
        else:
            benign[site.owner] += 1
        if site.root_url.registered_domain != site.root_url.host:
            services.add(site.root_url.registered_domain)
    return services, variants, benign


def test_pinned_web_covers_every_shape(pinned_web):
    services, variants, benign = _coverage(pinned_web)
    fwb_domains = {p.service.domain for p in pinned_web.fwb_providers.values()}
    assert fwb_domains <= services
    assert set(variants) == {"credential", "two_step", "iframe", "driveby"}
    assert benign["benign-user"] >= 6
    removed = [s for s in pinned_web.iter_sites() if not s.is_active(NOW)]
    assert removed


def test_page_outputs_are_pinned(pinned_web):
    browser = Browser(pinned_web)
    extractor = FeatureExtractor()
    digest = hashlib.sha256()
    for url in sorted(_urls(pinned_web), key=str):
        record = _url_record(pinned_web, browser, extractor, url)
        digest.update(record.encode("utf-8") + b"\n")
    assert digest.hexdigest() == PINNED
