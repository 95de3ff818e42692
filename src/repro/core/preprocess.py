"""Pre-processing module (paper §4.1).

Stores a full snapshot of each streamed website (source + rendered
signature, the stand-in for a screenshot) and extracts the classifier's
feature set. Unreachable URLs are dropped, mirroring the real pipeline.

Processed pages are kept in one bounded LRU page cache under
:func:`snapshot_key`. It exists for the serving layer: ``VerdictService``
re-checks a page once its negative verdict expires or a feed or takedown
invalidates it, and an unchanged page is then answered without a second
snapshot and featurization. The campaign never processes a URL twice, so
there it only misses. A page whose markup changed, or that became
unreachable, never hits the cache, because the cheap ``fetch`` runs first
and the key covers the fetched markup. See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..errors import FetchError
from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.browser import Browser, PageSnapshot
from ..simnet.url import URL
from ..simnet.web import Web
from .features import FWB_FEATURE_NAMES, FeatureExtractor, PageFeatures

#: Capacity of the page cache, in processed pages.
PAGE_CACHE_SIZE = 2048


def snapshot_key(url: Union[URL, str], markup: str) -> Tuple[str, str]:
    """Page-cache key identifying one observed page version.

    The **only** sanctioned producer of page-cache keys (reprolint RP304).
    Keys compare by equality on the full markup, so a re-observation whose
    markup changed in any way misses the cache and is re-featurized.
    """
    return (str(url), markup)


@dataclass
class ProcessedPage:
    """Snapshot + features for one streamed URL."""

    url: URL
    snapshot: PageSnapshot
    features: PageFeatures
    fwb_name: Optional[str]

    @property
    def fwb_vector(self) -> np.ndarray:
        return self.features.fwb_vector

    @property
    def base_vector(self) -> np.ndarray:
        return self.features.base_vector


@dataclass(frozen=True)
class SkippedURL:
    """One URL a batch could not snapshot, with the reason it was skipped."""

    url: URL
    reason: str


@dataclass
class PreprocessBatch:
    """Outcome of a batched preprocessing pass.

    A single unreachable URL must never abort a serving batch: reachable
    pages are returned in ``pages`` (input order preserved) and every
    failure is reported in ``skipped`` rather than raised.
    """

    pages: List[ProcessedPage]
    skipped: List[SkippedURL]

    @property
    def n_processed(self) -> int:
        return len(self.pages)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)


class Preprocessor:
    """Snapshot + feature-extraction stage of the pipeline."""

    def __init__(
        self,
        web: Web,
        browser: Optional[Browser] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.web = web
        self.browser = browser if browser is not None else Browser(web)
        self.extractor = FeatureExtractor()
        instr = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self._page_cache: "OrderedDict[Tuple[str, str], ProcessedPage]" = OrderedDict()
        self._c_hit = instr.counter("preprocess.cache.hit")
        self._c_miss = instr.counter("preprocess.cache.miss")
        self._c_evicted = instr.counter("preprocess.cache.evicted")

    def process(self, url: URL, now: int) -> Optional[ProcessedPage]:
        """Snapshot and featurize one URL; ``None`` if it cannot be fetched.

        Fetch-first fast path: the markup fetch is cheap, so it runs
        first; if the fetched markup matches an already-processed page,
        the cached :class:`ProcessedPage` is returned without re-parsing.
        An unreachable or changed page can therefore never be served
        stale. On a miss the probe's :class:`~repro.simnet.browser.FetchResult`
        is handed to ``snapshot_from``, so the markup is fetched once, not
        twice.
        """
        try:
            result = self.browser.fetch(url, now)
            if not result.ok:
                # snapshot_from() raises SiteRemovedError for this status.
                return None
            key = snapshot_key(url, result.markup)
            cached = self._page_cache.get(key)
            if cached is not None:
                self._page_cache.move_to_end(key)
                self._c_hit.inc()
                return cached
            snapshot = self.browser.snapshot_from(result, now)
        except FetchError:
            return None
        features = self.extractor.extract(url, snapshot)
        service = self.web.fwb_for(url)
        page = ProcessedPage(
            url=url,
            snapshot=snapshot,
            features=features,
            fwb_name=service.name if service is not None else None,
        )
        self._c_miss.inc()
        self._page_cache[key] = page
        while len(self._page_cache) > PAGE_CACHE_SIZE:
            self._page_cache.popitem(last=False)
            self._c_evicted.inc()
        return page

    def process_batch(self, urls: List[URL], now: int) -> List[ProcessedPage]:
        """Reachable pages only; see :meth:`process_batch_report` for the
        skip-and-report variant the serving layer uses."""
        return self.process_batch_report(urls, now).pages

    def process_batch_report(self, urls: List[URL], now: int) -> PreprocessBatch:
        """Snapshot and featurize a batch, skipping-and-reporting failures.

        One dead URL (taken down mid-batch, or a custom browser raising
        :class:`~repro.errors.FetchError` while resolving sub-resources)
        must not abort the other N-1: every failure becomes a
        :class:`SkippedURL` entry instead of propagating.
        """
        pages: List[ProcessedPage] = []
        skipped: List[SkippedURL] = []
        for url in urls:
            try:
                page = self.process(url, now)
            except FetchError as exc:
                # process() shields the snapshot call, but browser
                # subclasses may raise while resolving iframes/downloads.
                skipped.append(SkippedURL(url=url, reason=str(exc)))
                continue
            if page is None:
                skipped.append(SkippedURL(url=url, reason="unreachable"))
                continue
            pages.append(page)
        return PreprocessBatch(pages=pages, skipped=skipped)

    def feature_matrix(self, pages: List[ProcessedPage]) -> np.ndarray:
        """One ``(n, d)`` float64 matrix of FWB-augmented feature vectors.

        This is the batch hand-off to the classifier: both the framework's
        per-tick batch and the serving MicroBatcher score exactly one such
        matrix per flush.
        """
        if not pages:
            return np.empty((0, len(FWB_FEATURE_NAMES)), dtype=np.float64)
        return np.vstack([page.fwb_vector for page in pages])
