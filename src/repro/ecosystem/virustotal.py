"""VirusTotal-style aggregation of the engine fleet.

FreePhish scans every URL through VirusTotal every 10 minutes for up to a
week (§4.4), counting how many of the 76 engines flag it at each point.
A scan at time ``t`` reports the engines whose (cached) detection time has
passed — detections accumulate over the week, producing Figures 7 and 8.

The fleet scores a URL once, at first sight, into one detection-time array
(:class:`~repro.ecosystem.engines.EngineFleet`); every scan after that is a
comparison against ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.instrument import NULL_INSTRUMENTATION, Instrumentation
from ..simnet.url import URL
from .engines import DetectionEngine, EngineFleet
from .intel import IntelService, UrlIntel


@dataclass
class ScanReport:
    """Result of one VirusTotal scan of one URL."""

    url: URL
    scanned_at: int
    positives: int
    total_engines: int
    engines: List[str] = field(default_factory=list)

    @property
    def detection_ratio(self) -> float:
        return self.positives / self.total_engines if self.total_engines else 0.0


class VirusTotal:
    """Aggregator over the detection-engine fleet."""

    def __init__(
        self,
        engines: Sequence[DetectionEngine],
        intel_service: IntelService,
        instrumentation: Optional[Instrumentation] = None,
    ) -> None:
        self.fleet = EngineFleet(engines)
        self.intel_service = intel_service
        #: URL -> first time VT ever saw it (engines date latencies from it).
        self._first_seen: Dict[str, int] = {}
        #: URL -> every engine's detection time (``NEVER`` if it never flags).
        self._times: Dict[str, np.ndarray] = {}
        instr = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self._c_scans = instr.counter("vt.scans")
        self._c_urls = instr.counter("vt.urls_registered")

    @property
    def n_engines(self) -> int:
        return len(self.fleet.engines)

    def _first_sight(self, url: URL, now: int) -> Tuple[UrlIntel, int]:
        """The URL's intel and time at VT's first sight, registering it now."""
        key = str(url)
        first_seen = self._first_seen.get(key)
        if first_seen is None:
            first_seen = self._first_seen[key] = now
            self._c_urls.inc()
        return self.intel_service.intel_for(url, first_seen), first_seen

    def _report(self, url: URL, now: int, positives: List[str]) -> ScanReport:
        self._c_scans.inc()
        return ScanReport(
            url=url,
            scanned_at=now,
            positives=len(positives),
            total_engines=self.n_engines,
            engines=positives,
        )

    def scan(self, url: URL, now: int) -> ScanReport:
        """Scan ``url`` and report current engine positives."""
        key = str(url)
        times = self._times.get(key)
        if times is None:
            times = self._times[key] = self.fleet.detection_times(
                *self._first_sight(url, now)
            )
        names = self.fleet.names
        return self._report(url, now, [names[i] for i in np.flatnonzero(times <= now)])

    def scan_reference(self, url: URL, now: int) -> ScanReport:
        """``scan`` as a loop over ``DetectionEngine.evaluate``: its test oracle."""
        intel, first_seen = self._first_sight(url, now)
        positives = []
        for engine in self.fleet.engines:
            detects, detection_time = engine.evaluate(intel, first_seen)
            if detects and detection_time is not None and detection_time <= now:
                positives.append(engine.name)
        return self._report(url, now, positives)

    def scan_file_detections(self, vt_detections: int) -> int:
        """File scans report the payload's precomputed engine count."""
        return int(vt_detections)
