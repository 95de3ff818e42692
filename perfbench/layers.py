"""Which public calls make up each layer, and the per-layer metrics read off them.

Layers are the program's modules (``sim``, ``social``, ``simnet``,
``webdoc``, ``sitegen``, ``ecosystem``, ``core``, ``ml``, ``serve``,
``analysis``). :func:`install` wraps every listed call on a
:class:`~tracer.Tracer`; a workload that never reaches a layer reads 0 for
it, which is the prediction for that layer on that workload.
"""

from __future__ import annotations

from typing import Dict, List

from tracer import Tracer

import repro.analysis as analysis
import repro.webdoc.similarity as similarity
from repro.baselines import (
    BaseStackModelDetector,
    PhishIntentionDetector,
    URLNetDetector,
    VisualPhishNetDetector,
)
from repro.core.classifier import FreePhishClassifier
from repro.core.features import FeatureExtractor
from repro.core.framework import FreePhish
from repro.core.monitor import AnalysisModule
from repro.core.preprocess import Preprocessor
from repro.core.reporting import ReportingModule
from repro.core.streaming import StreamingModule
from repro.ecosystem.blocklists import Blocklist
from repro.ecosystem.intel import IntelService
from repro.ecosystem.takedown import AbuseDesk, RegistrarDesk
from repro.ecosystem.virustotal import VirusTotal
from repro.serve.admission import FastPathModel
from repro.serve.batching import MicroBatcher
from repro.serve.service import ServedFrom, VerdictService
from repro.sim.attacker import AttackerModel, BenignUserModel
from repro.simnet.browser import Browser
from repro.sitegen.kits import PhishingKitGenerator
from repro.sitegen.legitimate import LegitimateSiteGenerator
from repro.sitegen.phishing import PhishingSiteGenerator
from repro.social.platform import SocialPlatform

DETECTORS = (
    VisualPhishNetDetector, PhishIntentionDetector, URLNetDetector,
    BaseStackModelDetector,
)

#: The per-detector predictions Table 2 times, one page at a time: the
#: paper's "runtime per URL". The ``tables`` workload uses them as steps.
PREDICT_CALLS = [(cls, "predict_page") for cls in DETECTORS] + [
    (FreePhishClassifier, "classify_page"),
]

#: The public table and figure builders; workloads call them through the
#: ``repro.analysis`` namespace so that the wrappers see every call.
ANALYSIS_BUILDERS = (
    "build_table1", "build_table2", "build_table3", "build_table4",
    "build_fig6", "build_fig7", "build_fig8", "build_fig9",
)


def _on_poll(tracer: Tracer, _args, observations) -> None:
    tracer.count("observations", len(observations))


def _on_process(tracer: Tracer, _args, page) -> None:
    tracer.count("processed" if page is not None else "unreachable")


def _on_predict_proba(tracer: Tracer, args, _result) -> None:
    tracer.count("classify_rows", len(args[1]))


def _on_flush(tracer: Tracer, _args, scored) -> None:
    tracer.count("flush_rows", len(scored))
    tracer.count("flush_unique", len({verdict.key for verdict in scored}))


def _on_invalidate(tracer: Tracer, _args, purged) -> None:
    tracer.count("stale_purged", purged)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls on ``tracer``."""
    wrap = tracer.wrap
    wrap(AttackerModel, "launch_fwb_attack", "sim.launch")
    wrap(AttackerModel, "launch_self_hosted_attack", "sim.launch")
    wrap(BenignUserModel, "post_benign_site", "sim.launch")
    wrap(IntelService, "suspicion", "ecosystem.intel")
    wrap(SocialPlatform, "scan", "social.scan")
    wrap(StreamingModule, "poll", "core.poll", hook=_on_poll)
    wrap(FreePhish, "step", "core.step")
    wrap(Preprocessor, "process", "core.preprocess", hook=_on_process)
    wrap(Preprocessor, "process_batch_report", "core.preprocess", count=False)
    # snapshot() completes through snapshot_from(); count the latter only.
    wrap(Browser, "snapshot", "simnet.snapshot", count=False)
    wrap(Browser, "snapshot_from", "simnet.snapshot")
    wrap(FeatureExtractor, "extract", "core.features")
    wrap(FreePhishClassifier, "classify_pages", "core.classify", count=False)
    wrap(FreePhishClassifier, "predict_proba", "core.classify",
         hook=_on_predict_proba)
    wrap(ReportingModule, "report", "core.report")
    wrap(AnalysisModule, "track", "core.track")
    wrap(VirusTotal, "scan", "ecosystem.vt_scan")
    wrap(Blocklist, "observe", "ecosystem.blocklist_observe")
    wrap(RegistrarDesk, "observe", "ecosystem.registrar_observe")
    wrap(AbuseDesk, "apply_takedowns", "ecosystem.housekeeping")
    wrap(RegistrarDesk, "apply_takedowns", "ecosystem.housekeeping")
    wrap(SocialPlatform, "apply_moderation", "ecosystem.housekeeping")
    wrap(AnalysisModule, "resolve_all", "core.resolve")
    for name in ANALYSIS_BUILDERS:
        wrap(analysis, name, "analysis.build")
    wrap(VerdictService, "submit", "serve.submit")
    wrap(VerdictService, "pump", "serve.pump")
    wrap(VerdictService, "drain", "serve.pump")
    wrap(MicroBatcher, "flush", "serve.flush", hook=_on_flush)
    wrap(VerdictService, "update_feed", "serve.invalidate", hook=_on_invalidate)
    wrap(VerdictService, "on_takedown", "serve.invalidate", hook=_on_invalidate)
    wrap(FastPathModel, "verdicts", "serve.fast_path")
    wrap(PhishingSiteGenerator, "create_site", "sitegen.create")
    wrap(PhishingKitGenerator, "create_site", "sitegen.create")
    wrap(LegitimateSiteGenerator, "create_fwb_site", "sitegen.create")
    wrap(LegitimateSiteGenerator, "create_self_hosted_site", "sitegen.create")
    wrap(similarity, "website_similarity", "webdoc.similarity")
    wrap(FreePhishClassifier, "fit_pages", "ml.fit")
    wrap(FastPathModel, "fit_urls", "ml.fit")
    for cls in DETECTORS:
        wrap(cls, "fit_pages", "ml.fit")
    for owner, attr in PREDICT_CALLS:
        wrap(owner, attr, "ml.predict")


#: Layers reported with self time (``<layer>_s``).
TIMED = (
    "sim.launch", "ecosystem.intel", "social.scan", "core.poll", "core.step",
    "core.preprocess", "simnet.snapshot", "core.features", "core.classify",
    "core.report", "core.track", "ecosystem.vt_scan",
    "ecosystem.blocklist_observe", "ecosystem.registrar_observe",
    "ecosystem.housekeeping", "core.resolve", "analysis.build",
    "serve.submit", "serve.pump", "serve.flush", "serve.invalidate",
    "serve.fast_path", "sitegen.create", "webdoc.similarity", "ml.fit",
    "ml.predict",
)

#: Layers also reported with a call count (``<layer>_calls``).
COUNTED = (
    "sim.launch", "ecosystem.intel", "core.preprocess", "simnet.snapshot",
    "core.classify", "ecosystem.vt_scan", "ecosystem.blocklist_observe",
)

WORKLOADS = ("campaign", "serve", "tables")
SERVED_FROM = tuple(tag.value for tag in ServedFrom if tag is not ServedFrom.ALLOWLIST)


def metric_names() -> List[str]:
    """Every per-layer metric, in report order (the BENCHMARK.json list)."""
    names = [f"{layer}_s" for layer in TIMED]
    names += [f"{layer}_calls" for layer in COUNTED]
    names += [
        "core.observations", "core.unreachable", "core.classify_rows",
        "simnet.snapshots_per_page", "webdoc.similarity_pairs",
        "serve.flushes", "serve.rows_per_flush", "serve.unique_per_flush",
        "serve.stale_purged", "serve.degraded_frac", "serve.verdict_wait_p99_min",
        "serve.model_frac_min_hour",
    ]
    names += [f"serve.hit_frac.{tag}" for tag in SERVED_FROM]
    for workload in WORKLOADS:
        names += [f"{workload}.attributed_frac", f"{workload}.trace_overhead_frac",
                  f"{workload}.unattributed_s"]
    return names


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Self times, calls and ratios of one traced repetition's work phase.

    ``ml.fit`` also counts the set-up phase: model training is set-up work
    in ``campaign`` and ``serve`` and part of Table 2 in ``tables``.
    """
    metrics: Dict[str, float] = {}
    for layer in TIMED:
        metrics[f"{layer}_s"] = tracer.layer_s(layer)
    metrics["ml.fit_s"] += tracer.layer_s("ml.fit", phase="setup")
    for layer in COUNTED:
        metrics[f"{layer}_calls"] = tracer.layer_calls(layer)
    processed = tracer.counted("processed")
    flushes = tracer.layer_calls("serve.flush")
    metrics.update({
        "core.observations": tracer.counted("observations"),
        "core.unreachable": tracer.counted("unreachable"),
        "core.classify_rows": tracer.counted("classify_rows"),
        "simnet.snapshots_per_page": _ratio(tracer.layer_calls("simnet.snapshot"), processed),
        "webdoc.similarity_pairs": tracer.layer_calls("webdoc.similarity"),
        "serve.flushes": flushes,
        "serve.rows_per_flush": _ratio(tracer.counted("flush_rows"), flushes),
        "serve.unique_per_flush": _ratio(tracer.counted("flush_unique"), flushes),
        "serve.stale_purged": tracer.counted("stale_purged"),
    })
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
