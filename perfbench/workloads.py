"""The three benchmark workloads: ``campaign``, ``serve`` and ``tables``.

Each workload is one function ``(seed, tracer, meter) -> Rep`` that builds
every piece of state it uses from the seed (a cold world per repetition),
times its set-up apart from its work on the :class:`~calibrate.Meter`, and
returns what it produced: a digest of its outputs, set-up, work and step
times at reference speed, its operation counts and any broken invariant.
With a tracer, the same function runs with every layer wrapped (see
``layers.py``); without one, nothing is wrapped except the calls that a
workload's steps and meter checkpoints hang on.

Why these three: ``campaign`` is the north-star batch path and the only
one through ``ecosystem`` and ``streaming``; ``serve`` is the only one
through ``serve`` and re-processes repeated pages, and bypasses
``ecosystem``; ``tables`` is the only one through ``webdoc.similarity`` and
detector training, and bypasses ``ecosystem``, ``serve`` and
``streaming``. So each planned optimisation has a workload that exercises
it and one that must read as no change.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

import layers
from calibrate import Meter
from tracer import Tracer

import repro.analysis as analysis
import repro.webdoc.similarity as similarity
from repro.analysis.export import figure_to_dict, table_to_dicts
from repro.analysis.tables import TABLE1_PAPER_VALUES
from repro.config import SeedBank, SimulationConfig
from repro.core.classifier import FreePhishClassifier
from repro.ml import RandomForestClassifier
from repro.obs import Instrumentation
from repro.serve import FastPathModel, NavigationWorkload, ServedFrom, VerdictService
from repro.sim import CampaignWorld, build_ground_truth

clock = time.perf_counter

# -- sizes ----------------------------------------------------------------------
#: campaign: two simulated days at the bench campaign's arrival rate
#: (1,400 FWB attacks over 8 days) with its 200-per-class training corpus.
CAMPAIGN_DAYS = 2
CAMPAIGN_TARGET = 350
CAMPAIGN_TRAIN_PER_CLASS = 200

#: serve: one simulated day of the traffic shape ``repro serve-bench``
#: replays by default (60 requests a minute, Zipf exponent 1.1, diurnal
#: amplitude 0.6) into a ``VerdictService`` with its default capacities,
#: as the extension and ``serve-bench`` build it. The day covers the diurnal
#: cycle, and the 6-hour negative-cache TTL expires under it. Over every URL
#: of a 600-per-class web (~1,900 URLs) the Zipf tail keeps reaching URLs
#: not yet seen: at the bench seed, 4-30% of each hour's verdicts (100-430
#: requests an hour) come from the model tier. At these capacities
#: (4 batches of 32 a minute, queue 256) admission never degrades.
SERVE_SITES_PER_CLASS = 600
SERVE_MINUTES = 24 * 60
SERVE_REQUESTS_PER_MINUTE = 60.0
SERVE_ZIPF = 1.1
SERVE_DIURNAL = 0.6
#: Shares of phishing URLs confirmed by the backend feed, and of phishing
#: FWB sites taken down, at seeded minutes of the run.
SERVE_FEED_SHARE = 0.25
SERVE_TAKEDOWN_SHARE = 0.15

#: tables: Table 1 far below the CLI's 6 sites and 20 pairs (Levenshtein
#: over tag shells costs ~0.3 s per site pair), Table 2 over a 100-per-class
#: corpus: 60 test pages, each scored by five detectors.
TABLE1_SITES_PER_CLASS = 3
TABLE1_PAIRS = 1
TABLE2_PER_CLASS = 100
TABLE2_ESTIMATORS = 5
TABLE2_MODELS = ("VisualPhishNet", "PhishIntention", "URLNet",
                 "Base StackModel", "Our Model")


@dataclass
class Rep:
    """What one repetition of a workload produced; times are in seconds at
    reference speed, except the ``raw_`` ones."""

    setup_s: float
    work_s: float
    raw_setup_s: float
    raw_work_s: float
    #: Each step: a 10-minute cycle, one simulated minute of traffic, or one
    #: Table 2 test page scored by one detector.
    steps: List[float]
    #: Operations attempted, and those that raised or went missing.
    attempted: int
    failed: int
    digest: str
    #: Descriptions of broken invariants; empty when all hold.
    broken: List[str] = field(default_factory=list)
    #: Workload-specific values computed from returned outputs.
    values: Dict[str, float] = field(default_factory=dict)


def times(meter: Meter, **fields) -> dict:
    """A stopped meter's times, as ``Rep`` fields."""
    return dict(setup_s=meter.setup_s(), work_s=meter.work_s(),
                raw_setup_s=meter.raw[0], raw_work_s=meter.raw_work_s(), **fields)


@contextmanager
def after_each(calls, meter: Meter, action):
    """Call ``action(seconds, segment)`` after every call of each
    ``(owner, attr)`` in ``calls``, with the call's wall time and the meter
    segment it ran in."""
    patched = []
    for owner, attr in calls:
        original = vars(owner)[attr]

        def wrapped(*args, _original=original, **kwargs):
            start = clock()
            segment = meter.segment
            try:
                return _original(*args, **kwargs)
            finally:
                action(clock() - start, segment)

        setattr(owner, attr, wrapped)
        patched.append((owner, attr, original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- campaign ---------------------------------------------------------------------


class _TickClock(Instrumentation):
    """The default instrumentation, plus wall stamps at each new simulated
    minute (``CampaignWorld.run`` sets the time once at the top of every
    10-minute cycle and once more at the horizon). Each stamp is the time
    the previous cycle ended, the time the next one starts and its meter
    segment; the meter checkpoint between the two stays out of both."""

    def __init__(self, meter: Meter) -> None:
        super().__init__()
        self.meter = meter
        self.stamps: List[tuple] = []

    def set_time(self, now: float) -> None:
        if not self.stamps or self.stamps[-1][0] != now:
            ended = clock()
            self.meter.checkpoint()
            self.stamps.append((now, ended, clock(), self.meter.segment))
        super().set_time(now)


def campaign(seed: int, tracer: Optional[Tracer], meter: Meter) -> Rep:
    config = SimulationConfig(
        seed=seed, duration_days=CAMPAIGN_DAYS, target_fwb_phishing=CAMPAIGN_TARGET
    )
    instr = _TickClock(meter)
    world = CampaignWorld(
        config, train_samples_per_class=CAMPAIGN_TRAIN_PER_CLASS, instrumentation=instr
    )
    world.train_classifier()
    meter.start_work()
    if tracer is not None:
        tracer.phase = "work"
    result = world.run()
    timelines = result.timelines
    table3 = analysis.build_table3(timelines)
    table4 = analysis.build_table4(timelines)
    figures = [analysis.build_fig6(timelines), analysis.build_fig7(timelines),
               analysis.build_fig8(timelines), analysis.build_fig9(timelines)]
    meter.stop()

    # Stamps: minute 0 before the loop, the start of every cycle, then the
    # horizon (final housekeeping and resolve_all follow it), so cycle k
    # runs from stamp k + 1 to stamp k + 2.
    stamps = instr.stamps[1:]
    ticks = [meter.scaled(ended - begun, segment)
             for (_m, _e, begun, segment), (_n, ended, _b, _s) in zip(stamps, stamps[1:])]
    cycles = config.duration_minutes // config.stream_interval_minutes
    timed = len(ticks)
    broken = []
    if timed != cycles:
        broken.append(f"timed {timed} cycles, expected {cycles}")
    if tracer is not None:
        observed = tracer.counted("observations")
        handled = tracer.counted("processed") + tracer.counted("unreachable")
        if observed != handled:
            broken.append(f"observations {observed} != processed + unreachable {handled}")
        if observed != result.observations:
            broken.append(f"observations {observed} counted, {result.observations} returned")
    return Rep(
        **times(meter, steps=ticks),
        attempted=cycles,
        failed=max(0, cycles - timed),
        digest=digest({
            "timelines": [asdict(timeline) for timeline in timelines],
            "table3": table_to_dicts(table3),
            "table4": table_to_dicts(table4),
            "figures": [figure_to_dict(figure) for figure in figures],
        }),
        broken=broken,
        values={"observations": result.observations, "timelines": len(timelines)},
    )


# -- serve --------------------------------------------------------------------------


def serve(seed: int, tracer: Optional[Tracer], meter: Meter) -> Rep:
    seeds = SeedBank(seed)
    dataset = build_ground_truth(
        n_per_class=SERVE_SITES_PER_CLASS,
        seed=seeds.child_seed("perfbench.serve.ground_truth"),
    )
    classifier = FreePhishClassifier(model=RandomForestClassifier(
        n_estimators=30, random_state=seeds.child_seed("perfbench.serve.model")
    ))
    classifier.fit_pages(dataset.pages, dataset.labels)
    fast_path = FastPathModel().fit_urls(
        [page.url for page in dataset.pages], dataset.labels
    )
    web = dataset.web
    sites = list(web.iter_sites())
    # Every URL every ground-truth site serves: all pages, and file downloads.
    population = [
        site.root_url.with_path(path)
        for site in sites for path in sorted({*site.pages, *site.files})
    ]
    stream = list(NavigationWorkload(
        population, seeds,
        zipf_exponent=SERVE_ZIPF,
        requests_per_minute=SERVE_REQUESTS_PER_MINUTE,
        diurnal_amplitude=SERVE_DIURNAL,
        name="perfbench.serve.workload",
    ).iter_minutes(0, SERVE_MINUTES))
    feed_at, takedown_at = _serve_writes(seeds, sites)
    service = VerdictService(
        web, classifier, fast_path=fast_path, instrumentation=Instrumentation()
    )
    meter.start_work()
    if tracer is not None:
        tracer.phase = "work"

    served = []
    minutes = []
    for minute, requests in stream:
        begin = clock()
        if minute in feed_at:
            service.update_feed(feed_at[minute])
        for root in takedown_at.get(minute, ()):
            web.take_down(root, minute)
            service.on_takedown(root)
        for url in requests:
            verdict = service.submit(url, minute)
            if verdict is not None:
                served.append((verdict, minute))
        served.extend((verdict, minute) for verdict in service.pump(minute))
        minutes.append((clock() - begin, meter.segment))
        meter.checkpoint()
    served.extend((verdict, SERVE_MINUTES) for verdict in service.drain(SERVE_MINUTES))
    meter.stop()

    requested = Counter(str(url) for _minute, requests in stream for url in requests)
    answered = Counter(str(verdict.url) for verdict, _minute in served)
    missing = sum((requested - answered).values())
    broken = []
    if requested != answered:
        broken.append(f"{missing} requests without a verdict, "
                      f"{sum((answered - requested).values())} extra verdicts")
    n_requests = sum(requested.values())
    tags = Counter(verdict.served_from.value for verdict, _minute in served)
    values = {f"hit_frac.{tag}": tags[tag] / n_requests for tag in layers.SERVED_FROM}
    by_hour = model_share_by_hour(served)
    values.update({f"model_frac_hour_{hour:02d}": share for hour, share in enumerate(by_hour)})
    values.update({
        "model_frac_min_hour": min(by_hour),
        "requests": n_requests,
        "degraded_frac": tags[ServedFrom.MODEL_DEGRADED.value] / n_requests,
        "verdict_wait_p99_min": percentile(
            [verdict.queued_minutes for verdict, _minute in served], 99
        ),
    })
    return Rep(
        **times(meter, steps=[meter.scaled(*minute) for minute in minutes]),
        attempted=n_requests,
        failed=missing,
        digest=digest([
            (str(verdict.url), minute, verdict.verdict.value, verdict.served_from.value)
            for verdict, minute in served
        ]),
        broken=broken,
        values=values,
    )


def model_share_by_hour(served) -> List[float]:
    """Per simulated hour, the share of verdicts that came from the model
    tier, degraded or not: how much traffic still reaches the batcher."""
    total, model = Counter(), Counter()
    for verdict, minute in served:
        hour = min(minute, SERVE_MINUTES - 1) // 60
        total[hour] += 1
        model[hour] += verdict.served_from in (ServedFrom.MODEL, ServedFrom.MODEL_DEGRADED)
    return [model[hour] / total[hour] for hour in sorted(total)]


def _serve_writes(seeds: SeedBank, sites):
    """Seeded feed confirmations and FWB takedowns, keyed by minute."""
    rng = seeds.child("perfbench.serve.writes")
    phishing = [site for site in sites if site.metadata.get("is_phishing")]
    phishing_urls = [site.root_url.with_path(path)
                     for site in phishing for path in sorted(site.pages)]
    fwb_phishing = [site for site in phishing if site.metadata.get("fwb")]
    feed_at: Dict[int, list] = {}
    for index in sorted(rng.choice(len(phishing_urls),
                                   int(SERVE_FEED_SHARE * len(phishing_urls)),
                                   replace=False)):
        feed_at.setdefault(int(rng.integers(SERVE_MINUTES)), []).append(
            phishing_urls[index])
    takedown_at: Dict[int, list] = {}
    for index in sorted(rng.choice(len(fwb_phishing),
                                   int(SERVE_TAKEDOWN_SHARE * len(fwb_phishing)),
                                   replace=False)):
        takedown_at.setdefault(int(rng.integers(SERVE_MINUTES)), []).append(
            fwb_phishing[index].root_url)
    return feed_at, takedown_at


# -- tables -------------------------------------------------------------------------


def tables(seed: int, tracer: Optional[Tracer], meter: Meter) -> Rep:
    seeds = SeedBank(seed)
    dataset = build_ground_truth(
        n_per_class=TABLE2_PER_CLASS,
        seed=seeds.child_seed("perfbench.tables.ground_truth"),
    )
    meter.start_work()
    if tracer is not None:
        tracer.phase = "work"

    def checkpoint(_seconds: float, _segment: int) -> None:
        meter.checkpoint()

    with after_each([(similarity, "website_similarity")], meter, checkpoint):
        table1 = analysis.build_table1(
            seed=seeds.child_seed("perfbench.tables.table1"),
            sites_per_class=TABLE1_SITES_PER_CLASS,
            max_pairs=TABLE1_PAIRS,
        )
    meter.checkpoint(force=True)
    table1_end = meter.segment
    # A step is one test page scored by one detector: Table 2's runtime per
    # URL. (Summed over the detectors, steps split by class into two modes,
    # as PhishIntention stops early on most phishing pages, with the median
    # between them; the paper's model alone scores its pages in one 40 ms
    # burst, whose times move with the machine's speed at that moment.)
    predictions: List[tuple] = []

    def predicted(seconds: float, segment: int) -> None:
        predictions.append((seconds, segment))
        meter.checkpoint()

    with after_each(layers.PREDICT_CALLS, meter, predicted):
        table2 = analysis.build_table2(
            dataset.pages, dataset.labels, dataset.web,
            seed=seeds.child_seed("perfbench.tables.table2"),
            n_estimators=TABLE2_ESTIMATORS,
        )
    meter.stop()

    broken = []
    services = sorted(row.fwb for row in table1)
    if services != sorted(TABLE1_PAPER_VALUES):
        broken.append(f"Table 1 services {services}")
    models = [row.model for row in table2]
    if sorted(models) != sorted(TABLE2_MODELS):
        broken.append(f"Table 2 models {models}")
    rows = len(TABLE1_PAPER_VALUES) + len(TABLE2_MODELS)
    return Rep(
        **times(meter, steps=[meter.scaled(*prediction) for prediction in predictions]),
        attempted=rows,
        failed=max(0, rows - len(table1) - len(table2)),
        digest=digest({
            "table1": [(row.fwb, row.n_sites, row.median_similarity) for row in table1],
            "table2": [(row.model, row.accuracy, row.precision, row.recall, row.f1)
                       for row in table2],
        }),
        broken=broken,
        values={"table1_s": meter.work_s(table1_end),
                "table2_s": meter.work_s() - meter.work_s(table1_end)},
    )


WORKLOADS: Dict[str, Callable[[int, Optional[Tracer], Meter], Rep]] = {
    "campaign": campaign,
    "serve": serve,
    "tables": tables,
}
