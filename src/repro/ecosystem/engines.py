"""The third-party detection-engine fleet (VirusTotal's ~76 engines).

Each :class:`DetectionEngine` is a heuristic scanner with its own weight
profile (a perturbation of the canonical suspicion weights), sensitivity,
and reaction latency. Engines fall into archetypes mirroring the real
fleet's composition: a few aggressive URL-reputation vendors, a midfield of
generic heuristic scanners, and a long tail of sluggish or narrowly focused
engines. The archetype mix is what produces Figure 7's detection CDF —
self-hosted phishing accumulating a median of ~9 detections in a week while
FWB attacks plateau around ~4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SeedBank, _stable_hash
from ..errors import ConfigError
from .intel import (
    DEFAULT_WEIGHTS,
    SATURATION_RATE,
    UrlIntel,
    signal_sum,
    suspicion_score,
)


@dataclass(frozen=True)
class EngineArchetype:
    """A class of engines sharing behavioural parameters."""

    label: str
    #: Multiplies the suspicion score before thresholding.
    sensitivity: float
    #: Score (after sensitivity) above which detection becomes likely.
    threshold: float
    #: Softness of the detection logistic around the threshold. Real
    #: engines are *weak* individual classifiers; a wide temperature keeps
    #: the per-engine response shallow so the fleet disagrees, as VT
    #: engines demonstrably do (Peng et al. 2019).
    temperature: float
    #: Detection-latency median in minutes, for a score at threshold.
    median_latency_minutes: float
    latency_sigma: float
    #: Relative jitter applied to each weight in the engine's profile.
    weight_jitter: float


#: The fleet composition: (archetype, count). Total = 76 engines.
FLEET_MIX: Tuple[Tuple[EngineArchetype, int], ...] = (
    (EngineArchetype("aggressive", 0.85, 0.78, 0.32, 120.0, 1.0, 0.20), 8),
    (EngineArchetype("mainstream", 0.77, 1.08, 0.32, 300.0, 1.1, 0.25), 22),
    (EngineArchetype("conservative", 0.68, 1.40, 0.35, 700.0, 1.2, 0.30), 28),
    (EngineArchetype("narrow", 0.60, 1.60, 0.35, 1500.0, 1.3, 0.40), 18),
)


class DetectionEngine:
    """One heuristic anti-phishing engine.

    ``evaluate`` is deterministic per (engine, URL): the same URL always
    yields the same verdict and latency from the same engine, as real
    engines re-serve cached verdicts. VirusTotal scores the whole fleet
    through :class:`EngineFleet`; ``evaluate`` is its per-engine reference.
    """

    def __init__(
        self,
        name: str,
        archetype: EngineArchetype,
        rng: np.random.Generator,
    ) -> None:
        self.name = name
        self.archetype = archetype
        # Perturb the canonical weights into an engine-specific profile.
        self.weights: Dict[str, float] = {
            key: value * float(1.0 + archetype.weight_jitter * rng.normal())
            for key, value in DEFAULT_WEIGHTS.items()
        }
        self._seed = int(rng.integers(0, 2 ** 63 - 1))
        self._verdicts: Dict[str, Tuple[bool, Optional[int]]] = {}

    def _url_rng(self, url_hash: int) -> np.random.Generator:
        """The engine's stream for one URL, keyed by its ``_stable_hash``."""
        return np.random.default_rng(np.random.SeedSequence([self._seed, url_hash]))

    def _detection_time(
        self, rng: np.random.Generator, margin: float, first_seen: int
    ) -> int:
        """When a detecting engine flags the URL, from its stream's 2nd draw."""
        # Stronger signals are caught sooner.
        stretch = max(0.25, 1.0 - margin * 1.5)
        median = self.archetype.median_latency_minutes * stretch
        latency = rng.lognormal(np.log(median), self.archetype.latency_sigma)
        return first_seen + max(2, int(round(latency)))

    def _odds(self, intel: UrlIntel) -> Tuple[float, float]:
        """(score margin over the threshold, detection probability)."""
        score = suspicion_score(intel, self.weights) * self.archetype.sensitivity
        margin = score - self.archetype.threshold
        # Smooth probability around the threshold: engines near their
        # operating point behave inconsistently across URLs.
        probability = 1.0 / (1.0 + np.exp(-margin / self.archetype.temperature))
        # Engines do not fire on signal-free URLs: the logistic's tail is
        # gated so a zero-suspicion page cannot accumulate detections.
        probability *= min(1.0, score / 0.10)
        return margin, probability

    def evaluate(self, intel: UrlIntel, first_seen: int) -> Tuple[bool, Optional[int]]:
        """(detects, detection_time) for a URL first observed at ``first_seen``.

        ``detection_time`` is absolute simulation minutes; ``None`` when the
        engine never flags the URL.
        """
        key = str(intel.url)
        if key in self._verdicts:
            return self._verdicts[key]
        rng = self._url_rng(_stable_hash(key))
        margin, probability = self._odds(intel)
        if rng.random() >= probability:
            verdict: Tuple[bool, Optional[int]] = (False, None)
        else:
            verdict = (True, self._detection_time(rng, margin, first_seen))
        self._verdicts[key] = verdict
        return verdict


# -- the first draw of every (engine, URL) stream, fleet-wide -----------------
#
# An engine's verdict on a URL is the first ``random()`` of
# ``default_rng(SeedSequence([engine seed, url hash]))``. Building 76 such
# generators per URL dominated VirusTotal's first sight of it, so the fleet
# replays NumPy's seeding arithmetic 76 engines wide instead:
# SeedSequence's uint32 entropy mixing into a pool of 4 words,
# ``generate_state(4, uint64)``, PCG64 seeding and the first XSL-RR output.
# The constants are NumPy's; uint32 array arithmetic wraps mod 2**32 as
# SeedSequence's does. Pools are (word, engine) arrays.

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_SQUARED = _PCG_MULT * _PCG_MULT & _MASK128


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


#: SeedSequence's hash constant at each of mix_entropy's 16 ``hashmix``
#: calls (4 load the pool, 12 cross-mix it) and the one after the last,
#: then the same for generate_state's 8 output words; as columns.
_HASH_A = _hash_consts(0x43B0D7E5, 0x931E8875, 17)[:, None]
_HASH_B = _hash_consts(0x8B51F9DD, 0x58F38DED, 9)[:, None]


def _hashmix(value: np.ndarray, calls: slice) -> np.ndarray:
    """SeedSequence's ``hashmix`` as mix_entropy's ``calls``-th calls, one
    per row of the result."""
    after = slice(calls.start + 1, calls.stop + 1)
    value = (value ^ _HASH_A[calls]) * _HASH_A[after]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _cross_mix(pool: np.ndarray, src: int) -> None:
    """mix_entropy's cross-mixing from pool word ``src`` into the other three."""
    dst = [word for word in range(4) if word != src]
    calls = slice(4 + 3 * src, 7 + 3 * src)
    pool[dst] = _mix(pool[dst], _hashmix(pool[src], calls))


def _entropy_words(value: int) -> List[int]:
    """``value`` as SeedSequence splits it: little-endian uint32 words, >= 1."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _FirstDraws:
    """First ``random()`` of ``SeedSequence([seed, url_hash])`` for many seeds.

    The entropy must be exactly the pool's four words: two per seed, two
    for the URL hash. The mixing that depends on the seeds alone is done
    once here; a call mixes in the URL hash.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        words = [_entropy_words(seed) for seed in seeds]
        if any(len(w) != 2 for w in words):
            raise ValueError("every seed must span exactly two uint32 words")
        seed_words = np.array(words, dtype=np.uint32).reshape(-1, 2).T
        seed_words = _hashmix(seed_words, slice(0, 2))
        # Cross-mixing rounds 0 and 1 hash the seed words into the others.
        from_word0 = _hashmix(seed_words[0], slice(4, 7))
        seed_words[1] = _mix(seed_words[1], from_word0[0])
        from_word1 = _hashmix(seed_words[1], slice(7, 10))
        seed_words[0] = _mix(seed_words[0], from_word1[0])
        self._seed_words = seed_words
        #: What rounds 0 and 1 mix into pool words 2 and 3.
        self._into_url_words = (from_word0[1:], from_word1[1:])

    def __call__(self, url_hash: int) -> np.ndarray:
        words = _entropy_words(url_hash)
        if len(words) != 2:
            raise ValueError(f"url hash {url_hash} spans {len(words)} words, not 2")
        pool = np.empty((4, self._seed_words.shape[1]), dtype=np.uint32)
        pool[:2] = self._seed_words
        url_words = _hashmix(np.array(words, dtype=np.uint32)[:, None], slice(2, 4))
        into_first, into_second = self._into_url_words
        pool[2:] = _mix(_mix(url_words, into_first), into_second)
        _cross_mix(pool, 2)
        _cross_mix(pool, 3)
        # generate_state(4, uint64): 8 uint32 words cycling over the pool,
        # read as little-endian uint64 pairs.
        out = (np.concatenate([pool, pool]) ^ _HASH_B[:-1]) * _HASH_B[1:]
        out = (out ^ (out >> 16)).astype(np.uint64)
        state = (out[0::2] | (out[1::2] << 32)).astype(object)
        # PCG64 seeding then one step: state = 0, inc = 2 * initseq + 1,
        # step, state += initstate, step, step (the first next64).
        # All of it is mod 2**128, so one mask at the end serves.
        initstate = (state[0] << 64) | state[1]
        inc = (state[2] << 65) | (state[3] << 1) | 1
        pcg = ((initstate + inc) * _PCG_MULT_SQUARED + inc * (_PCG_MULT + 1)) & _MASK128
        # XSL-RR output, then random() = (next64 >> 11) * 2**-53.
        high = np.array(pcg >> 64, dtype=np.uint64)
        xored = high ^ np.array(pcg & _MASK64, dtype=np.uint64)
        rot = high >> 58
        next64 = (xored >> rot) | (xored << ((64 - rot) & 63))
        return (next64 >> 11) * (1.0 / 9007199254740992.0)


#: Detection time of an engine that never flags the URL.
NEVER = np.iinfo(np.int64).max


class EngineFleet:
    """The engine fleet as parallel arrays, scored 76 engines wide per URL.

    ``detection_times(intel, first_seen)[i]`` equals
    ``engines[i].evaluate(intel, first_seen)``'s time bit for bit, with
    :data:`NEVER` for engines that never flag the URL.
    """

    def __init__(self, engines: Sequence[DetectionEngine]) -> None:
        self.engines = list(engines)
        self.names = [engine.name for engine in self.engines]
        #: One column of per-engine weights per name, in DEFAULT_WEIGHTS order.
        self.columns = {
            key: np.array([engine.weights[key] for engine in self.engines])
            for key in DEFAULT_WEIGHTS
        }
        archetypes = [engine.archetype for engine in self.engines]
        self.sensitivity = np.array([a.sensitivity for a in archetypes])
        self.threshold = np.array([a.threshold for a in archetypes])
        self.temperature = np.array([a.temperature for a in archetypes])
        # Engines whose seed is below 2**32 feed SeedSequence fewer entropy
        # words than the kernel assumes; they draw through their generator.
        seeds = [engine._seed for engine in self.engines]
        short = np.array([seed >> 32 == 0 for seed in seeds], dtype=bool)
        self._short_seed = np.flatnonzero(short)
        self._kernel_index = np.flatnonzero(~short)
        self._draws = _FirstDraws([seeds[i] for i in self._kernel_index])

    def first_uniforms(self, url_hash: int) -> np.ndarray:
        """Every engine's first ``random()`` on its (seed, ``url_hash``) stream."""
        uniforms = np.empty(len(self.engines))
        # A hash below 2**32 is one entropy word: every engine draws itself.
        slow: Sequence[int] = range(len(self.engines))
        if url_hash >> 32:
            uniforms[self._kernel_index] = self._draws(url_hash)
            slow = self._short_seed
        for i in slow:
            uniforms[i] = self.engines[i]._url_rng(url_hash).random()
        return uniforms

    def _odds(self, intel: UrlIntel) -> Tuple[np.ndarray, np.ndarray]:
        """``DetectionEngine._odds`` for every engine, one lane each."""
        if intel.reachable:
            raw = signal_sum(intel, self.columns)
            suspicion = np.where(raw > 0.0, 1.0 - np.exp(-SATURATION_RATE * raw), 0.0)
        else:
            suspicion = np.zeros(len(self.engines))
        score = suspicion * self.sensitivity
        margin = score - self.threshold
        probability = 1.0 / (1.0 + np.exp(-margin / self.temperature))
        probability *= np.minimum(1.0, score / 0.10)
        return margin, probability

    def detection_times(self, intel: UrlIntel, first_seen: int) -> np.ndarray:
        """Every engine's detection time (absolute minutes) for one URL."""
        times = np.full(len(self.engines), NEVER, dtype=np.int64)
        margin, probability = self._odds(intel)
        if not probability.any():
            return times
        url_hash = _stable_hash(str(intel.url))
        for i in np.flatnonzero(self.first_uniforms(url_hash) < probability):
            engine = self.engines[i]
            rng = engine._url_rng(url_hash)
            rng.random()  # the verdict draw, already taken above
            times[i] = engine._detection_time(rng, float(margin[i]), first_seen)
        return times


def default_engine_fleet(
    rng_factory: Optional[SeedBank] = None,
) -> List[DetectionEngine]:
    """Build the 76-engine fleet with deterministic per-engine profiles."""
    factory = rng_factory if rng_factory is not None else SeedBank()
    fleet: List[DetectionEngine] = []
    for archetype, count in FLEET_MIX:
        for index in range(count):
            name = f"{archetype.label}-{index:02d}"
            fleet.append(
                DetectionEngine(
                    name=name,
                    archetype=archetype,
                    rng=factory.child(f"ecosystem.engine.{name}"),
                )
            )
    if len(fleet) != 76:
        raise ConfigError(f"expected 76 engines, built {len(fleet)}")
    return fleet
