"""Website code similarity (paper Appendix A).

The paper measures how close FWB phishing pages sit to benign pages built on
the same service (Table 1): for every tag element ``T`` of website *A*, find
the tag of website *B* with the smallest Levenshtein distance; take the
median of those best-match distances (converted to a similarity) in each
direction; the pair similarity is the mean of the two directional medians.

High similarity (Weebly: 79.4%) means template reuse makes code-comparison
detectors ineffective against FWB attacks.

Edit distances come from Myers' bit-vector algorithm (JACM 1999) in Hyyrö's
2003 edit-distance formulation, run on Python ints: one column of the DP is
a pair of bit vectors, and each character of the text updates it with about a
dozen integer operations instead of a row of cell minima. The result is the
exact distance; :func:`levenshtein_reference` keeps the two-row DP as the
oracle the tests and ``benchmarks/bench_similarity.py`` compare against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

import numpy as np

from .dom import Document, Element
from .parser import parse_html


def _match_masks(pattern: str) -> Dict[str, int]:
    """``peq``: for each character, the bit set of its positions in ``pattern``."""
    masks: Dict[str, int] = {}
    bit = 1
    for ch in pattern:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    return masks


def _bit_parallel_distance(peq: Dict[str, int], m: int, text: str) -> int:
    """Edit distance between a pattern of length ``m >= 1`` and ``text``.

    ``peq`` is the pattern's :func:`_match_masks`. ``pv`` / ``mv`` hold the
    +1 / -1 vertical deltas of the current DP column, ``score`` its last
    cell. The ``| 1`` on the shifted horizontal delta is the global-distance
    boundary (row 0 of column ``j`` is ``j``). ``pv`` is masked to ``m``
    bits; no operation carries information downwards, so bits above it never
    matter and the mask only keeps the ints small.
    """
    top = 1 << (m - 1)
    full = (1 << m) - 1
    pv = full
    mv = 0
    score = m
    get = peq.get
    for ch in text:
        eq = get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def levenshtein(a: str, b: str) -> int:
    """Exact edit distance, computed bit-parallel (Myers/Hyyrö).

    The longer string is the bit-vector pattern, so the loop runs over the
    shorter one.

    >>> levenshtein("kitten", "sitting")
    3
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    return _bit_parallel_distance(_match_masks(a), len(a), b)


def levenshtein_reference(a: str, b: str) -> int:
    """Classic edit distance with a two-row dynamic program.

    The oracle for :func:`levenshtein`: the tests and the similarity bench
    compare the bit-parallel kernel against it. Not used on any hot path.

    >>> levenshtein_reference("kitten", "sitting")
    3
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):  # keep the inner loop over the shorter string
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            insert = current[j - 1] + 1
            delete = previous[j] + 1
            replace = previous[j - 1] + (ch_a != ch_b)
            current.append(min(insert, delete, replace))
        previous = current
    return previous[-1]


def levenshtein_ratio(a: str, b: str) -> float:
    """Similarity in [0, 1]: ``1 - distance / max_len``."""
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))


#: Tag shells are truncated to this length before comparison: edit distance
#: over the first ~100 characters of a tag is what discriminates templates,
#: and bounding the string length bounds each bit-vector pattern to 100 bits.
MAX_SHELL_LENGTH = 100


def tag_sequence(doc_or_markup: Union[Document, str]) -> List[str]:
    """Serialize each element of a document into a comparable string.

    Each entry is the element's own markup *shell* (tag plus attributes plus
    direct text), which is what "tag element" comparison in the appendix
    operates on.
    """
    document = (
        doc_or_markup
        if isinstance(doc_or_markup, Document)
        else parse_html(doc_or_markup)
    )
    sequence: List[str] = []
    for element in document.root.iter():
        attrs = "".join(
            f' {name}="{value}"' for name, value in sorted(element.attrs.items())
        )
        direct_text = "".join(
            child.text for child in element.children
            if not isinstance(child, Element)
        ).strip()
        sequence.append(f"<{element.tag}{attrs}>{direct_text}"[:MAX_SHELL_LENGTH])
    return sequence


def _best_match_ratio(tag: str, candidates: List[str],
                      candidate_lengths: np.ndarray) -> float:
    """Best similarity of ``tag`` against candidates, with pruning.

    ``tag`` is the bit-vector pattern: its match masks are built once and
    every candidate runs through the kernel as text. A candidate of length
    ``L`` scores at most ``1 - |n-L| / max(n, L)``; candidates are scanned in
    decreasing order of that bound, so the scan stops as soon as no
    remaining candidate can beat the current best. (Sorting by ``|n-L|``
    alone is not enough: at equal difference the longer candidate has the
    higher bound.)
    """
    n = len(tag)
    if not n:
        return 1.0 if "" in candidates else 0.0
    peq = _match_masks(tag)
    bounds = 1.0 - np.abs(candidate_lengths - n) / np.maximum(candidate_lengths, n)
    best = 0.0
    for index in np.argsort(-bounds, kind="stable").tolist():
        if bounds[index] <= best:
            break  # sorted by bound: nothing later can do better
        candidate = candidates[index]
        distance = _bit_parallel_distance(peq, n, candidate)
        ratio = 1.0 - distance / max(n, len(candidate))
        if ratio > best:
            best = ratio
            if best >= 1.0:
                break
    return best


def _directional_similarity(source: Sequence[str], target: Sequence[str]) -> float:
    """Median over source tags of the best-match similarity into target."""
    if not source or not target:
        return 0.0
    target_list = list(target)
    target_set = set(target_list)
    target_lengths = np.asarray([len(t) for t in target_list])
    memo = {}
    best: List[float] = []
    for tag in source:
        if tag in target_set:  # exact matches short-circuit the O(n*m) scan
            best.append(1.0)
            continue
        if tag not in memo:
            memo[tag] = _best_match_ratio(tag, target_list, target_lengths)
        best.append(memo[tag])
    return float(np.median(best))


#: A page as :func:`website_similarity` takes it: a parsed document, raw
#: markup, or the page's :func:`tag_sequence` already computed.
Page = Union[Document, str, List[str]]


def _tags(page: Page) -> List[str]:
    return page if isinstance(page, list) else tag_sequence(page)


def website_similarity(a: Page, b: Page) -> float:
    """Appendix-A similarity between two websites, in [0, 1].

    ``sim(A,B) = mean(median_T max-match(T→B), median_T max-match(T→A))``.
    """
    seq_a = _tags(a)
    seq_b = _tags(b)
    forward = _directional_similarity(seq_a, seq_b)
    backward = _directional_similarity(seq_b, seq_a)
    return (forward + backward) / 2.0


def median_pairwise_similarity(
    group_a: Iterable[Union[Document, str]],
    group_b: Iterable[Union[Document, str]],
    rng: np.random.Generator,
    max_pairs: int = 200,
) -> float:
    """Median similarity across sampled cross-group pairs (Table 1 cells).

    Comparing every phishing page against every benign page is quadratic;
    the paper's numbers are medians, which sampled pairs estimate well.
    Each page is parsed into its tag sequence once, the first time a pair
    draws it, and reused by every later pair that draws it again.
    """
    list_a = list(group_a)
    list_b = list(group_b)
    if not list_a or not list_b:
        return 0.0
    pairs = min(max_pairs, len(list_a) * len(list_b))
    tags_a: Dict[int, List[str]] = {}
    tags_b: Dict[int, List[str]] = {}
    sims = []
    for _ in range(pairs):
        i = int(rng.integers(len(list_a)))
        j = int(rng.integers(len(list_b)))
        if i not in tags_a:
            tags_a[i] = tag_sequence(list_a[i])
        if j not in tags_b:
            tags_b[j] = tag_sequence(list_b[j])
        sims.append(website_similarity(tags_a[i], tags_b[j]))
    return float(np.median(sims))
