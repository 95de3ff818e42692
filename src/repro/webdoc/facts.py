"""Page facts: everything the hot path asks of a parsed page, read in one pass.

The classifier features (§4.2), the ecosystem's intel signals, the §5.5
evasive heuristics and the browser all read the same few facts from a page.
:meth:`PageFacts.of` reads them in one post-order traversal (subtree text
comes from the same pass; embedded stylesheets are scanned once). The
visual renderer and PhishIntention keep their own walks: their cost is part
of what Table 2's runtime column measures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, NamedTuple, Tuple

from .dom import Document, Element, TextNode, is_credential_input, is_password_input

#: Anchor targets that trigger a file download (the §5.5 drive-by vector).
DOWNLOAD_EXTENSIONS = (".exe", ".zip", ".apk", ".scr", ".iso", ".docm", ".xlsm", ".msi")
_BANNER_TEXT_HINTS = (
    "powered by", "create your own", "create a free website", "made with",
    "report abuse", "blog at", "free website",
)
#: A ``<style>`` rule that suppresses a class/id selector (banner hiding).
_HIDING_RULE = re.compile(
    r"([.#][\w-]+)\s*\{[^}]*(?:display\s*:\s*none|visibility\s*:\s*hidden)[^}]*\}",
    re.IGNORECASE,
)


def credential_form(n_password: int, n_credential: int) -> bool:
    """The credential-form rule: a password input, or two credential inputs."""
    return n_password > 0 or n_credential >= 2


def stylesheet_hidden_selectors(css: str) -> List[str]:
    """Class/id names (without ``.``/``#``) that one stylesheet hides."""
    return [match.group(1)[1:] for match in _HIDING_RULE.finditer(css)]


class Anchor(NamedTuple):
    href: str
    classes: Tuple[str, ...]
    text: str

    @property
    def is_button(self) -> bool:
        classes = " ".join(self.classes).lower()
        return "btn" in classes or "button" in classes


class Form(NamedTuple):
    action: str
    has_password: bool


@dataclass
class PageFacts:
    """What the features, intel, §5.5 heuristics and browser read from a page."""

    #: Every ``<a>`` and every ``<form>``, in document order.
    anchors: List[Anchor] = field(default_factory=list)
    forms: List[Form] = field(default_factory=list)
    n_password_inputs: int = 0
    n_credential_inputs: int = 0
    #: Every ``<iframe>``'s ``src`` ("" when absent) and every download
    #: anchor's ``href``, in document order.
    iframe_srcs: List[str] = field(default_factory=list)
    download_hrefs: List[str] = field(default_factory=list)
    n_images: int = 0
    #: Stripped text of the first ``<title>``; "" without one.
    title: str = ""
    #: A robots/googlebot ``noindex`` meta tag or a ``<noindex>`` element.
    noindex: bool = False
    #: Some element, or some FWB banner, is hidden inline or by a stylesheet.
    any_hidden: bool = False
    fwb_banner_hidden: bool = False

    @property
    def has_credential_form(self) -> bool:
        return credential_form(self.n_password_inputs, self.n_credential_inputs)

    def link_out_button(self, host: str) -> bool:
        """Does a button's absolute http(s) href name a host other than ``host``?"""
        return any(
            anchor.is_button and anchor.href.startswith(("http://", "https://"))
            and anchor.href.split("//", 1)[1].split("/", 1)[0] != host
            for anchor in self.anchors
        )

    @classmethod
    def of(cls, document: Document) -> "PageFacts":
        """Read every fact of ``document`` in one traversal."""
        facts = cls()
        titles: List[str] = []
        # Hiding by stylesheet is decided once every <style> has been read.
        keyed: List[Element] = []
        banners: List[Element] = []
        stylesheets: List[str] = []

        def visit(element: Element) -> str:
            tag, attrs = element.tag, element.attrs
            if tag == "a":
                slot = len(facts.anchors)
                facts.anchors.append(None)  # filled in once its text is known
                href = attrs.get("href", "")
                if "download" in attrs or href.lower().endswith(DOWNLOAD_EXTENSIONS):
                    facts.download_hrefs.append(href)
            elif tag == "form":
                slot = len(facts.forms)
                facts.forms.append(None)
                passwords_before = facts.n_password_inputs
            elif tag == "input":
                facts.n_password_inputs += is_password_input(element)
                facts.n_credential_inputs += is_credential_input(element)
            elif tag == "iframe":
                facts.iframe_srcs.append(attrs.get("src", ""))
            elif tag == "img":
                facts.n_images += 1
            elif tag == "noindex" or tag == "meta" and (
                attrs.get("name", "").lower() in ("robots", "googlebot")
                and "noindex" in attrs.get("content", "").lower()
            ):
                facts.noindex = True
            elif tag == "title":
                slot = len(titles)
                titles.append("")
            is_keyed = "class" in attrs or "id" in attrs
            if is_keyed:
                keyed.append(element)
            if not facts.any_hidden and ("style" in attrs or "hidden" in attrs):
                facts.any_hidden = element.is_hidden()

            text = "".join([
                child.text if type(child) is TextNode else visit(child)
                for child in element.children
            ])
            if tag == "a":
                facts.anchors[slot] = Anchor(href, tuple(element.classes), text)
            elif tag == "form":
                has_password = facts.n_password_inputs > passwords_before
                facts.forms[slot] = Form(attrs.get("action", ""), has_password)
            elif tag == "title":
                titles[slot] = text.strip()
            elif tag == "style":
                stylesheets.append(text)
            if (is_keyed and (
                "fwb-banner" in element.classes or element.id == "fwb-banner"
            )) or (tag in ("div", "footer") and any(
                hint in text.lower() for hint in _BANNER_TEXT_HINTS
            )):
                banners.append(element)
            return text

        visit(document.root)
        facts.title = titles[0] if titles else ""
        selectors = {name for css in stylesheets for name in stylesheet_hidden_selectors(css)}

        def sheet_hidden(element: Element) -> bool:
            return bool(selectors.intersection(element.classes)) or element.id in selectors

        if selectors:
            facts.any_hidden = facts.any_hidden or any(map(sheet_hidden, keyed))
        facts.fwb_banner_hidden = any(
            banner.is_hidden() or sheet_hidden(banner) for banner in banners
        )
        return facts
