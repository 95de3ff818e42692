"""DOM node model.

Feature extraction (paper §4.2) needs structural facts about pages: links,
login forms and password inputs, ``<noindex>`` meta tags, FWB banners hidden
with ``visibility:hidden``. The classes here provide the tree and its
traversal and inspection primitives; ``facts.py`` reads the facts from it in
one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Union

VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input",
     "link", "meta", "param", "source", "track", "wbr"}
)


@dataclass
class TextNode:
    """A run of character data."""

    text: str

    def to_html(self) -> str:
        return self.text

    def text_content(self) -> str:
        return self.text


@dataclass
class Element:
    """An HTML element with attributes and ordered children."""

    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)
    children: List[Union["Element", TextNode]] = field(default_factory=list)

    # -- construction ---------------------------------------------------------

    def append(self, node: Union["Element", TextNode]) -> "Element":
        self.children.append(node)
        return self

    def append_text(self, text: str) -> "Element":
        self.children.append(TextNode(text))
        return self

    # -- attribute helpers ----------------------------------------------------

    def get(self, name: str, default: str = "") -> str:
        return self.attrs.get(name.lower(), default)

    def has_attr(self, name: str) -> bool:
        return name.lower() in self.attrs

    @property
    def id(self) -> str:
        return self.get("id")

    @property
    def classes(self) -> List[str]:
        return self.get("class").split()

    def style_declarations(self) -> Dict[str, str]:
        """Parse the inline ``style`` attribute into property → value."""
        result: Dict[str, str] = {}
        for chunk in self.get("style").split(";"):
            if ":" in chunk:
                prop, _, value = chunk.partition(":")
                result[prop.strip().lower()] = value.strip().lower()
        return result

    def is_hidden(self) -> bool:
        """Hidden inline: ``visibility:hidden``, ``display:none`` or ``hidden``.

        The paper highlights phishers hiding FWB banners by injecting a
        ``visibility:hidden`` declaration into the banner's ``<div>``.
        """
        style = self.style_declarations()
        if style.get("visibility") == "hidden" or style.get("display") == "none":
            return True
        return self.has_attr("hidden")

    # -- traversal ------------------------------------------------------------

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def find_all(
        self,
        tag: Optional[str] = None,
        predicate: Optional[Callable[["Element"], bool]] = None,
    ) -> List["Element"]:
        out = []
        for element in self.iter():
            if tag is not None and element.tag != tag:
                continue
            if predicate is not None and not predicate(element):
                continue
            out.append(element)
        return out

    def find(
        self,
        tag: Optional[str] = None,
        predicate: Optional[Callable[["Element"], bool]] = None,
    ) -> Optional["Element"]:
        for element in self.iter():
            if tag is not None and element.tag != tag:
                continue
            if predicate is not None and not predicate(element):
                continue
            return element
        return None

    def text_content(self) -> str:
        parts = []
        for child in self.children:
            parts.append(child.text_content())
        return "".join(parts)

    # -- serialization ----------------------------------------------------------

    def to_html(self) -> str:
        attrs = "".join(
            f' {name}="{value}"' if value != "" else f" {name}"
            for name, value in self.attrs.items()
        )
        if self.tag in VOID_TAGS:
            return f"<{self.tag}{attrs}>"
        inner = "".join(child.to_html() for child in self.children)
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"


@dataclass
class Document:
    """A parsed HTML document."""

    root: Element

    @property
    def title(self) -> str:
        node = self.root.find("title")
        return node.text_content().strip() if node is not None else ""

    def find_all(self, tag: Optional[str] = None, predicate=None) -> List[Element]:
        return self.root.find_all(tag, predicate)

    def find(self, tag: Optional[str] = None, predicate=None) -> Optional[Element]:
        return self.root.find(tag, predicate)

    def to_html(self) -> str:
        return "<!DOCTYPE html>" + self.root.to_html()

    # -- page-level queries used across the library ----------------------------

    def forms(self) -> List[Element]:
        return self.root.find_all("form")

    def inputs(self) -> List[Element]:
        return self.root.find_all("input")

    def password_inputs(self) -> List[Element]:
        return self.root.find_all("input", predicate=is_password_input)

    def credential_inputs(self) -> List[Element]:
        return self.root.find_all("input", predicate=is_credential_input)


# The per-element rules, shared with the page-facts pass (``facts.py``).

def is_password_input(element: Element) -> bool:
    return element.get("type").lower() == "password"


def is_credential_input(element: Element) -> bool:
    """An input asking for sensitive data (§3: email, password, SSN...)."""
    if element.get("type").lower() in ("password", "email", "tel"):
        return True
    name = (element.get("name") + " " + element.get("placeholder")).lower()
    return any(token in name for token in _CREDENTIAL_NAME_TOKENS)


_CREDENTIAL_NAME_TOKENS = (
    "pass", "email", "user", "login", "ssn", "card", "cvv",
    "account", "pin", "phone", "address", "social",
)
