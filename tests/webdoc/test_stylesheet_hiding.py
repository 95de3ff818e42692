"""Stylesheet-based element hiding (the stealthier banner obfuscation)."""

import numpy as np
import pytest

from repro.core.features import FeatureExtractor
from repro.simnet.fwb import fwb_by_name
from repro.simnet.url import parse_url
from repro.sitegen.templates import ContentBlock, PageSpec, TemplateLibrary
from repro.webdoc import parse_html
from repro.webdoc.facts import PageFacts, stylesheet_hidden_selectors

SHEET_HIDDEN = """
<html><head><style>
.fwb-banner { display: none }
#secret { visibility: hidden; color: red }
</style></head><body>
<div class="fwb-banner">Powered by Weebly</div>
<p id="secret">hidden text</p>
<p id="visible">shown</p>
</body></html>
"""


class TestStylesheetHiding:
    def test_hidden_selectors_extracted(self):
        css = parse_html(SHEET_HIDDEN).find("style").text_content()
        assert set(stylesheet_hidden_selectors(css)) == {"fwb-banner", "secret"}

    def test_is_element_hidden_by_class_and_id(self):
        by_class = PageFacts.of(parse_html(SHEET_HIDDEN))
        assert by_class.fwb_banner_hidden and by_class.any_hidden
        by_id = PageFacts.of(parse_html(
            "<style>#fwb-banner{display:none}</style>"
            '<body><div id="fwb-banner">Powered by Weebly</div></body>'
        ))
        assert by_id.fwb_banner_hidden
        other = PageFacts.of(parse_html(
            "<style>#secret{visibility:hidden}</style>"
            '<body><p id="secret">x</p><div class="fwb-banner">Made with Wix</div></body>'
        ))
        assert other.any_hidden and not other.fwb_banner_hidden
        unmatched = PageFacts.of(parse_html(
            '<style>#gone{display:none}</style><body><p id="visible">x</p></body>'
        ))
        assert not unmatched.any_hidden

    def test_has_hidden_elements(self):
        assert PageFacts.of(parse_html(SHEET_HIDDEN)).any_hidden
        assert not PageFacts.of(parse_html("<body><p>plain</p></body>")).any_hidden

    def test_inline_hiding_still_detected(self):
        for markup in (
            '<body><div style="display:none">x</div></body>',
            '<body><div style="visibility: hidden">x</div></body>',
            '<body><div hidden="hidden">x</div></body>',
            "<body><div hidden>x</div></body>",
        ):
            document = parse_html(markup)
            assert document.find("div").is_hidden(), markup
            assert PageFacts.of(document).any_hidden, markup

    def test_stylesheet_after_the_element_still_hides_it(self):
        facts = PageFacts.of(parse_html(
            '<body><div class="fwb-banner">Powered by Weebly</div>'
            "<style>.fwb-banner{display:none}</style></body>"
        ))
        assert facts.fwb_banner_hidden and facts.any_hidden


class TestGeneratorIntegration:
    @pytest.mark.parametrize("style", ["inline", "stylesheet"])
    def test_both_obfuscation_styles_detected_by_extractor(self, style, rng):
        service = fwb_by_name("weebly")
        spec = PageSpec(
            title="Acme - Sign In",
            blocks=[ContentBlock("heading", text="Acme")],
            obfuscate_banner=True,
            obfuscation_style=style,
        )
        markup = TemplateLibrary().render(service, spec, rng)
        url = parse_url("https://acme-login.weebly.com/")
        features = FeatureExtractor().extract(url, markup)
        assert features.values["obfuscated_fwb_banner"] == 1.0, style

    def test_unobfuscated_banner_not_flagged(self, rng):
        service = fwb_by_name("weebly")
        spec = PageSpec(
            title="Sunny Bakery",
            blocks=[ContentBlock("heading", text="Sunny Bakery")],
            obfuscate_banner=False,
        )
        markup = TemplateLibrary().render(service, spec, rng)
        url = parse_url("https://sunny-bakery.weebly.com/")
        features = FeatureExtractor().extract(url, markup)
        assert features.values["obfuscated_fwb_banner"] == 0.0

    def test_phishing_generator_emits_both_styles(self, web, rng):
        from repro.sitegen import PhishingSiteGenerator
        from repro.sitegen.phishing import PhishingMixture

        generator = PhishingSiteGenerator(
            mixture=PhishingMixture(banner_obfuscation_rate=1.0)
        )
        provider = web.fwb_providers["weebly"]
        styles = set()
        for _ in range(40):
            spec = generator.sample_spec(provider.service, rng)
            styles.add(spec.obfuscation_style)
        assert styles == {"inline", "stylesheet"}
