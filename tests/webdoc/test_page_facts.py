"""PageFacts: one traversal reads every page fact the hot path asks for."""

from repro.simnet.browser import PageSnapshot
from repro.simnet.url import parse_url
from repro.webdoc import parse_html
from repro.webdoc.facts import Anchor, Form, PageFacts, credential_form


def facts(markup: str) -> PageFacts:
    return PageFacts.of(parse_html(markup))


class TestStructure:
    def test_anchors_in_document_order_with_subtree_text(self):
        page = facts(
            '<body><a class="btn Big" href="/one">Sign <b>in</b> now</a>'
            '<div><p><a href="https://x.test/two">two</a></p></div><a>bare</a></body>'
        )
        assert page.anchors == [
            Anchor("/one", ("btn", "Big"), "Sign in now"),
            Anchor("https://x.test/two", (), "two"),
            Anchor("", (), "bare"),
        ]
        assert [a.is_button for a in page.anchors] == [True, False, False]

    def test_forms_know_whether_they_hold_a_password(self):
        page = facts(
            '<body><form action="/a"><div><input type="PASSWORD"></div></form>'
            '<form action=" https://x.test/b "><input type="email"></form>'
            '<input type="password"></body>'
        )
        assert page.forms == [Form("/a", True), Form(" https://x.test/b ", False)]
        assert page.n_password_inputs == 2
        assert page.n_credential_inputs == 3

    def test_first_title_wins_and_missing_title_is_empty(self):
        assert facts("<title>  One </title><title>Two</title>").title == "One"
        assert facts("<body><p>x</p></body>").title == ""

    def test_iframes_downloads_and_images(self):
        page = facts(
            '<body><iframe src="/f"></iframe><iframe></iframe>'
            '<a href="/Setup.EXE">a</a><a href="/doc" download>b</a><a href="/x.pdf">c</a>'
            '<img src="1"><img src="2"></body>'
        )
        assert page.iframe_srcs == ["/f", ""]
        assert page.download_hrefs == ["/Setup.EXE", "/doc"]
        assert page.n_images == 2

    def test_noindex_by_meta_or_element(self):
        assert facts('<meta name="GoogleBot" content="NOINDEX">').noindex
        assert facts("<noindex></noindex><body>x</body>").noindex
        assert not facts('<meta name="robots" content="nofollow">').noindex
        assert not facts('<meta name="description" content="noindex">').noindex

    def test_banner_found_by_text_in_a_footer(self):
        page = facts(
            '<body><footer style="display:none"><p>Made with <b>Wix</b></p></footer></body>'
        )
        assert page.fwb_banner_hidden and page.any_hidden
        visible = facts("<body><footer><p>Made with Wix</p></footer></body>")
        assert not visible.fwb_banner_hidden and not visible.any_hidden


class TestRules:
    def test_credential_form_rule(self):
        assert credential_form(1, 0)
        assert credential_form(0, 2)
        assert not credential_form(0, 1)
        assert facts('<input type="email"><input name="user_pass">').has_credential_form
        assert not facts('<input type="text" name="q">').has_credential_form

    def test_link_out_button_compares_the_target_host_exactly(self):
        page = facts(
            '<body><a class="button" href="https://evil.test/go?next=site.test">Go</a></body>'
        )
        assert page.link_out_button("site.test")
        assert not page.link_out_button("evil.test")
        relative = facts('<body><a class="btn" href="/login">Go</a></body>')
        assert not relative.link_out_button("site.test")
        plain = facts('<body><a href="https://evil.test/">Go</a></body>')
        assert not plain.link_out_button("site.test")


def test_every_snapshot_carries_its_page_facts():
    document = parse_html('<title>T</title><body><input type="password"></body>')
    snapshot = PageSnapshot(
        url=parse_url("https://site.test/"), fetched_at=0, markup="",
        document=document, certificate=None,
    )
    assert snapshot.facts == PageFacts.of(document)
    assert snapshot.facts.title == "T" and snapshot.facts.has_credential_form
