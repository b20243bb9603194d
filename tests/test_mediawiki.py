import http.server
import json
import os
import subprocess
import sys
import threading
import urllib.parse
from pathlib import Path

import pytest

from profaudit import mediawiki
from profaudit.cli import main
from profaudit.mediawiki import FetchError, RateLimiter, WikiClient, strip_wikitext


class FakeResponse:
    def __init__(self, payload, status_code=200):
        self._payload = payload
        self.status_code = status_code

    def json(self):
        return self._payload


class FakeSession:
    """Recorded-fixture transport keyed on (titles, prop). A list of
    payloads answers successive requests for one key, in order."""

    def __init__(self, fixtures, failures=0):
        self.fixtures = fixtures
        self.failures = failures
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append(dict(params))
        if self.failures > 0:
            self.failures -= 1
            return FakeResponse({}, status_code=503)
        payload = self.fixtures[(params["titles"], params["prop"])]
        if isinstance(payload, list):
            payload = payload.pop(0)
        return FakeResponse(payload)


def page_payload(page):
    return {"query": {"pages": [page]}}


ARTICLE_PROPS = "info|categories|links|images|revisions"

LEHRER_FIXTURE = {
    ("Lehrer", ARTICLE_PROPS): page_payload({
        "pageid": 42,
        "title": "Lehrer",
        "categories": [{"title": "Kategorie:Beruf"},
                       {"title": "Kategorie:Pädagogik"}],
        "links": [{"title": "Heinrich Heine"}, {"title": "Schule"}],
        "images": [{"title": "Datei:Klasse.jpg"},
                   {"title": "Datei:Logo.svg"},
                   {"title": "Datei:Klein.jpg"}],
        "revisions": [{"slots": {"main": {"content":
            "Ein '''Lehrer''' unterrichtet. [[Heinrich Heine]] schrieb."}}}],
    }),
    ("Datei:Klasse.jpg|Datei:Logo.svg|Datei:Klein.jpg", "imageinfo"): {
        "query": {"pages": [
            {"title": "Datei:Klasse.jpg", "imageinfo": [{"width": 640}]},
            {"title": "Datei:Logo.svg", "imageinfo": [{"width": 512}]},
            {"title": "Datei:Klein.jpg", "imageinfo": [{"width": 80}]},
        ]}
    },
}


def make_client(fixtures, **kw):
    session = FakeSession(fixtures, failures=kw.pop("failures", 0))
    client = WikiClient(endpoint="https://example.test/api.php",
                        session=session, rate=RateLimiter(0),
                        backoff=0.0, **kw)
    return client, session


class TestFetch:
    def test_article_with_images(self):
        client, _ = make_client(LEHRER_FIXTURE)
        rec = client.fetch_article("Lehrer")
        assert rec.exists and not rec.is_redirect
        assert rec.categories == frozenset({"Beruf", "Pädagogik"})
        assert rec.outlinks == ("Heinrich Heine", "Schule")
        assert len(rec.images) == 3
        # the types a loaded snapshot record has
        assert ([type(f) for f in (rec.categories, rec.outlinks, rec.images)]
                == [frozenset, tuple, tuple])
        widths = {i.filename: i.width for i in rec.images}
        assert widths == {"Klasse.jpg": 640, "Logo.svg": 512, "Klein.jpg": 80}
        formats = {i.filename: i.media_format for i in rec.images}
        assert formats["Logo.svg"] == "svg"
        assert "Lehrer unterrichtet" in rec.plain_text
        assert "'''" not in rec.plain_text

    def test_missing_title(self):
        fixtures = {("Nix", ARTICLE_PROPS): page_payload(
            {"title": "Nix", "missing": True})}
        client, _ = make_client(fixtures)
        rec = client.fetch_article("Nix")
        assert not rec.exists
        assert rec.plain_text == ""

    def test_redirect_page(self):
        fixtures = {("Lehrerin", ARTICLE_PROPS): page_payload({
            "pageid": 7, "title": "Lehrerin",
            "revisions": [{"slots": {"main": {
                "content": "#WEITERLEITUNG [[Lehrer]]"}}}],
        })}
        client, _ = make_client(fixtures)
        rec = client.fetch_article("Lehrerin")
        assert rec.redirect_target == "Lehrer"
        assert rec.plain_text == ""

    def test_continued_lists_joined(self):
        # a response cut at the list limits, then the rest of the lists
        first = {"continue": {"plcontinue": "42|0|Schule",
                              "clcontinue": "42|Pädagogik", "continue": "||"},
                 "query": {"pages": [{
                     "pageid": 42, "title": "Lehrer",
                     "categories": [{"title": "Kategorie:Beruf"}],
                     "links": [{"title": "Heinrich Heine"}],
                     "images": [{"title": "Datei:Klasse.jpg"}],
                     "revisions": [{"slots": {"main": {"content": "Text."}}}],
                 }]}}
        second = {"query": {"pages": [{
            "pageid": 42, "title": "Lehrer",
            "categories": [{"title": "Kategorie:Pädagogik"}],
            "links": [{"title": "Schule"}],
            "images": [{"title": "Datei:Logo.svg"}],
        }]}}
        fixtures = {
            ("Lehrer", ARTICLE_PROPS): [first, second],
            ("Datei:Klasse.jpg|Datei:Logo.svg", "imageinfo"): {
                "query": {"pages": [
                    {"title": "Datei:Klasse.jpg",
                     "imageinfo": [{"width": 640}]},
                    {"title": "Datei:Logo.svg",
                     "imageinfo": [{"width": 512}]},
                ]}},
        }
        client, session = make_client(fixtures)
        rec = client.fetch_article("Lehrer")
        assert rec.outlinks == ("Heinrich Heine", "Schule")
        assert rec.categories == frozenset({"Beruf", "Pädagogik"})
        assert [i.filename for i in rec.images] == ["Klasse.jpg", "Logo.svg"]
        assert rec.plain_text == "Text."
        assert "plcontinue" not in session.calls[0]
        assert session.calls[1]["plcontinue"] == "42|0|Schule"
        assert session.calls[1]["clcontinue"] == "42|Pädagogik"
        assert session.calls[1]["titles"] == "Lehrer"
        assert len(session.calls) == 3  # two parts, then the image sizes

    def test_transient_failures_retried(self):
        client, session = make_client(LEHRER_FIXTURE, failures=2)
        rec = client.fetch_article("Lehrer")
        assert rec.exists
        assert len(session.calls) >= 3

    def test_persistent_failure_raises_with_title(self):
        client, _ = make_client(LEHRER_FIXTURE, failures=10, max_retries=2)
        with pytest.raises(FetchError, match="Lehrer"):
            client.fetch_article("Lehrer")

    def test_fetch_many_merges_by_title(self):
        fixtures = dict(LEHRER_FIXTURE)
        fixtures[("Nix", ARTICLE_PROPS)] = page_payload(
            {"title": "Nix", "missing": True})
        client, _ = make_client(fixtures)
        out = client.fetch_many(["Lehrer", "Nix"], concurrency=2)
        assert set(out) == {"Lehrer", "Nix"}
        assert out["Lehrer"].exists and not out["Nix"].exists


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each GET with the server's next scripted status (then 200)
    and records the request's query and headers."""

    def do_GET(self):
        server = self.server
        url = urllib.parse.urlsplit(self.path)
        server.seen.append((dict(urllib.parse.parse_qsl(url.query)),
                            dict(self.headers)))
        status = server.statuses.pop(0) if server.statuses else 200
        body = json.dumps(server.payload if status == 200 else {}).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def local_api(monkeypatch):
    """An api.php stand-in on 127.0.0.1; no request leaves the host."""
    for var in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(var, raising=False)
    server = http.server.HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.seen, server.statuses = [], []
    server.payload = page_payload({"title": "Nix", "missing": True})
    # shutdown() waits up to one poll interval; the default is 0.5 s
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def local_client(server):
    return WikiClient(
        endpoint=f"http://127.0.0.1:{server.server_port}/w/api.php",
        user_agent="profaudit-test/1", rate=RateLimiter(0), backoff=0.0,
        max_retries=2, timeout=5.0)


class TestStdlibTransport:
    def test_ok_response_returns_json_body(self, local_api):
        rec = local_client(local_api).fetch_article("Nix")
        assert rec.title == "Nix" and not rec.exists
        assert len(local_api.seen) == 1

    def test_params_and_user_agent_arrive_as_sent(self, local_api):
        local_client(local_api).fetch_article("Nix")
        query, headers = local_api.seen[0]
        assert query["titles"] == "Nix"
        assert query["prop"] == ARTICLE_PROPS
        assert (query["format"], query["formatversion"]) == ("json", "2")
        assert headers["User-Agent"] == "profaudit-test/1"

    def test_client_error_raises_after_one_request(self, local_api):
        local_api.statuses = [404]
        with pytest.raises(FetchError, match="HTTP 404"):
            local_client(local_api).fetch_article("Nix")
        assert len(local_api.seen) == 1

    def test_server_error_retried(self, local_api):
        local_api.statuses = [503]
        rec = local_client(local_api).fetch_article("Nix")
        assert not rec.exists
        assert len(local_api.seen) == 2


def test_cli_import_loads_no_http_library():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import profaudit.cli, sys; print(sorted({'requests', "
            "'urllib.request', 'http.client'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


class TestFetchCommand:
    def test_defaults_resolved_and_named_in_help(self, tmp_path, capsys,
                                                 monkeypatch):
        built = {}

        class Client:
            def __init__(self, **kwargs):
                built.update(kwargs)

            def fetch_many(self, titles, concurrency):
                return {}

        monkeypatch.setattr(mediawiki, "WikiClient", Client)
        titles = tmp_path / "titles.txt"
        titles.write_text("Lehrer\n", encoding="utf-8")
        assert main(["fetch", "--titles-file", str(titles), "--out",
                     str(tmp_path / "snapshot.jsonl")]) == 0
        assert (built["endpoint"], built["user_agent"]) == (
            mediawiki.DEFAULT_ENDPOINT, mediawiki.DEFAULT_USER_AGENT)
        with pytest.raises(SystemExit):
            main(["fetch", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert mediawiki.DEFAULT_ENDPOINT in help_text
        assert mediawiki.DEFAULT_USER_AGENT in help_text

    @pytest.mark.parametrize("flag, value", [("--concurrency", "0"),
                                             ("--concurrency", "-2"),
                                             ("--rate", "0"),
                                             ("--rate", "-1")])
    def test_bad_flag_rejected_before_any_request(self, tmp_path, capsys,
                                                  monkeypatch, flag, value):
        def no_client(*args, **kwargs):
            raise AssertionError("a client was built")

        monkeypatch.setattr(mediawiki, "WikiClient", no_client)
        titles = tmp_path / "titles.txt"
        titles.write_text("Lehrer\n", encoding="utf-8")
        out = tmp_path / "snapshot.jsonl"
        rc = main(["fetch", "--titles-file", str(titles), "--out", str(out),
                   flag, value])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_titles_file_not_utf8_names_file_and_line(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_client(*args, **kwargs):
            raise AssertionError("a client was built")

        monkeypatch.setattr(mediawiki, "WikiClient", no_client)
        titles = tmp_path / "titles.txt"
        titles.write_bytes("Lehrer\nSchüler\n".encode("latin-1"))
        out = tmp_path / "snapshot.jsonl"
        rc = main(["fetch", "--titles-file", str(titles), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: titles file line 2: byte 0xfc is not UTF-8, in "
            f"{titles}\n")
        assert not out.exists()


@pytest.mark.parametrize("filename,expected", [
    ("Foto.jpg", "jpg"), ("Foto.JPG", "jpg"), ("Karte.v2.PNG", "png"),
    ("Foto", "unknown"), ("Foto.", "unknown")])
def test_media_format_from_extension(filename, expected):
    assert mediawiki._media_format(filename) == expected


class TestStripWikitext:
    def test_templates_removed(self):
        assert strip_wikitext("{{Infobox|a={{inner}}}}Text.") == "Text."

    def test_links_unwrapped(self):
        got = strip_wikitext("[[Heinrich Heine|Heine]] und [[Oriana Fallaci]].")
        assert got == "Heine und Oriana Fallaci."

    def test_files_and_categories_dropped(self):
        got = strip_wikitext(
            "[[Datei:Bild.jpg|mini|Eine [[Lehrerin]] im Dienst]]Satz."
            "[[Kategorie:Beruf]]")
        assert got == "Satz."

    def test_refs_and_headings(self):
        got = strip_wikitext(
            "== Geschichte ==\nEin Satz.<ref>Quelle</ref> Noch einer.")
        assert got == "Geschichte\nEin Satz. Noch einer."

    def test_external_links(self):
        got = strip_wikitext("Siehe [https://example.org Beispiel] online.")
        assert got == "Siehe Beispiel online."

    def test_birth_parenthesis_survives(self):
        src = ("'''Heinrich Heine''' (* [[13. Dezember]] [[1797]] in "
               "[[Düsseldorf]]; † 17. Februar 1856 in Paris) war ein Dichter.")
        got = strip_wikitext(src)
        assert got.startswith("Heinrich Heine (* 13. Dezember 1797 in Düsseldorf")
