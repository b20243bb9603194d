"""Optional live populator: fetch ArticleRecords from a MediaWiki
``action=query`` endpoint.

Analysis never talks to the network; this client only exists to build a
snapshot file. Requests are rate-limited, retried with exponential
backoff, and can run on a small thread pool with deterministic merging
by title. The default transport is ``urllib.request`` from the standard
library, imported on the first request, so importing this module (as the
command line does for every subcommand) loads no HTTP code.
"""

from __future__ import annotations

import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from . import LazyLogger
from .corpus import CATEGORY_PREFIX, ArticleRecord, ImageRef

log = LazyLogger(__name__)

DEFAULT_ENDPOINT = "https://de.wikipedia.org/w/api.php"
DEFAULT_USER_AGENT = "profaudit/0.1 (profession corpus snapshot builder)"

_REDIRECT_RE = re.compile(
    r"#\s*(?:REDIRECT|WEITERLEITUNG)\s*:?\s*\[\[([^\]|#]+)", re.IGNORECASE)


class FetchError(RuntimeError):
    def __init__(self, title: str, message: str):
        super().__init__(f"{title}: {message}")
        self.title = title


class RateLimiter:
    """Shared minimum-interval limiter for polite API access."""

    def __init__(self, requests_per_second: float = 2.0):
        self.interval = 1.0 / requests_per_second if requests_per_second > 0 else 0.0
        self._lock = threading.Lock()
        self._next_at = 0.0

    def wait(self) -> None:
        if self.interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            delay = self._next_at - now
            self._next_at = max(now, self._next_at) + self.interval
        if delay > 0:
            time.sleep(delay)


def strip_wikitext(text: str) -> str:
    """Minimal wikitext-to-plain-text conversion.

    Drops templates, tables, refs, file/category links and markup;
    unwraps internal and external links to their display text. Not a
    parser, just enough to make person names and the first sentence
    visible to downstream text mining.
    """
    text = re.sub(r"<!--.*?-->", "", text, flags=re.DOTALL)
    # nested templates and tables, innermost first
    prev = None
    while prev != text:
        prev = text
        text = re.sub(r"\{\{[^{}]*\}\}", "", text, flags=re.DOTALL)
        text = re.sub(r"\{\|(?:[^{}]|\n)*?\|\}", "", text, flags=re.DOTALL)
    text = re.sub(r"<ref[^>/]*/>", "", text)
    text = re.sub(r"<ref[^>]*>.*?</ref>", "", text, flags=re.DOTALL)
    # file, image and category links may nest captions one level deep
    text = re.sub(
        r"\[\[(?:Datei|File|Bild|Image|Kategorie|Category):"
        r"(?:[^\[\]]|\[\[[^\[\]]*\]\])*\]\]", "", text)
    text = re.sub(r"\[\[[^\]|]*\|([^\]]*)\]\]", r"\1", text)
    text = re.sub(r"\[\[([^\]]*)\]\]", r"\1", text)
    text = re.sub(r"\[(?:https?|ftp)://\S*\s+([^\]]*)\]", r"\1", text)
    text = re.sub(r"\[(?:https?|ftp)://\S*\]", "", text)
    text = re.sub(r"'{2,}", "", text)
    text = re.sub(r"^=+\s*(.*?)\s*=+\s*$", r"\1", text, flags=re.MULTILINE)
    text = re.sub(r"^[*#:;]+\s*", "", text, flags=re.MULTILINE)
    text = re.sub(r"<[^>]+>", "", text)
    text = re.sub(r"[ \t]+", " ", text)
    text = re.sub(r"\n{3,}", "\n\n", text)
    return text.strip()


def _strip_category(name: str) -> str:
    for prefix in (CATEGORY_PREFIX, "Category:"):
        if name.startswith(prefix):
            return name[len(prefix):]
    return name


def _media_format(filename: str) -> str:
    _, dot, ext = filename.rpartition(".")
    return ext.lower() if dot and ext else "unknown"


class _Response:
    def __init__(self, status_code: int, body: bytes = b""):
        self.status_code = status_code
        self._body = body

    def json(self):
        return json.loads(self._body)


class _UrllibSession:
    """Default transport: the one ``get`` call WikiClient makes, over
    ``urllib.request``. An HTTP error status comes back as a response with
    that status, so the client's retry policy sees it; connection errors
    and timeouts raise. Each request opens its own connection."""

    def get(self, url, params=None, headers=None, timeout=None) -> _Response:
        import urllib.error
        import urllib.parse
        import urllib.request

        if params:
            url = f"{url}?{urllib.parse.urlencode(params)}"
        req = urllib.request.Request(url, headers=headers or {})
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return _Response(resp.status, resp.read())
        except urllib.error.HTTPError as exc:
            exc.close()
            return _Response(exc.code)


class WikiClient:
    """Thin ``action=query`` client producing ArticleRecords."""

    def __init__(self, endpoint: str = DEFAULT_ENDPOINT, session=None,
                 user_agent: str = DEFAULT_USER_AGENT,
                 rate: RateLimiter | None = None,
                 max_retries: int = 3, backoff: float = 1.0,
                 timeout: float = 30.0):
        self.endpoint = endpoint
        self.session = session or _UrllibSession()
        self.user_agent = user_agent
        self.rate = rate or RateLimiter()
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout

    def _get(self, params: dict, title: str) -> dict:
        params = dict(params, format="json", formatversion="2")
        last_error = "no attempt made"
        for attempt in range(self.max_retries + 1):
            self.rate.wait()
            try:
                resp = self.session.get(self.endpoint, params=params,
                                        headers={"User-Agent": self.user_agent},
                                        timeout=self.timeout)
                if resp.status_code >= 500:
                    last_error = f"HTTP {resp.status_code}"
                elif resp.status_code != 200:
                    raise FetchError(title, f"HTTP {resp.status_code}")
                else:
                    return resp.json()
            except FetchError:
                raise
            except Exception as exc:  # noqa: BLE001 - network layer
                last_error = str(exc)
            if attempt < self.max_retries:
                time.sleep(self.backoff * (2 ** attempt))
        raise FetchError(title, f"failed after {self.max_retries + 1} "
                                f"attempts: {last_error}")

    def fetch_article(self, title: str) -> ArticleRecord:
        """Fetch existence, redirect target, categories, outlinks, images
        (with widths) and plain text for one title."""
        params = {
            "action": "query",
            "titles": title,
            "prop": "info|categories|links|images|revisions",
            "cllimit": "max",
            "pllimit": "max",
            "imlimit": "max",
            "rvprop": "content",
            "rvslots": "main",
        }
        data = self._get(params, title)
        pages = data.get("query", {}).get("pages", [])
        if not pages:
            raise FetchError(title, "no page data in response")
        page = pages[0]
        if page.get("missing") or page.get("invalid"):
            return ArticleRecord(title=title, exists=False)
        # a list cut at its limit goes on in further responses, each with
        # the next part of every list still cut
        while "continue" in data:
            data = self._get(dict(params, **data["continue"]), title)
            for more in data.get("query", {}).get("pages", [])[:1]:
                for key in ("links", "categories", "images"):
                    page[key] = (page.get(key) or []) + (more.get(key) or [])

        content = ""
        revisions = page.get("revisions") or []
        if revisions:
            slot = revisions[0].get("slots", {}).get("main", {})
            content = slot.get("content", "") or revisions[0].get("content", "")
        redirect_match = _REDIRECT_RE.match(content.strip()) if content else None
        redirect_target = redirect_match.group(1).strip() if redirect_match else None

        categories = frozenset([_strip_category(c["title"])
                                for c in page.get("categories") or []])
        outlinks = tuple([l["title"] for l in page.get("links") or []])
        image_titles = [i["title"] for i in page.get("images") or []]
        images = self._fetch_image_sizes(image_titles, title)
        plain_text = "" if redirect_target else strip_wikitext(content)

        return ArticleRecord(
            title=title,
            exists=True,
            redirect_target=redirect_target,
            categories=categories,
            outlinks=outlinks,
            images=images,
            plain_text=plain_text,
        )

    def _fetch_image_sizes(self, image_titles: list[str],
                           article: str) -> tuple[ImageRef, ...]:
        refs: list[ImageRef] = []
        for start in range(0, len(image_titles), 50):
            batch = image_titles[start:start + 50]
            data = self._get({
                "action": "query",
                "titles": "|".join(batch),
                "prop": "imageinfo",
                "iiprop": "size",
            }, article)
            for page in data.get("query", {}).get("pages", []):
                info = (page.get("imageinfo") or [{}])[0]
                name = page.get("title", "")
                name = name.split(":", 1)[1] if ":" in name else name
                refs.append(ImageRef(filename=name,
                                     width=int(info.get("width", 0) or 0),
                                     media_format=_media_format(name)))
        refs.sort(key=lambda r: r.filename)
        return tuple(refs)

    def fetch_many(self, titles, concurrency: int = 4) -> dict[str, ArticleRecord]:
        """Fetch several titles on a bounded pool; result keyed by title,
        so merging is order-independent."""
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            futures = {t: pool.submit(self.fetch_article, t) for t in titles}
            return {t: fut.result() for t, fut in futures.items()}
