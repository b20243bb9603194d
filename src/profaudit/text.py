"""Unicode normalisation shared by every module that compares titles or
text: titles from the snapshot, the profession list and reviewer files
are all compared in NFC."""

from __future__ import annotations

import unicodedata


def nfc(s: str) -> str:
    return unicodedata.normalize("NFC", s)
