"""Unicode normalisation shared by every module that compares titles or
text: titles from the snapshot, the profession list and reviewer files
are all compared in NFC."""

from __future__ import annotations

import functools
import unicodedata

# nfc(s) is s in NFC. A partial calls normalize without a Python frame, at
# about half the cost of a def: a snapshot load makes one call per title,
# category name and outlink, tens of thousands in all.
nfc = functools.partial(unicodedata.normalize, "NFC")
