"""Append-only JSON-lines result cache with corruption-tolerant loading.

Each record is one JSON object per line, UTF-8, LF endings.  A corrupted
trailing line (the usual artifact of an interrupted write) is truncated
with a warning, and a complete last line that lost its newline gets it
back; corruption anywhere else is an error, never silently skipped.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Any, Dict, List

log = logging.getLogger(__name__)

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class ResultCache:
    def __init__(self, path: str):
        self.path = path

    def load(self) -> List[Dict[str, Any]]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, "rb") as fh:
            raw = fh.read()
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
        records = []
        for i, line in enumerate(lines):
            try:
                records.append(json.loads(line.decode("utf-8")))
            except (ValueError, UnicodeDecodeError):
                if i == len(lines) - 1:
                    log.warning(
                        "cache %s: truncating corrupted trailing line", self.path
                    )
                    good = b"\n".join(lines[:-1])
                    with open(self.path, "wb") as fh:
                        fh.write(good + (b"\n" if good else b""))
                    break
                raise ValueError(
                    f"cache {self.path}: corrupted line {i + 1} (not trailing)"
                )
        else:
            if raw and not raw.endswith(b"\n"):
                # a write cut off just after a whole record: end its line first
                with open(self.path, "ab") as fh:
                    fh.write(b"\n")
        return records

    def append(self, *records: Dict[str, Any]) -> None:
        """Write the records, one line each, in one write."""
        text = "".join(_ENCODER.encode(r) + "\n" for r in records)
        with open(self.path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
