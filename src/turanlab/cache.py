"""Append-only JSONL result cache and run manifests.

One line per stored search result; lookups take the newest complete entry
for a key written by the current `SEARCH_VERSION` and skip corrupt lines
with a warning on stderr.  The cache never changes a computed value: a
forced recomputation that disagrees with the stored value is a hard error
upstream.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_CACHE_PATH = "./turanlab-cache.jsonl"
CACHE_ENV_VAR = "TURANLAB_CACHE"


def resolve_cache_path(cli_value: Optional[str]) -> str:
    """Flag > environment override > default working-directory store; an
    empty flag or variable counts as unset."""
    return cli_value or os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_PATH


def _search_version() -> int:
    from .search import SEARCH_VERSION  # at call time: a run manifest loads no search code
    return SEARCH_VERSION


@dataclass
class CacheEntry:
    predicate: str
    n: int
    r: int
    ell: Optional[int]
    value: int
    extremal_classes: int
    complete: bool
    tool_version: str
    timestamp: float
    stats: dict = field(default_factory=dict)
    search_version: Optional[int] = field(default_factory=_search_version)  # None: written before versioning

    def key(self) -> tuple:
        return (self.predicate, self.n, self.r, self.ell)

    def to_json_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "n": self.n,
            "r": self.r,
            "ell": self.ell,
            "value": self.value,
            "extremal_classes": self.extremal_classes,
            "complete": self.complete,
            "tool_version": self.tool_version,
            "search_version": self.search_version,
            "timestamp": self.timestamp,
            "stats": self.stats,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CacheEntry":
        return cls(
            predicate=d["predicate"],
            n=int(d["n"]),
            r=int(d["r"]),
            ell=None if d.get("ell") is None else int(d["ell"]),
            value=int(d["value"]),
            extremal_classes=int(d["extremal_classes"]),
            complete=bool(d["complete"]),
            tool_version=str(d.get("tool_version", "")),
            timestamp=float(d.get("timestamp", 0.0)),
            stats=dict(d.get("stats", {})),
            search_version=None if d.get("search_version") is None else int(d["search_version"]),
        )


def cache_entries(path: str) -> list[CacheEntry]:
    """All parseable entries in file order; corrupt lines warn and are skipped."""
    if not os.path.exists(path):
        return []
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(CacheEntry.from_json_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                print(f"warning: skipping corrupt cache line {lineno} in {path}", file=sys.stderr)
    return out


def cache_lookup(path: str, key: tuple) -> Optional[CacheEntry]:
    """Newest complete entry of the current search version for (predicate, n, r, ell), or None."""
    found = None
    for entry in cache_entries(path):
        if entry.key() == key and entry.complete and entry.search_version == _search_version():
            found = entry
    return found


def cache_store(path: str, entry: CacheEntry) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry.to_json_dict(), sort_keys=False) + "\n")


@dataclass
class RunManifest:
    """Reproducibility sidecar: command, seeds, and input/output digests.

    The digesting methods import hashlib, so a run without a manifest never loads it."""

    command: list[str]
    seeds: list[int] = field(default_factory=list)
    input_digests: dict[str, str] = field(default_factory=dict)
    output_digests: dict[str, str] = field(default_factory=dict)
    started_at: float = field(default_factory=time.time)

    def add_input_file(self, path: str) -> None:
        import hashlib

        with open(path, "rb") as fh:
            self.input_digests[path] = hashlib.sha256(fh.read()).hexdigest()

    def add_output(self, name: str, data: str) -> None:
        import hashlib

        self.output_digests[name] = hashlib.sha256(data.encode("utf-8")).hexdigest()

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "seeds": self.seeds,
            "inputs": self.input_digests,
            "outputs": self.output_digests,
            "started_at": self.started_at,
        }
