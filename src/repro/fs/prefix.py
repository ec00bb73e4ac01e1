"""Sprite prefix tables: mapping path prefixes to file servers.

Sprite's single shared namespace is partitioned into domains, each
served by one file server; clients route operations by longest matching
prefix [Wel90].  The default cluster has one server owning ``/``, but
multi-server experiments split the tree (e.g. ``/src`` vs ``/tmp``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .errors import FileNotFound

__all__ = ["PrefixTable"]


class PrefixTable:
    """Longest-prefix routing of paths to server LAN addresses."""

    def __init__(self) -> None:
        self._entries: Dict[str, int] = {}

    def add(self, prefix: str, server: int) -> None:
        if not prefix.startswith("/"):
            raise ValueError(f"prefix must be absolute: {prefix!r}")
        self._entries[prefix.rstrip("/") or "/"] = server

    def route(self, path: str) -> int:
        """Server address owning ``path`` (longest matching prefix)."""
        if not path.startswith("/"):
            raise ValueError(f"path must be absolute: {path!r}")
        best: Tuple[int, int] = (-1, -1)  # (prefix length, server)
        for prefix, server in self._entries.items():
            if prefix == "/" or path == prefix or path.startswith(prefix + "/"):
                if len(prefix) > best[0]:
                    best = (len(prefix), server)
        if best[1] < 0:
            raise FileNotFound(f"no server exports a prefix of {path!r}")
        return best[1]

    def __len__(self) -> int:
        return len(self._entries)
