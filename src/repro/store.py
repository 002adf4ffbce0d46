"""Shipped reference artifacts: keyed, byte-reproducible ``.npz`` files.

Like MLPerf Mobile's frozen reference models and labelled validation sets,
results a default run never changes ship as ``stored/<kind>/<name>.npz``, each
file its entries plus the :func:`key` of what computed them. :func:`load`
serves a file only on an exact key match. An entry named ``__<name>__`` holds
JSON metadata; every other entry is an array.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import zipfile

import numpy as np

__all__ = ["STORE_DIR", "KEY_ENTRY", "key", "path", "read", "load", "dump"]

STORE_DIR = pathlib.Path(__file__).with_name("stored")
KEY_ENTRY = "__key__"


def key(payload: dict) -> str:
    """SHA-256 of ``payload`` as canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def path(kind: str, name: str) -> pathlib.Path:
    return STORE_DIR / kind / f"{name}.npz"


def _is_metadata(entry: str) -> bool:
    return entry != KEY_ENTRY and entry.startswith("__") and entry.endswith("__")


def read(data: bytes) -> dict:
    """Every entry of a stored file's bytes, the key included."""
    with np.load(io.BytesIO(data), allow_pickle=False) as stored:
        entries = {entry: stored[entry] for entry in stored.files}
    entries[KEY_ENTRY] = str(entries[KEY_ENTRY])
    for entry in filter(_is_metadata, entries):
        entries[entry] = json.loads(str(entries[entry]))
    return entries


def load(kind: str, name: str, key: str) -> dict | None:
    """The entries of ``kind``'s file ``name`` if its key is exactly ``key``,
    else None."""
    file = path(kind, name)
    if not file.exists():
        return None
    entries = read(file.read_bytes())
    return entries if entries.pop(KEY_ENTRY) == key else None


def dump(entries: dict, key: str) -> bytes:
    """The ``.npz`` bytes of ``entries`` under ``key``. Entries are sorted and
    every zip member is dated 1980-01-01, so equal entries give equal bytes."""
    arrays = {KEY_ENTRY: np.array(key)}
    for entry, value in entries.items():
        arrays[entry] = (np.array(json.dumps(value, sort_keys=True)) if _is_metadata(entry)
                         else np.ascontiguousarray(value))
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as zf:
        for entry in sorted(arrays):
            with zf.open(zipfile.ZipInfo(entry + ".npy"), "w") as f:
                np.lib.format.write_array(f, arrays[entry], allow_pickle=False)
    return buffer.getvalue()
