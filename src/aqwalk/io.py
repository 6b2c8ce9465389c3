"""Atomic CSV/JSON writers and the run manifest.

A CSV column of Python ints is written with %d, any other column with
%.17g, so every emitted file re-parses to the exact in-memory values.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from datetime import datetime, timezone
from itertools import chain

__all__ = [
    "write_rows_atomic",
    "write_json_atomic",
    "write_manifest",
]


def _atomic_write(path: str, text: str) -> str:
    """Write text to path via a temporary file beside it and return the sha256 of
    its bytes: the text is encoded once and written in binary mode, so the digest is the file's."""
    data = text.encode()
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return hashlib.sha256(data).hexdigest()


def _column_format(column) -> str:
    """%d for a column of Python ints (bools are not), %.17g for any other."""
    return "%d" if all(issubclass(kind, int) and kind is not bool for kind in set(map(type, column))) else "%.17g"


def write_rows_atomic(path: str, header: list[str], rows) -> str:
    """Write the header and one line per row and return the file's sha256: the
    whole body is one %-format of the row template, repeated once per row."""
    values = tuple(chain.from_iterable(rows))
    width = len(header)
    template = ",".join(_column_format(values[i::width]) for i in range(width)) + "\n"
    return _atomic_write(path, ",".join(header) + "\n" + template * (len(values) // width) % values)


def write_json_atomic(path: str, payload) -> str:
    """Write payload as indented JSON with sorted keys, and return the sha256 of the file's bytes."""
    return _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_manifest(directory: str, name: str, parameters: dict, outputs: dict[str, str], version: str) -> str:
    """Write directory/manifest.json and return its path; outputs maps each data file's name to its digest."""
    manifest = {
        "name": name,
        "created": datetime.now(timezone.utc).isoformat(),
        "version": version,
        "parameters": parameters,
        "parameters_sha256": hashlib.sha256(
            json.dumps(parameters, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "outputs": outputs,
    }
    path = os.path.join(directory, "manifest.json")
    write_json_atomic(path, manifest)
    return path
