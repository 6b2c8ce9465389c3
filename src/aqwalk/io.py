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
    "sha256_file",
    "write_manifest",
]


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _column_format(column) -> str:
    """%d for a column of Python ints (bools are not), %.17g for any other."""
    return "%d" if all(issubclass(kind, int) and kind is not bool for kind in set(map(type, column))) else "%.17g"


def write_rows_atomic(path: str, header: list[str], rows) -> str:
    """Write the header and one line per row: the whole body is one %-format
    of the row template, repeated once per row."""
    values = tuple(chain.from_iterable(rows))
    width = len(header)
    template = ",".join(_column_format(values[i::width]) for i in range(width)) + "\n"
    _atomic_write(path, ",".join(header) + "\n" + template * (len(values) // width) % values)
    return path


def write_json_atomic(path: str, payload) -> str:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(directory: str, name: str, parameters: dict, files: list[str], version: str) -> str:
    manifest = {
        "name": name,
        "created": datetime.now(timezone.utc).isoformat(),
        "version": version,
        "parameters": parameters,
        "parameters_sha256": hashlib.sha256(
            json.dumps(parameters, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "outputs": {os.path.basename(f): sha256_file(f) for f in sorted(files)},
    }
    path = os.path.join(directory, "manifest.json")
    return write_json_atomic(path, manifest)
