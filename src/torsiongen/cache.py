"""Content-addressed on-disk result cache.

Keys hash (report schema, tool version, command, parameters), so
results from a different package version or report schema are never
reused.  Writes go through a temp file plus os.replace, which is atomic on
POSIX, so concurrent writers are safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import report

ENV_VAR = "TORSIONGEN_CACHE"


def cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "torsiongen"


def cache_key(version: str, command: str, params: dict) -> str:
    payload = json.dumps(
        {
            "schema": report.SCHEMA_VERSION,
            "version": version,
            "command": command,
            "params": params,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _path(root: str | os.PathLike, key: str) -> str:
    return f"{root}/{key[:2]}/{key}.json"


def get(root: str | os.PathLike, key: str) -> dict | None:
    """The entry under `key`, or None.  The bytes are decoded as strict
    UTF-8 before parsing: `json.loads` on raw bytes would also accept a BOM
    or UTF-16, and a file that is not plain UTF-8 JSON is a miss."""
    try:
        with open(_path(root, key), "rb") as fh:
            return json.loads(fh.read().decode())
    except (FileNotFoundError, ValueError):  # bad UTF-8 or JSON is a miss too
        return None


def put(root: str | os.PathLike, key: str, payload: dict) -> None:
    path = _path(root, key)
    parent = os.path.dirname(path)
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
