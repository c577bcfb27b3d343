"""Content-addressed on-disk result cache.

Keys hash (report schema, tool version, command, parameters, seed), so
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


def cache_key(version: str, command: str, params: dict, seed=None) -> str:
    payload = json.dumps(
        {
            "schema": report.SCHEMA_VERSION,
            "version": version,
            "command": command,
            "params": params,
            "seed": seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _path(root: Path, key: str) -> Path:
    return root / key[:2] / f"{key}.json"


def get(root: Path, key: str) -> dict | None:
    path = _path(root, key)
    try:
        with path.open() as fh:
            return json.load(fh)
    except (FileNotFoundError, ValueError):  # bad UTF-8 or JSON is a miss too
        return None


def put(root: Path, key: str, payload: dict) -> None:
    path = _path(root, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
