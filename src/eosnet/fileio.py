"""Atomic file output, artifact hashing, and run manifests.

Every artifact the CLI produces goes through write-then-rename, so a
killed run never leaves a partial file behind.  A manifest records the
command, the caller's ``config`` mapping, each input and output with its
content hash, the package versions and the run's timings.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import secrets
from typing import Optional


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to a new file beside ``path``, then rename it over
    ``path``.  The new file is created with mode 0666, so the umask sets
    the output's permissions as for any other file the user makes."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command: str, config: dict, inputs: list, outputs: list,
                   timings: dict, workers: Optional[int] = None) -> None:
    """Write a JSON run manifest next to the run's artifacts; ``workers``,
    the size of the run's thread pool, is recorded when given."""
    import eosnet
    import numpy

    manifest = {
        "command": command,
        "config": config,
        "inputs": [{"path": str(p), "sha256": sha256_file(p)} for p in inputs],
        "outputs": [{"path": str(p), "sha256": sha256_file(p)} for p in outputs],
        "versions": {
            "eosnet": eosnet.__version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "timings": timings,
    }
    if workers is not None:
        manifest["workers"] = workers
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
