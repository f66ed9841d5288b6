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
import tempfile


def atomic_write_bytes(path, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
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


def write_manifest(path, command: str, config: dict,
                   inputs: list, outputs: list, timings: dict, **fields) -> None:
    """Write a JSON run manifest next to the run's artifacts; ``fields``
    are further top-level entries."""
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
        **fields,
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
