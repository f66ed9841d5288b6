"""Run one ``eosnet`` CLI call in this (fresh) process, optionally traced.

Usage::

    python3 perfbench/child.py [--trace SPANS.npz] -- <eosnet arguments>

The exit code is the CLI's.  With ``--trace`` the call runs inside a
:class:`tracer.Tracer` and the spans are written to ``SPANS.npz`` after
the call returns.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from eosnet import cli

    if trace_path is None:
        return cli.main(argv)
    from tracer import Tracer

    with Tracer() as tracer:
        code = cli.main(argv)
    tracer.save(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
