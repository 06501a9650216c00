"""Run ``repro serve`` / ``repro route`` with the span recorder installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python -m perfbench.launcher SPANS.json serve --port 0 ...

The launcher wraps the public functions of the detection, protocol and
persistence layers at the names their callers look them up by, then
hands the rest of the command line to ``repro.cli.main`` unchanged, so
a traced daemon is the same single process an untraced ``python -m
repro serve`` is.  When the daemon exits (SIGTERM drains it and returns
from ``main``), the spans are written to ``SPANS.json``.
"""

from __future__ import annotations

import sys

from perfbench import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python -m perfbench.launcher SPANS.json serve|route ...",
              file=sys.stderr)
        return 2
    out, repro_argv = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install_daemon(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
