"""``repro`` CLI entry with the per-layer wrappers of ``layers.py`` installed.

Usage::

    python3 perfbench/traced_serve.py OUT.json serve --port 0 ...

Installs the wrappers, runs ``repro.cli.main`` with the remaining arguments
and, once the command returns (``repro serve`` returns on SIGINT), writes
the recorded spans and side records to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main() -> int:
    out = sys.argv[1]
    layers.install_experiment_layers()
    layers.install_service_layers()
    from repro import cli

    try:
        code = cli.main(sys.argv[2:])
    finally:
        with open(out, "w") as fh:
            json.dump(layers.REC.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
