"""Run one ``girthforge`` CLI command in this fresh process.

    python3 bench/cli_child.py --import-only
    python3 bench/cli_child.py [--spans PATH] -- ARGS...

``--import-only`` stops after ``import girthforge.cli`` (the set-up cost
every CLI user pays).  ``--spans`` installs the tracer first and writes
its spans and counters to PATH as JSON when the command returns.  The
exit code is the command's own.
"""

from __future__ import annotations

import json
import sys

from common import load_package


def main(argv: list[str]) -> int:
    if argv == ["--import-only"]:
        load_package()
        import girthforge.cli  # noqa: F401

        return 0
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    load_package()
    import girthforge.cli as cli

    if spans_path is None:
        return cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
