"""``python -m benchmarks.speed``: the same program as ``benchmarks/speed/run.py``."""

import sys
from pathlib import Path


def _main() -> int:
    # run.py imports its sibling modules by name, as it does when run as
    # a script.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import main

    return main()


if __name__ == "__main__":
    sys.exit(_main())
