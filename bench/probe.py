"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/probe.py NAME...

Times ``import commensurate.cli`` plus ``resolve_instance`` on every
instance name (``model:<path>`` loads and checks a model file) and
prints the elapsed seconds.  Nothing from ``commensurate`` may be
imported before the clock starts.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(names) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import commensurate.cli  # noqa: F401  (the import is what is timed)
    from commensurate.registry import resolve_instance

    for name in names:
        resolve_instance(name)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
