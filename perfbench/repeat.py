"""One benchmark repeat in a fresh interpreter.

``run.py`` starts this script once per repeat, so no repeat inherits
another's heap, garbage or peak RSS.  By hand, from the repository root::

    PYTHONPATH=src python3 perfbench/repeat.py soda_small 1 plain

It prints the repeat's measurements as one JSON line on stdout.  The
``__main__`` guard matters: the fleet engine's spawn-pool workers import
this file again as ``__mp_main__``.
"""

import json
import sys


def main(argv) -> int:
    from workloads import run_repeat

    name, seed, mode = argv[1], int(argv[2]), argv[3]
    print(json.dumps(run_repeat(name, seed, mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
