#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark: see README.md next to this file.

    python3 benchmarks/e2e/run.py --workload method_mix --seed 1 \
        --seconds 10 --trace 0

Benchmarks the ``src/repro`` of the checkout this file sits in — never an
installed copy — and exits 2 when that source tree is not there.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from e2ebench.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
