"""Process entry point: `python -m aqwalk` and the `aqwalk` console script.

The modules a process loads live until it exits, so the cyclic garbage
collector is kept off while the CLI's modules import; one collection then
frees the garbage the imports left, and what lives is frozen: collections
during the run, and the interpreter's last ones at exit, skip it.
`cli.main` leaves the collector alone, for callers that run it in their
own process.
"""

import gc
import sys


def main():
    gc.disable()
    from .cli import main as cli_main

    gc.collect()
    gc.freeze()
    gc.enable()
    try:
        sys.exit(cli_main())
    finally:
        gc.freeze()  # everything left now lives until exit


if __name__ == "__main__":
    main()
