"""Command line front end; its process entry point is `aqwalk.__main__`.

Verbs:
  aqwalk run (CONFIG | --preset NAME) [-o DIR] [--format csv|json] [--workers N]
  aqwalk presets [--dump NAME]
  aqwalk validate CONFIG

Exit codes: 0 ok, 1 runtime or numeric failure (or, with nothing on
stderr, a stdout closed by its reader), 2 config error.  The output
directory is -o if given, else the config's output_dir, else
$AQWALK_OUTPUT_DIR, else ./aqwalk-out.
"""

from __future__ import annotations

import argparse
import os
import sys

import yaml

from .config import load_config, parse_config
from .errors import AqwalkError, ConfigError

ENV_OUTPUT_DIR = "AQWALK_OUTPUT_DIR"


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aqwalk", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a config file or a bundled preset")
    run.add_argument("config", nargs="?", help="path to a YAML experiment config")
    run.add_argument("--preset", help="name of a bundled preset (see 'aqwalk presets')")
    run.add_argument("-o", "--output-dir", help="output directory (overrides the config's output_dir)")
    run.add_argument("--format", choices=["csv", "json"], help="override the config's format")
    run.add_argument("--workers", type=_worker_count,
                     help="cap ensemble worker processes (>= 1; default: the CPUs this process may run on)")

    pres = sub.add_parser("presets", help="list bundled figure presets")
    pres.add_argument("--dump", metavar="NAME", help="print the YAML configs of one preset")

    val = sub.add_parser("validate", help="schema-check a config without running it")
    val.add_argument("config", help="path to a YAML experiment config")
    return parser


def _output_dir(args, exp) -> str:
    return args.output_dir or exp.output_dir or os.environ.get(ENV_OUTPUT_DIR, "aqwalk-out")


def _preset(name: str) -> tuple:
    """The configs of the bundled preset `name`."""
    # building the preset table costs every run, so only --preset and `presets` import it
    from .presets import PRESETS

    if name not in PRESETS:
        raise ConfigError("preset", f"unknown preset {name!r}; run 'aqwalk presets' for the list")
    return PRESETS[name].configs


def _experiments(args):
    if (args.config is None) == (args.preset is None):
        raise ConfigError("run", "give exactly one of CONFIG or --preset")
    if args.preset is not None:
        raws = [dict(c) for c in _preset(args.preset)]
    else:
        raws = [load_config(args.config)]
    experiments = []
    for raw in raws:
        exp = parse_config(raw)
        if args.format:
            exp.fmt = args.format
        experiments.append(exp)
    return experiments


def _cmd_run(args) -> int:
    # the runner loads every layer a run may call (ensemble, spectral, io, hashlib), so only `run` imports it
    from .runner import execute

    for exp in _experiments(args):
        directory, files = execute(exp, _output_dir(args, exp), workers=args.workers)
        print(f"{exp.name}: wrote {len(files)} files to {directory}")
    return 0


def _cmd_presets(args) -> int:
    from .presets import PRESETS

    if args.dump is not None:
        for cfg in _preset(args.dump):
            print("---")
            print(yaml.safe_dump(cfg, sort_keys=False).rstrip())
        return 0
    width = max(len(p.name) for p in PRESETS.values())
    print(f"{len(PRESETS)} presets:")
    for p in PRESETS.values():
        print(f"  {p.name:<{width}}  {p.description}")
    return 0


def _cmd_validate(args) -> int:
    exp = parse_config(load_config(args.config))
    print(f"ok: {exp.name} ({exp.kind})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = {"run": _cmd_run, "presets": _cmd_presets, "validate": _cmd_validate}[args.verb](args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader of stdout has gone, which is no error to report; what is left
        # to flush at exit goes to devnull (Python's note on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AqwalkError, ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
