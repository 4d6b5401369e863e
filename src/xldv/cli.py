"""Command-line entry point: one command per pipeline stage.

Every failure prints one line to stderr, ``xldv: error: <category>:
<message>``, and exits 1 for ``config`` (a ConfigError: bad command line,
config file or value), 2 for ``data`` (DataError, InvalidArgumentError:
missing or malformed artifacts; OSError: a file or directory the run needs
cannot be read or written), 3 for ``numeric`` (NumericError) and 2 for
``internal`` (any other XldvError: DegenerateInputError, StateError).
"""

import argparse
import logging
import sys

from . import config as config_mod
from . import pipeline
from .errors import ConfigError, DataError, InvalidArgumentError, NumericError, XldvError

log = logging.getLogger("xldv")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="xldv", description=__doc__)
    parser.add_argument("command", choices=pipeline.STAGE_NAMES + ["all", "validate-config"],
                        help="one stage, all stages in order, or validate-config")
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override a config value")
    parser.add_argument("--run-dir", default=None,
                        help="run directory (default: $XLDV_RUN_DIR or runs/<hash>)")
    parser.add_argument("--seed", type=int, default=None, help="override experiment.seed")
    parser.add_argument("--force", action="store_true",
                        help="re-run stages even when up to date")
    parser.add_argument("-q", "--quiet", action="store_true")
    return parser


PARSER = build_parser()  # at import: once per process, however often main() runs


def _load(args) -> config_mod.ExperimentConfig:
    seed = [] if args.seed is None else [f"experiment.seed={args.seed}"]
    return config_mod.load_config(args.config, args.overrides + seed)


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
        logging.basicConfig(
            level=logging.WARNING if args.quiet else logging.INFO,
            format="%(asctime)s %(name)s: %(message)s", datefmt="%H:%M:%S",
        )
        cfg = _load(args)
        if args.command == "validate-config":
            sys.stdout.write(cfg.report())
            return 0
        ctx = pipeline.make_context(cfg, args.run_dir)
        if args.command == "all":
            ran = pipeline.run_all(ctx, force=args.force)
            log.info("stages run: %s", ", ".join(ran) if ran else "none (all current)")
        else:
            pipeline.run_stage(ctx, args.command, force=args.force)
        return 0
    except ConfigError as exc:
        print(f"xldv: error: config: {exc}", file=sys.stderr)
        return 1
    except (DataError, InvalidArgumentError, OSError) as exc:
        print(f"xldv: error: data: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"xldv: error: numeric: {exc}", file=sys.stderr)
        return 3
    except XldvError as exc:
        print(f"xldv: error: internal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
