"""Command-line front end: run, inspect, presets.

Exit codes: 0 success, 2 configuration/input problems, 3 numerical
aborts and steps that run out of memory (the last good checkpoint is
kept for resuming).
"""

import argparse
import sys

from .checkpoint import read_checkpoint
from .config import parse_config, render_key_help
from .errors import ConfigError, InputError
from .runner import run
from .system import preset_names, preset_system

EXIT_OK = 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vmcsr",
        description=(
            "Variational Monte Carlo energy minimization with warm-started "
            "low-rank stochastic reconfiguration."
        ),
        epilog=render_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run",
        help="execute a configured optimization run",
        epilog=render_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    runp.add_argument("--config", required=True, help="INI config file")
    runp.add_argument("--seed", help="override [run] seed")
    runp.add_argument("--steps", help="override [run] steps (total target)")
    runp.add_argument("--optimizer", help="override [optimizer] name")
    runp.add_argument("--out", help="override [run] out_dir")
    runp.add_argument("--resume", help="continue from a checkpoint file")

    insp = sub.add_parser("inspect", help="print a checkpoint summary")
    insp.add_argument("--ckpt", required=True, help="checkpoint file")

    sub.add_parser("presets", help="list built-in systems")
    return parser


def _cmd_run(args):
    # each flag is an INI value, read after the file's own
    flags = {
        "run": {"seed": args.seed, "steps": args.steps, "out_dir": args.out},
        "optimizer": {"name": args.optimizer},
    }
    config = parse_config(args.config, {
        section: {key: text for key, text in keys.items() if text is not None}
        for section, keys in flags.items()
    })
    result = run(config, resume_path=args.resume)
    if result.aborted:
        print(result.message, file=sys.stderr)
        print(f"last-good checkpoint: {result.checkpoint_path}", file=sys.stderr)
    else:
        print(
            f"completed {result.steps_completed} steps; "
            f"smoothed energy {result.smoothed_energy:.6f} Ha"
        )
        print(f"trace: {result.trace_path}")
        print(f"checkpoint: {result.checkpoint_path}")
    return result.exit_code


def _cmd_inspect(args):
    try:
        scalars, arrays, rng_states = read_checkpoint(args.ckpt)
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {args.ckpt}: {exc}") from exc
    for key in sorted(scalars):
        print(f"{key} = {scalars[key]}")
    for name in sorted(arrays):
        arr = arrays[name]
        print(f"array {name}: shape {tuple(arr.shape)}, dtype {arr.dtype}")
    print(f"rng streams: {len(rng_states)}")
    return EXIT_OK


def _cmd_presets(_args):
    for name in preset_names():
        system = preset_system(name)
        charges = ",".join(str(z) for z in system.nuclear_charges)
        print(
            f"{name}: charges [{charges}], "
            f"{system.n_up} up + {system.n_down} down electrons"
        )
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        return _cmd_presets(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
