"""The ``octfield`` console script: its argument parser, ``main``, and the
two commands that need no NumPy.

``classify`` and ``spelling`` run here on ``topology``, ``words`` and the
JSON side of ``reports``, so they start without NumPy.  ``construct``,
``verify`` and ``sweep`` run in ``octfield.cli``, which loads NumPy and the
numeric layer; it is imported when one of them is first called.
``octfield.cli.main`` is this module's ``main``.  The subcommands and exit
codes are listed in ``octfield.cli``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import reports
from .topology import (
    UnsupportedSignPatternError,
    classify,
    infimum_energy,
    prism_bounds,
    spelling_lower_bound_check,
)
from .words import (
    MAX_WORD_LETTERS,
    format_word,
    generator_degrees,
    optimal_pairing,
    parse_word,
    spelling_length,
)

EXIT_INVALID_INPUT = 2
EXIT_UNSUPPORTED_SIGNS = 3
EXIT_UNSUPPORTED_CLASS = 4
EXIT_INVARIANT_FAILURE = 5
EXIT_CLOSED_OUTPUT = 141  # 128 + SIGPIPE, as the shell reports a process a closed pipe ended

FORMATS = ("json", "csv", "svg")  # construct's artifacts


def load_class(args):
    """(topology, wrapping) of the class given by ``--json`` or a class file,
    or None after reporting why the input is not a valid class."""
    try:
        if args.json:
            data = json.loads(args.json)
        elif args.path:
            data = json.loads(Path(args.path).read_text())
        else:
            raise ValueError("provide a class via --json or a file path")
        return reports.class_from_dict(data)
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as e:
        print(f"invalid class: {e}", file=sys.stderr)
        return None


def emit(args, name: str, text: str) -> None:
    """Write ``text`` to ``name`` in the ``--out`` directory, which ``main``
    has made, or to stdout without one."""
    if args.out:
        (Path(args.out) / name).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    loaded = load_class(args)
    if loaded is None:
        return EXIT_INVALID_INPUT
    t, w = loaded
    report = reports.classification_report(t)
    if args.prism:
        lx, ly, lz = args.prism
        try:
            lo, hi = prism_bounds(w, classify(w, t), lx, ly, lz)
        except ValueError as e:
            print(f"invalid prism: {e}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        report["prism_bounds"] = {"lower": lo, "upper": hi,
                                  "lengths": [lx, ly, lz]}
    print(f"{report['kind']}, Delta={report['delta']}, energy={report['energy_text']}")
    emit(args, "classify.json", reports.dump_json(report))
    return 0


def cmd_spelling(args) -> int:
    if args.word is not None:
        try:
            u = parse_word(args.word, alphabet_size=args.alphabet)
        except ValueError as e:
            print(f"invalid word: {e}", file=sys.stderr)
            return EXIT_INVALID_INPUT
        for size, what in ((len(u.letters), "letters"), (u.alphabet_size, "generators")):
            if size > MAX_WORD_LETTERS:
                print(f"invalid word: {size} {what}, at most {MAX_WORD_LETTERS}",
                      file=sys.stderr)
                return EXIT_INVALID_INPUT
        lam = spelling_length(u)
        pairing = sorted(tuple(sorted(p)) for p in optimal_pairing(u))
        degs = generator_degrees(u)
        report = {
            "word": format_word(u),
            "spelling_length": lam,
            "optimal_pairing": [list(p) for p in pairing],
            "generator_degrees": list(degs),
        }
        print(f"lambda={lam}, pairing={pairing}, degrees={list(degs)}")
        emit(args, "spelling.json", reports.dump_json(report))
        return 0
    loaded = load_class(args)
    if loaded is None:
        return EXIT_INVALID_INPUT
    t, w = loaded
    try:
        bound = spelling_lower_bound_check(t)
    except UnsupportedSignPatternError as e:
        print(f"unsupported kink sign pattern: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED_SIGNS
    c = classify(w, t)
    energy = infimum_energy(w, c)
    if bound > energy:
        print(f"invariant failure: spelling bound {bound} pi exceeds the energy "
              f"formula {energy} pi", file=sys.stderr)
        return EXIT_INVARIANT_FAILURE
    report = {
        "class": reports.class_to_dict(t, w),
        "spelling_bound_pi_units": bound,
        "energy_pi_units": energy,
        "tight": bound == energy,
    }
    print(f"spelling bound = {bound} pi (energy formula {energy} pi)")
    emit(args, "spelling.json", reports.dump_json(report))
    return 0


def _numeric(command: str, **kwargs):
    """A command of ``octfield.cli``, imported when the command is first run."""

    def run(args) -> int:
        from . import cli

        return getattr(cli, command)(args, **kwargs)

    return run


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="octfield",
        description="Energies and homotopy invariants of tangent fields on the octant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class_io(p):
        p.add_argument("path", nargs="?", help="class JSON file")
        p.add_argument("--json", help="inline class JSON")
        p.add_argument("--out", help="output directory")

    p_cls = sub.add_parser("classify", help="invariants, Delta, infimum energy")
    add_class_io(p_cls)
    p_cls.add_argument("--prism", nargs=3, type=float, metavar=("LX", "LY", "LZ"),
                       help="prism edge lengths Lx >= Ly >= Lz")
    p_cls.set_defaults(func=cmd_classify)

    p_sp = sub.add_parser("spelling", help="spelling length or class bound")
    add_class_io(p_sp)
    p_sp.add_argument("--word", help="word text, e.g. \"a b a' b'\"")
    p_sp.add_argument("--alphabet", type=int, default=None)
    p_sp.set_defaults(func=cmd_spelling)

    def add_numeric_opts(p):
        p.add_argument("--epsilon", type=float, default=0.05)
        p.add_argument("--grid-level", type=int, default=3, choices=range(1, 6),
                       dest="grid_level")

    p_con = sub.add_parser("construct", help="build and verify a representative")
    add_class_io(p_con)
    add_numeric_opts(p_con)
    p_con.add_argument("--format", default="json", help=",".join(FORMATS))
    p_con.set_defaults(func=_numeric("cmd_construct"))

    p_ver = sub.add_parser("verify", help="construct without artifacts")
    add_class_io(p_ver)
    add_numeric_opts(p_ver)
    p_ver.set_defaults(func=_numeric("cmd_construct", verify_only=True))

    p_sw = sub.add_parser("sweep", help="construct a family of classes")
    p_sw.add_argument("--kmax", type=int, default=2, choices=range(1, 9))
    p_sw.add_argument("--out", help="output directory")
    add_numeric_opts(p_sw)
    p_sw.set_defaults(func=_numeric("cmd_sweep"))
    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # flushed here, so a closed stdout is met inside this call and not
        # at the interpreter's exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (``octfield sweep | head -1``): what it did not
        # read is dropped, and the interpreter's last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_OUTPUT


def _run(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if hasattr(args, "epsilon") and not 0 < args.epsilon < 0.125:
        parser.error("epsilon must lie in (0, 1/8)")
    if args.out:
        # made before any work, so a path that cannot hold the reports fails
        # at once and not after a construction or a sweep
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            print(f"invalid output directory: {e}", file=sys.stderr)
            return EXIT_INVALID_INPUT
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
