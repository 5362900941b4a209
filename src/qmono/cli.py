"""Command-line front end.

Every subcommand prints a human-readable summary by default and a
machine-readable document with --json.  Complex numbers are serialized
as [re, im] pairs.  Exit status: 0 success, 1 domain error, 2 usage
error.  `classify` reads the env var QMONO_TOL, a tolerance 0 < tol < 1 that
overrides the default 1e-9; no other command, and no library call, reads it.

Each `_cmd_*` handler returns what `main` prints, the document under
--json and the text otherwise, with its exit status, and builds no output
that is not printed.  `main` alone prints it, and maps a QmonoError or an
OSError (printing included) to `error: ...` and exit status 1.

The CLI holds no file-format code: `classify` reads its loop file with
`loops.load` and `make-loop` writes one with `loops.save`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Sequence

from . import group, homology, orbits, representation
from .errors import BadParameters, BadTolerance, QmonoError
from .representation import Parity


# name -> (operation on the parsed word arguments, their names, help text)
_WORD_COMMANDS = {
    "normalize": (lambda g: g, ("word",), "normal form of a word"),
    "multiply": (group.multiply, ("word1", "word2"), "product of two words"),
    "invert": (group.invert, ("word",), "inverse of a word"),
}


def _cmd_word(args):
    operation, names, _ = _WORD_COMMANDS[args.subcommand]
    g = operation(*(group.parse_word(getattr(args, name)) for name in names))
    word = group.format_word(g)
    return ({"word": word, "free_part": [[gen, exp] for gen, exp in g.free_part],
             "kappa_bit": g.kappa_bit} if args.json else word), 0


def _cmd_rep(args):
    parity = Parity.from_dimension(args.n)
    g = group.parse_word(args.word)
    m = representation.matrix_of(g, parity)
    character = representation.quotient_character(g, parity)
    return ({
        "n": args.n,
        "parity": parity.value,
        "word": group.format_word(g),
        "matrix": m.rows(),
        "det": m.det(),
        "quotient_character": character,
    } if args.json else f"matrix {m.rows()}  det {m.det()}  quotient_character {character}"), 0


def _lattice_point(text: str) -> tuple[int, int]:
    """argparse type: a lattice point 'u,v'."""
    try:
        u, v = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a lattice point 'u,v', got {text!r}") from None
    return (u, v)


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _cmd_orbit(args):
    parity = Parity.from_dimension(args.n)
    report = orbits.verify_orbit_claim(args.radius, args.max_word_len, parity,
                                       start=args.start)
    if args.json:
        return {
            "n": args.n,
            "parity": parity.value,
            "start": list(args.start),
            "box_radius": report.box_radius,
            "max_word_len": report.max_word_len,
            "ok": report.ok(),
            **{name: sorted(map(list, getattr(report, name)))
               for name in ("reached", "claimed", "missing", "extraneous")},
        }, 0
    return "\n".join([
        f"reached {len(report.reached)} points "
        f"(word length <= {report.max_word_len})",
        f"claimed in box radius {report.box_radius}: {len(report.claimed)}",
        f"missing: {sorted(report.missing)}",
        f"extraneous: {sorted(report.extraneous)}",
        f"ok: {report.ok()}",
    ]), 0


def _cmd_classify(args):
    from . import loops  # numpy loads only for the loop commands

    loop = loops.load(args.loop_file)
    if args.n is not None and args.n != loop.n:
        raise BadParameters(f"--n {args.n} does not match loop dimension {loop.n}")
    try:  # an empty QMONO_TOL counts as unset; a bad one is classify's only BadTolerance
        result = loops.classify(loop, os.environ.get("QMONO_TOL") or None)
    except BadTolerance as exc:
        raise BadTolerance(f"QMONO_TOL: {exc}") from None
    diags = result.diagnostics
    if args.json:
        return {
            "word": group.format_word(result.word),
            "kappa_bit": result.word.kappa_bit,
            "matrix_even": result.matrix_even.rows(),
            "matrix_odd": result.matrix_odd.rows(),
            "diagnostics": dataclasses.asdict(diags),
        }, 0
    return "\n".join([
        f"word: {group.format_word(result.word)}",
        f"matrix (even n): {result.matrix_even.rows()}",
        f"matrix (odd n):  {result.matrix_odd.rows()}",
        f"diagnostics: margin {diags.min_discriminant_margin:.3g}, "
        f"max step {diags.max_relative_step:.3g}, "
        f"crossings {diags.crossing_count}, branch flip {diags.branch_flip}",
    ]), 0


def _ranks(table: dict) -> dict:
    """A degree -> rank table with its degrees as JSON keys."""
    return {str(degree): rank for degree, rank in table.items()}


def _cmd_homology(args):
    table = homology.homology_table(args.n)
    if args.json:
        return {
            "n": table.n,
            "relative": _ranks(table.relative),
            "absolute_reduced": _ranks(table.absolute),
            "pieces": {name: _ranks(ranks) for name, ranks in table.pieces.items()},
        }, 0
    return "\n".join(
        [f"H_i(C^{table.n}, A u L) ranks:"]
        + [f"  degree {i}: {table.relative.get(i, 0)}" for i in range(table.n + 2)]), 0


def _cmd_make_loop(args):
    from . import loops

    makers = {"alpha": loops.make_alpha_loop, "beta": loops.make_beta_loop,
              "kappa": lambda n, _eps, m: loops.make_kappa_loop(n, m)}
    loop = makers[args.kind](args.n, args.eps, args.samples)
    loops.save(loop, args.output)
    samples = len(loop.samples)
    return ({"written": args.output, "kind": args.kind, "samples": samples} if args.json
            else f"wrote {args.kind} loop ({samples} samples) to {args.output}"), 0


def _cmd_selftest(args):
    from . import selftest

    results = selftest.run_selftest()
    ok = all(r.passed for r in results)
    return ({"checks": [dataclasses.asdict(r) for r in results], "ok": ok} if args.json
            else "\n".join(f"{'PASS' if r.passed else 'FAIL'} {r.name}"
                           + (f": {r.detail}" if r.detail else "") for r in results)), int(not ok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmono",
        description="Monodromy of generic hyperplanes against the standard "
                    "quadric: word problem, representation, orbits, loop "
                    "classification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        p.set_defaults(func=func)
        return p

    for name, (_, words, summary) in _WORD_COMMANDS.items():
        p = add(name, _cmd_word, help=summary)
        for word in words:
            p.add_argument(word)

    p = add("rep", _cmd_rep, help="monodromy matrix of a word")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("word")

    p = add("orbit", _cmd_orbit, help="lattice orbit report")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--start", type=_lattice_point, default="1,0", help="start point u,v")
    p.add_argument("--radius", type=_int_at_least(1), default=8, help="box radius")
    p.add_argument("--max-word-len", type=_int_at_least(0), default=12)

    p = add("classify", _cmd_classify, help="classify a sampled loop")
    p.add_argument("--n", type=int, help="expected ambient dimension")
    p.add_argument("loop_file")

    p = add("homology", _cmd_homology, help="relative homology table")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")

    p = add("make-loop", _cmd_make_loop, help="write a fixture loop file")
    p.add_argument("--kind", choices=("alpha", "beta", "kappa"), required=True)
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--eps", type=float, default=0.25,
                   help="circle radius for alpha/beta")
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("-o", "--output", required=True)

    add("selftest", _cmd_selftest, help="run packaged self-checks")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output, status = args.func(args)
        print(json.dumps(output, sort_keys=True) if args.json else output)
    except QmonoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the file, or the pipe on stdout
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
