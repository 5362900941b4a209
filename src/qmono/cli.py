"""Command-line front end.

Every subcommand prints a human-readable summary by default and a
machine-readable document with --json.  Complex numbers are serialized
as [re, im] pairs.  Exit status: 0 success, 1 domain error, 2 usage
error.  The env var QMONO_TOL overrides the default tolerance 1e-9.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from . import group, homology, orbits, representation
from .errors import MalformedLoopFile, QmonoError
from .representation import Parity


def _emit(args: argparse.Namespace, document: dict, text: str) -> None:
    if args.json:
        print(json.dumps(document, sort_keys=True))
    else:
        print(text)


def _word_document(g: group.GroupWord) -> dict:
    return {
        "word": group.format_word(g),
        "free_part": [[gen, exp] for gen, exp in g.free_part],
        "kappa_bit": g.kappa_bit,
    }


def _cmd_normalize(args) -> int:
    g = group.parse_word(args.word)
    _emit(args, _word_document(g), group.format_word(g))
    return 0


def _cmd_multiply(args) -> int:
    g = group.multiply(group.parse_word(args.word1), group.parse_word(args.word2))
    _emit(args, _word_document(g), group.format_word(g))
    return 0


def _cmd_invert(args) -> int:
    g = group.invert(group.parse_word(args.word))
    _emit(args, _word_document(g), group.format_word(g))
    return 0


def _cmd_rep(args) -> int:
    parity = Parity.from_dimension(args.n)
    g = group.parse_word(args.word)
    m = representation.matrix_of(g, parity)
    document = {
        "n": args.n,
        "parity": parity.value,
        "word": group.format_word(g),
        "matrix": m.rows(),
        "det": m.det(),
        "quotient_character": representation.quotient_character(g, parity),
    }
    text = (f"matrix {m.rows()}  det {m.det()}  "
            f"quotient_character {document['quotient_character']}")
    _emit(args, document, text)
    return 0


def _parse_point(text: str) -> tuple[int, int]:
    try:
        u, v = (int(part) for part in text.split(","))
    except ValueError:
        raise QmonoError(f"expected a lattice point 'u,v', got {text!r}") from None
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


def _cmd_orbit(args) -> int:
    parity = Parity.from_dimension(args.n)
    start = _parse_point(args.start)
    report = orbits.verify_orbit_claim(args.radius, args.max_word_len, parity,
                                       start=start)
    document = {
        "n": args.n,
        "parity": parity.value,
        "start": list(start),
        "box_radius": report.box_radius,
        "max_word_len": report.max_word_len,
        "reached": sorted(map(list, report.reached)),
        "claimed": sorted(map(list, report.claimed)),
        "missing": sorted(map(list, report.missing)),
        "extraneous": sorted(map(list, report.extraneous)),
        "ok": report.ok(),
    }
    text = "\n".join([
        f"reached {len(report.reached)} points "
        f"(word length <= {report.max_word_len})",
        f"claimed in box radius {report.box_radius}: {len(report.claimed)}",
        f"missing: {sorted(report.missing)}",
        f"extraneous: {sorted(report.extraneous)}",
        f"ok: {report.ok()}",
    ])
    _emit(args, document, text)
    return 0


def _cmd_classify(args) -> int:
    from . import loops  # numpy loads only for the loop commands

    with open(args.loop_file) as fh:
        try:
            loop = loops.loop_from_dict(json.load(fh))
        except (IndexError, KeyError, OverflowError, RecursionError, TypeError,
                ValueError) as exc:  # not JSON, or not the loop format
            raise MalformedLoopFile(f"{args.loop_file}: {type(exc).__name__}: {exc}") from None
    if args.n is not None and args.n != loop.n:
        raise QmonoError(f"--n {args.n} does not match loop dimension {loop.n}")
    result = loops.classify(loop)
    diags = result.diagnostics
    document = {
        "word": group.format_word(result.word),
        "kappa_bit": result.word.kappa_bit,
        "matrix_even": result.matrix_even.rows(),
        "matrix_odd": result.matrix_odd.rows(),
        "diagnostics": dataclasses.asdict(diags),
    }
    text = "\n".join([
        f"word: {group.format_word(result.word)}",
        f"matrix (even n): {result.matrix_even.rows()}",
        f"matrix (odd n):  {result.matrix_odd.rows()}",
        f"diagnostics: margin {diags.min_discriminant_margin:.3g}, "
        f"max step {diags.max_relative_step:.3g}, "
        f"crossings {diags.crossing_count}, branch flip {diags.branch_flip}",
    ])
    _emit(args, document, text)
    return 0


def _cmd_homology(args) -> int:
    table = homology.homology_table(args.n)
    document = {
        "n": table.n,
        "relative": {str(k): v for k, v in sorted(table.relative.items())},
        "absolute_reduced": {str(k): v for k, v in sorted(table.absolute.items())},
        "pieces": {name: {str(k): v for k, v in sorted(ranks.items())}
                   for name, ranks in sorted(table.pieces.items())},
    }
    lines = [f"H_i(C^{table.n}, A u L) ranks:"]
    for degree in range(table.n + 2):
        lines.append(f"  degree {degree}: {table.relative.get(degree, 0)}")
    _emit(args, document, "\n".join(lines))
    return 0


def _cmd_make_loop(args) -> int:
    from . import loops

    if args.kind == "alpha":
        loop = loops.make_alpha_loop(args.n, args.eps, args.samples)
    elif args.kind == "beta":
        loop = loops.make_beta_loop(args.n, args.eps, args.samples)
    else:
        loop = loops.make_kappa_loop(args.n, args.samples)
    with open(args.output, "w") as fh:
        json.dump(loops.loop_to_dict(loop), fh)
        fh.write("\n")
    _emit(args, {"written": args.output, "kind": args.kind,
                 "samples": len(loop.samples)},
          f"wrote {args.kind} loop ({len(loop.samples)} samples) to {args.output}")
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_selftest()
    document = {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                           for r in results],
                "ok": all(r.passed for r in results)}
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}" + (f": {r.detail}" if r.detail else ""))
    _emit(args, document, "\n".join(lines))
    return 0 if document["ok"] else 1


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

    p = add("normalize", _cmd_normalize, help="normal form of a word")
    p.add_argument("word")

    p = add("multiply", _cmd_multiply, help="product of two words")
    p.add_argument("word1")
    p.add_argument("word2")

    p = add("invert", _cmd_invert, help="inverse of a word")
    p.add_argument("word")

    p = add("rep", _cmd_rep, help="monodromy matrix of a word")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("word")

    p = add("orbit", _cmd_orbit, help="lattice orbit report")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--start", default="1,0", help="start point u,v")
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
        return args.func(args)
    except QmonoError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
