"""Command-line surface.

Usage:
    cayleypoly hrep --family tutte --n 3 --q 1/2 --t 1
    cayleypoly simplices --family cayley --n 2
    cayleypoly pieces --family tutte --n 2 --q 1/2 --t 1
    cayleypoly volume --family tutte --n 3 --symbolic
    cayleypoly zpoly --n 4
    cayleypoly fvector --n 5 --q 1/2 --t 1
    cayleypoly vertices --family tutte --n 3 --q 1/2 --t 1
    cayleypoly recursion --n 6 --mode both
    cayleypoly cayley1857 --n 3
    cayleypoly verify --check all --nmax 3

Rational parameters are exact strings ("1/2", "2"); decimals and zero
denominators are rejected (exit 2).
Every command writes deterministic output (sorted keys, fixed enumeration
order), so identical flags produce byte-identical bytes.

A well-formed call is parsed from the argument declarations without
building argparse; help, errors and any other call go through argparse.

Exit codes: 0 success, 1 verification failure or broken internal
invariant (message on stderr), 2 usage error or an --output file that
cannot be written, 3 parameter outside its domain.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .exact import format_rational, parse_rational
from .faces import InconsistentGeometryError, cayley_vertices, tutte_f_vector, tutte_vertices
from .geometry import (
    FAMILIES,
    ParameterDomainError,
    build_hrep,
    check_dimension,
    family_parameters,
    get_family,
    orthoscheme_vertices,
    piece_for_plane_forest,
    simplex_texts,
    vrep_to_text,
)
from .verify import CHECKS, DEFAULT_SAMPLES, DEFAULT_SEED, plan
from .volumes import (
    DegenerateSimplexError,
    connected_gf,
    lattice_and_partition_counts,
    volume_report,
    z_bruteforce,
)

EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


class _Streamed(Exception):
    """Raised by the JSON renderer on an iterator, which it does not consume."""


def _json_chunks(payload) -> Iterator[str]:
    """payload in the bytes of json.dumps(payload, sort_keys=True, indent=2),
    as text pieces to write in order.

    Takes dicts with str keys, lists, tuples, iterators, str, int, bool and
    None, and raises TypeError on anything else.  An iterator at any depth
    is rendered like the list of its items, and consumed one item at a
    time: each item is one piece, so only the item in hand is held.  A
    value with no iterator inside is one piece.  Strings go through
    json's own C encoder.  A tuple of strings is rendered once per indent
    depth and its text reused for every equal tuple at that depth (one
    memo per call): the rows of simplices and H-reps repeat many times
    over.
    """
    memos: dict[int, dict[tuple, str]] = {}

    def array(items, depth: int) -> str:
        if not items:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        if type(items[0]) is str:
            try:
                body = ("," + inner).join(map(encode_basestring_ascii, items))
            except TypeError:  # not all strings: rendered item by item
                pass
            else:
                return "[" + inner + body + inner[:-2] + "]"
        return "[" + inner + ("," + inner).join([value(x, depth + 1) for x in items]) + inner[:-2] + "]"

    def value(o, depth: int) -> str:
        kind = type(o)
        if kind is str:
            return encode_basestring_ascii(o)
        if kind is tuple and o and type(o[0]) is str:
            memo = memos.get(depth)
            if memo is None:
                memo = memos[depth] = {}
            try:
                text = memo.get(o)
                if text is None:
                    inner = "\n" + "  " * (depth + 1)
                    items = ("," + inner).join(map(encode_basestring_ascii, o))
                    text = memo[o] = "[" + inner + items + inner[:-2] + "]"
            except TypeError:  # not all strings: rendered item by item
                return array(o, depth)
            return text
        if kind is list or kind is tuple:
            return array(o, depth)
        if kind is dict:
            if not o:
                return "{}"
            # A key that is not a str fails in sorted() or in the encoder.
            inner = "\n" + "  " * (depth + 1)
            entries = (encode_basestring_ascii(k) + ": " + value(o[k], depth + 1) for k in sorted(o))
            return "{" + inner + ("," + inner).join(entries) + inner[:-2] + "}"
        if kind is int:
            return int.__repr__(o)
        if o is True:
            return "true"
        if o is False:
            return "false"
        if o is None:
            return "null"
        if hasattr(o, "__next__"):
            raise _Streamed
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def chunks(o, depth: int) -> Iterator[str]:
        # A container is walked here, entry by entry, only when value()
        # meets an iterator inside it; the entries before that iterator
        # are rendered twice, the iterator itself never.
        try:
            text = value(o, depth)
        except _Streamed:
            pass
        else:
            yield text
            return
        if type(o) is dict:
            opener, closer = "{", "}"
            entries = ((encode_basestring_ascii(k) + ": ", o[k]) for k in sorted(o))
        else:
            opener, closer = "[", "]"
            entries = (("", x) for x in o)
        inner = "\n" + "  " * (depth + 1)
        head = opener + inner
        empty = True
        for key, x in entries:
            try:
                text = value(x, depth + 1)
            except _Streamed:
                yield head + key
                yield from chunks(x, depth + 1)
            else:
                yield head + key + text
            head = "," + inner
            empty = False
        yield opener + closer if empty else inner[:-2] + closer

    return chunks(payload, 0)


def _emit(args, payload: dict | str | Iterable[str]) -> None:
    """Write a command's payload as it comes: a dict as JSON, a str or
    an iterable of text pieces as text.  --output is opened only here,
    after every check of the command has passed."""
    if isinstance(payload, dict):
        pieces = chain(_json_chunks(payload), ("\n",))
    elif isinstance(payload, str):
        pieces = (payload,)
    else:
        pieces = payload
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


class _CellCountError(RuntimeError):
    """A cell command wrote a number of cells other than its count."""


def _counted(cells: Iterable, count: int, what: str) -> Iterator:
    """The cells, one at a time; raises _CellCountError after the last one
    unless there were exactly `count`."""
    written = 0
    for cell in cells:
        written += 1
        yield cell
    if written != count:
        raise _CellCountError(f"{written} {what} written, Family.cell_counts gives {count}")


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common(parser, family=False, fmt=True):
    if family:
        parser.add_argument("--family", choices=FAMILIES, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--q", type=_rational, default=Fraction(1, 2))
    parser.add_argument("--t", type=_rational, default=Fraction(1))
    if fmt:
        parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--output", default=None)


# Kept so that existing command lines still parse.
_SWEEP_JOBS_HELP = "accepted for compatibility; every command runs in one process"


def _add_volume(p):
    _add_common(p, family=True, fmt=False)
    p.add_argument("--symbolic", action="store_true", help="skip the determinant pass")
    p.add_argument("--jobs", type=int, default=1, help=_SWEEP_JOBS_HELP)


def _add_zpoly(p):
    p.add_argument("--n", type=int, required=True, help="number of nodes of K_n")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--jobs", type=int, default=1, help=_SWEEP_JOBS_HELP)


def _add_recursion(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("recursion", "bruteforce", "both"), default="both")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--jobs", type=int, default=1, help=_SWEEP_JOBS_HELP)


def _add_cayley1857(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", default=None)


def _add_verify(p):
    p.add_argument("--check", choices=(*CHECKS, "all"), default="all")
    p.add_argument("--all", action="store_true", help="synonym for --check all")
    p.add_argument("--family", choices=FAMILIES, default="tutte")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--q", type=_rational, default=Fraction(1, 2))
    p.add_argument("--t", type=_rational, default=Fraction(1))
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--jobs", type=int, default=1, help=_SWEEP_JOBS_HELP)
    p.add_argument("--output", default=None)


def _add_family_polytope(p):
    _add_common(p, family=True)


def _add_fvector(p):
    _add_common(p, fmt=False)


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand."""
    parser = argparse.ArgumentParser(prog="cayleypoly", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


class _Declarations:
    """A command's flags, recorded by running its adder against this
    object in place of a parser: {flag: add_argument keywords}.  Raises
    TypeError on a keyword that _parse_plain does not mirror, and on a str
    default with a type (which argparse would convert)."""

    _MIRRORED = frozenset({"type", "default", "choices", "required", "action", "help"})

    def __init__(self, add_arguments):
        self.flags: dict[str, dict] = {}
        add_arguments(self)

    def add_argument(self, flag: str, **kw) -> None:
        if (
            kw.keys() - self._MIRRORED
            or kw.get("action", "store_true") != "store_true"
            or (isinstance(kw.get("default"), str) and "type" in kw)
        ):
            raise TypeError(f"cannot mirror add_argument({flag!r}, **{kw!r})")
        self.flags[flag] = kw


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace of build_parser().parse_args(argv), read from the
    command's declarations without building argparse, for a well-formed
    argv: a command name, then exact known flags, each at most once, each
    a switch or followed by one value that does not start with "-" and
    that passes the flag's type and choices, with every required flag
    given.  None for any other argv: argparse then parses it, so help,
    usage lines and errors stay its own."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _Declarations(_COMMANDS[argv[0]][1]).flags
    given: dict[str, object] = {}
    rest = iter(argv[1:])
    for flag in rest:
        kw = flags.get(flag)
        if kw is None or flag in given:
            return None
        if "action" in kw:
            given[flag] = True
            continue
        text = next(rest, "-")  # a value flag at the end has none
        if text.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
    values = {}
    for flag, kw in flags.items():
        if flag in given:
            value = given[flag]
        elif kw.get("required"):
            return None
        else:
            value = kw.get("default", False if "action" in kw else None)
        values[flag.lstrip("-").replace("-", "_")] = value
    return argparse.Namespace(command=argv[0], **values)


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------


# Each command returns its payload and its exit code: a dict for JSON, or
# text as a str or as an iterable of pieces.  The cell commands give their
# cells as iterators, so each cell is built as it is written; every check
# runs before they return.


def _row_texts(form) -> list[str]:
    """A row of a family H-rep as texts.  Not AffineForm.texts, which
    caches them on the form, and a list, which the JSON writer does not
    memoize: these rows are written once each, so nothing keeps them."""
    return [format_rational(form.constant), *map(format_rational, form.coefficients)]


def _cmd_hrep(args) -> tuple[dict | Iterable[str], int]:
    hrep = build_hrep(args.family, args.n, args.q, args.t)
    rows = map(_row_texts, hrep.inequalities)
    if args.format == "text":
        header = f"{hrep.dimension} {len(hrep.inequalities)}\n"
        return chain((header,), (" ".join(row) + "\n" for row in rows)), 0
    q_eff, t_eff = family_parameters(args.family, args.q, args.t)
    return {
        "family": args.family,
        "n": args.n,
        "q": format_rational(q_eff),
        "t": format_rational(t_eff),
        "hrep": {"dimension": hrep.dimension, "inequalities": rows},
    }, 0


def _cmd_simplices(args) -> tuple[dict | Iterable[str], int]:
    q_eff, t_eff = family_parameters(args.family, args.q, args.t)
    n = args.n
    fam = get_family(args.family)
    cells = fam.labeled_cells(n)  # checks the node cap before the count is computed
    count = fam.cell_counts(n)[0]
    forests = _counted(cells, count, "simplices")
    if args.format == "text":
        header = f"{n} {n + 1}\n"
        return (
            f"forest {f.to_parent_text()}\n{header}"
            + "".join([" ".join(v) + "\n" for v in simplex_texts(f, q_eff, t_eff)])
            for f in forests
        ), 0
    return {
        "family": args.family,
        "n": n,
        "count": count,
        "simplices": (
            {"forest": f.to_parent_text(), "dimension": n, "vertices": simplex_texts(f, q_eff, t_eff)}
            for f in forests
        ),
    }, 0


def _cmd_pieces(args) -> tuple[dict | Iterable[str], int]:
    q_eff, t_eff = family_parameters(args.family, args.q, args.t)
    fam = get_family(args.family)
    plane = fam.plane_cells(args.n)  # checks the node cap before the count is computed
    count = fam.cell_counts(args.n)[1]
    entries = (
        (pf.to_text(), piece_for_plane_forest(pf, q_eff, t_eff)) for pf in _counted(plane, count, "pieces")
    )
    if args.format == "text":
        return (f"plane_forest {name}\n{hrep.to_text()}" for name, hrep in entries), 0
    return {
        "family": args.family,
        "n": args.n,
        "count": count,
        "pieces": ({"plane_forest": name, "hrep": h.to_json_obj()} for name, h in entries),
    }, 0


def _cmd_volume(args) -> tuple[dict | str, int]:
    report = volume_report(
        args.family,
        args.n,
        args.q,
        args.t,
        with_determinant=not args.symbolic,
    )
    payload = {
        "family": args.family,
        "n": args.n,
        "agree": report.agree(),
        "polynomial": report.by_graph_sum.to_json_obj(),
        "by_closed_form": report.by_closed_form.to_json_obj(),
        "by_pieces": report.by_pieces.to_json_obj(),
    }
    if report.by_determinant is not None:
        payload["q"] = format_rational(report.q)
        payload["t"] = format_rational(report.t)
        payload["by_determinant"] = format_rational(report.by_determinant)
    return payload, 0 if report.agree() else EXIT_VERIFICATION_FAILURE


def _cmd_zpoly(args) -> tuple[dict | str, int]:
    poly = z_bruteforce(args.n)
    if args.format == "text":
        return repr(poly) + "\n", 0
    return {"nodes": args.n, "polynomial": poly.to_json_obj()}, 0


def _cmd_fvector(args) -> tuple[dict | str, int]:
    f = tutte_f_vector(args.n, args.q, args.t)
    return {
        "n": args.n,
        "q": format_rational(args.q),
        "t": format_rational(args.t),
        "f": list(f),
    }, 0


def _cmd_vertices(args) -> tuple[dict | str, int]:
    q_eff, t_eff = family_parameters(args.family, args.q, args.t)
    fam = get_family(args.family)
    if fam.q is None:
        vs = tutte_vertices(args.n, q_eff, t_eff)
        points, provenance = vs.points, vs.provenance
    elif fam.connected:
        vs = cayley_vertices(args.n, t_eff)
        points, provenance = vs.points, vs.provenance
    else:
        check_dimension(args.n)
        lengths = [(1 + t_eff) ** k for k in range(1, args.n + 1)]
        points = tuple(orthoscheme_vertices(lengths))
        provenance = tuple(f"prefix={k}" for k in range(args.n + 1))
    if args.format == "text":
        return vrep_to_text(points, args.n), 0
    return {
        "family": args.family,
        "n": args.n,
        "count": len(points),
        "points": [[format_rational(x) for x in p] for p in points],
        "provenance": list(provenance),
    }, 0


def _cmd_recursion(args) -> tuple[dict | str, int]:
    payload: dict = {"n": args.n, "mode": args.mode}
    if args.mode in ("recursion", "both"):
        payload["recursion"] = connected_gf(args.n, "recursion").to_json_obj()
    if args.mode in ("bruteforce", "both"):
        payload["bruteforce"] = connected_gf(args.n, "bruteforce").to_json_obj()
    if args.mode == "both":
        payload["agree"] = payload["recursion"] == payload["bruteforce"]
    return payload, 0 if payload.get("agree", True) else EXIT_VERIFICATION_FAILURE


def _cmd_cayley1857(args) -> tuple[dict | str, int]:
    lattice, partitions = lattice_and_partition_counts(args.n)
    payload = {"n": args.n, "lattice_points": lattice, "partitions": partitions}
    return payload, 0 if lattice == partitions else EXIT_VERIFICATION_FAILURE


def _cmd_verify(args) -> tuple[dict | str, int]:
    check = "all" if args.all else args.check
    jobs = plan(check, args.nmax, args.n, args.family, args.q, args.t, args.samples, args.seed)
    reports = [job() for job in jobs]
    all_passed = all(r.passed for r in reports)
    payload = {"passed": all_passed, "jobs": [r.to_json_obj() for r in reports]}
    return payload, 0 if all_passed else EXIT_VERIFICATION_FAILURE


# Commands whose --n is the dimension of a family polytope.
_DIMENSION_COMMANDS = frozenset({"hrep", "simplices", "pieces", "vertices", "fvector", "verify"})


def _check_domain(args) -> None:
    """Range checks shared by every command that has the flag: the
    polytope dimension --n (when given), --nmax and --jobs."""
    n = getattr(args, "n", None)
    if args.command in _DIMENSION_COMMANDS and n is not None and n < 1:
        raise ParameterDomainError("n must be >= 1")
    if getattr(args, "nmax", 1) < 1:
        raise ParameterDomainError("nmax must be >= 1")
    if getattr(args, "jobs", 1) < 1:
        raise ParameterDomainError("jobs must be >= 1")


# Each command's help line, the function that adds its arguments, and the
# function that runs it, in the order the help lists them.
_COMMANDS = {
    "hrep": ("H-representation of a family polytope", _add_family_polytope, _cmd_hrep),
    "simplices": ("triangulation simplices (V-reps)", _add_family_polytope, _cmd_simplices),
    "pieces": ("subdivision pieces (H-reps)", _add_family_polytope, _cmd_pieces),
    "volume": ("n!-scaled volume, three ways", _add_volume, _cmd_volume),
    "zpoly": ("spanning-subgraph sum of the complete graph", _add_zpoly, _cmd_zpoly),
    "fvector": ("f-vector of the two-parameter polytope", _add_fvector, _cmd_fvector),
    "vertices": ("closed-form vertex set of a family polytope", _add_family_polytope, _cmd_vertices),
    "recursion": ("connected-graph edge generating function", _add_recursion, _cmd_recursion),
    "cayley1857": ("integer-point and partition counts", _add_cayley1857, _cmd_cayley1857),
    "verify": ("run verification jobs; exit 0 iff all pass", _add_verify, _cmd_verify),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse is built only for calls the plain parse refuses (help,
    # errors, abbreviated or repeated flags): its first message lookup
    # imports locale, which costs more than most commands.
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.command == "verify" and args.n is not None and (args.all or args.check == "all"):
        build_parser().error("--n does not combine with --check all (the default); the sweep runs n = 1..--nmax")
    try:
        _check_domain(args)
        payload, code = _COMMANDS[args.command][2](args)
    except ParameterDomainError as exc:
        print(f"parameter domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (DegenerateSimplexError, InconsistentGeometryError) as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        _emit(args, payload)
    except OSError as exc:
        print(f"error: cannot write {args.output or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except _CellCountError as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    return code


if __name__ == "__main__":
    sys.exit(main())
