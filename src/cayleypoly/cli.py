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

Each command's flags are declared once, in a table that both parsers
read: a well-formed call is parsed from it without building argparse;
help, errors and any other call go through argparse, built from it.

Exit codes: 0 success, 1 verification failure or broken internal
invariant (message on stderr), 2 usage error or an --output file that
cannot be written, 3 parameter outside its domain.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .exact import format_rational, parse_rational
from .faces import InconsistentGeometryError, chain_vertices, tutte_f_vector
from .geometry import (
    FAMILIES,
    ParameterDomainError,
    VertexTable,
    check_dimension,
    family_parameters,
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


def _json_chunks(payload) -> Iterator[str]:
    """payload in the bytes of json.dumps(payload, sort_keys=True, indent=2),
    as text pieces to write in order.

    Takes dicts with str keys, lists, tuples, iterators, str, int, bool and
    None, and raises TypeError on anything else.  An iterator at any depth
    is rendered like the list of its items, and consumed one item at a
    time: each item is one piece, so only the item in hand is held.  A
    value with no iterator inside is one piece.  Strings go through
    json's own C encoder.

    Each value is rendered in one pass, with three shortcuts (the caches
    live for one call):
    - Layouts.  The keys of a dict, in insertion order, and its depth find
      its layout: the keys in sorted order, each with its head text
      (brace or comma, indent, key, colon), and the closing text.  Records
      of one kind share one layout, so each key is sorted and encoded
      once.
    - Inline scalars.  A field whose value is exactly a str or an int is
      encoded in the dict's own loop; any other value, True among them,
      goes through value().
    - Rows.  A tuple of strings is rendered once per indent depth and its
      text reused for every equal tuple at that depth: the rows of
      simplices and H-reps repeat many times over.  A list or tuple of
      tuples looks each item up in that memo itself, and renders an item
      with value() only when it misses or cannot be hashed.
    A streamed item is rendered by one value() call, and its text is split
    at placeholders only when that call met an iterator.
    """
    memos: defaultdict[int, dict[tuple, str]] = defaultdict(dict)
    layouts: dict[tuple, tuple[list[tuple[str, str]], str]] = {}
    # The iterators value() met, with their depths, in the order of their
    # placeholders: a NUL, which the encoder escapes inside every string.
    streams: list[tuple[Iterator, int]] = []

    def array(items, depth: int) -> str:
        if not items:
            return "[]"
        inner = "\n" + "  " * (depth + 1)
        first = type(items[0])
        if first is str:
            try:
                body = ("," + inner).join(map(encode_basestring_ascii, items))
            except TypeError:  # not all strings: rendered item by item
                pass
            else:
                return "[" + inner + body + inner[:-2] + "]"
        if first is tuple:
            # Item by item, never the whole list again: value() of an
            # iterator registers it.
            get = memos[depth + 1].get
            texts = []
            for x in items:
                try:
                    text = get(x)
                except TypeError:  # unhashable
                    text = None
                texts.append(text or value(x, depth + 1))
        else:
            texts = [value(x, depth + 1) for x in items]
        return "[" + inner + ("," + inner).join(texts) + inner[:-2] + "]"

    def value(o, depth: int) -> str:
        kind = type(o)
        if kind is str:
            return encode_basestring_ascii(o)
        if kind is tuple and o and type(o[0]) is str:
            memo = memos[depth]
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
            key = (tuple(o), depth)
            layout = layouts.get(key)
            if layout is None:
                # A key that is not a str fails in sorted() or in the
                # encoder, before the layout is cached.
                inner = "\n" + "  " * (depth + 1)
                fields = [
                    (("," if i else "{") + inner + encode_basestring_ascii(k) + ": ", k)
                    for i, k in enumerate(sorted(o))
                ]
                layout = layouts[key] = (fields, inner[:-2] + "}")
            fields, close = layout
            parts = []
            for head, k in fields:
                v = o[k]
                kind = type(v)
                if kind is str:
                    parts += head, encode_basestring_ascii(v)
                elif kind is int:
                    parts += head, int.__repr__(v)
                else:
                    parts += head, value(v, depth + 1)
            parts.append(close)
            return "".join(parts)
        if kind is int:
            return int.__repr__(o)
        if o is True:
            return "true"
        if o is False:
            return "false"
        if o is None:
            return "null"
        if hasattr(o, "__next__"):
            streams.append((o, depth))
            return "\x00"
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    def split(text: str) -> Iterator[str]:
        # text up to each placeholder, then the items of its iterator, each
        # joined to its separator, so that every piece pulls exactly one
        # item.
        gaps = text.split("\x00")
        found = streams[:]
        streams.clear()
        yield gaps[0]
        for (items, at), gap in zip(found, gaps[1:]):
            inner = "\n" + "  " * (at + 1)
            head = "[" + inner
            for item in items:
                text = head + value(item, at + 1)
                if streams:
                    yield from split(text)
                else:
                    yield text
                head = "," + inner
            yield ("[]" if head[0] == "[" else inner[:-2] + "]") + gap

    def chunks(o) -> Iterator[str]:
        text = value(o, 0)
        if streams:
            yield from split(text)
        else:
            yield text

    return chunks(payload)


def _emit(args, payload: dict | str | Iterable[str]) -> None:
    """Write a command's payload as it comes: a dict as JSON, a str or
    an iterable of text pieces as text.  --output is opened only here,
    after every check that runs before the first cell; the cell-count
    check runs after the last cell has been written."""
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


# Flags shared by several commands, as add_argument keywords.
_FAMILY = {"choices": FAMILIES, "required": True}
_N = {"type": int, "required": True}
_Q = {"type": _rational, "default": Fraction(1, 2)}
_T = {"type": _rational, "default": Fraction(1)}
_FORMAT = {"choices": ("json", "text"), "default": "json"}
_OUTPUT = {"default": None}
# Kept so that existing command lines still parse.
_JOBS = {"type": int, "default": 1, "help": "accepted for compatibility; every command runs in one process"}
_POLYTOPE = {"--family": _FAMILY, "--n": _N, "--q": _Q, "--t": _T, "--format": _FORMAT, "--output": _OUTPUT}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, with every subcommand."""
    parser = argparse.ArgumentParser(prog="cayleypoly", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, flags, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, kw in flags.items():
            command.add_argument(flag, **kw)
    return parser


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace of build_parser().parse_args(argv), read from the
    command's flag table without building argparse, for a well-formed
    argv: a command name, then exact known flags, each at most once, each
    a switch or followed by one value that does not start with "-" and
    that passes the flag's type and choices, with every required flag
    given.  None for any other argv: argparse then parses it, so help,
    usage lines and errors stay its own."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][1]
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


def _cmd_hrep(args) -> tuple[dict | Iterable[str], int]:
    check_dimension(args.n)
    fam, q_eff, t_eff = family_parameters(args.family, args.q, args.t)
    hrep = fam.hrep(args.n, q_eff, t_eff)
    # Lists, which the JSON writer does not memoize: each row is written
    # once, so nothing keeps it.
    rows = hrep.texts()
    if args.format == "text":
        header = f"{hrep.dimension} {len(hrep.forms)}\n"
        return chain((header,), (" ".join(row) + "\n" for row in rows)), 0
    return {
        "family": args.family,
        "n": args.n,
        "q": format_rational(q_eff),
        "t": format_rational(t_eff),
        "hrep": {"dimension": hrep.dimension, "inequalities": rows},
    }, 0


def _cmd_simplices(args) -> tuple[dict | Iterable[str], int]:
    fam, q_eff, t_eff = family_parameters(args.family, args.q, args.t)
    n = args.n
    cells = fam.labeled_cells(n)  # checks the node cap before the count is computed
    count = fam.cell_counts(n)[0]
    forests = _counted(cells, count, "simplices")
    texts = VertexTable(n + 1, q_eff, t_eff).texts
    if args.format == "text":
        header = f"{n} {n + 1}\n"
        return (
            f"forest {f.to_parent_text()}\n{header}" + "".join([" ".join(v) + "\n" for v in texts(f)])
            for f in forests
        ), 0
    return {
        "family": args.family,
        "n": n,
        "count": count,
        "simplices": ({"forest": f.to_parent_text(), "dimension": n, "vertices": texts(f)} for f in forests),
    }, 0


def _cmd_pieces(args) -> tuple[dict | Iterable[str], int]:
    fam, q_eff, t_eff = family_parameters(args.family, args.q, args.t)
    plane = fam.plane_cells(args.n)  # checks the node cap before the count is computed
    count = fam.cell_counts(args.n)[1]
    n = args.n
    # Tuples, shared by the pieces that have a row, which the JSON writer
    # renders once each.
    texts = VertexTable(n + 1, q_eff, t_eff).piece_texts
    entries = ((pf.to_text(), texts(pf)) for pf in _counted(plane, count, "pieces"))
    if args.format == "text":
        return (
            f"plane_forest {name}\n{n} {len(rows)}\n" + "".join([" ".join(row) + "\n" for row in rows])
            for name, rows in entries
        ), 0
    return {
        "family": args.family,
        "n": n,
        "count": count,
        "pieces": (
            {"plane_forest": name, "hrep": {"dimension": n, "inequalities": rows}} for name, rows in entries
        ),
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
    _, points, provenance = chain_vertices(args.family, args.n, args.q, args.t, texts=True)
    if args.format == "text":
        return "".join([f"{args.n} {len(points)}\n", *(" ".join(p) + "\n" for p in points)]), 0
    return {
        "family": args.family,
        "n": args.n,
        "count": len(points),
        "points": points,
        "provenance": provenance,
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


# Each command's help line, its flags ({flag: add_argument keywords}) and
# the function that runs it, each in the order the help lists them.  Both
# parsers read the flags: _parse_plain mirrors only the keywords type,
# default, choices, required, help and action="store_true", and a str
# default with no type.
_COMMANDS = {
    "hrep": ("H-representation of a family polytope", _POLYTOPE, _cmd_hrep),
    "simplices": ("triangulation simplices (V-reps)", _POLYTOPE, _cmd_simplices),
    "pieces": ("subdivision pieces (H-reps)", _POLYTOPE, _cmd_pieces),
    "volume": (
        "n!-scaled volume, three ways",
        {
            "--family": _FAMILY, "--n": _N, "--q": _Q, "--t": _T, "--output": _OUTPUT,
            "--symbolic": {"action": "store_true", "help": "skip the determinant pass"},
            "--jobs": _JOBS,
        },
        _cmd_volume,
    ),
    "zpoly": (
        "spanning-subgraph sum of the complete graph",
        {
            "--n": {**_N, "help": "number of nodes of K_n"},
            "--format": _FORMAT, "--output": _OUTPUT, "--jobs": _JOBS,
        },
        _cmd_zpoly,
    ),
    "fvector": (
        "f-vector of the two-parameter polytope",
        {"--n": _N, "--q": _Q, "--t": _T, "--output": _OUTPUT},
        _cmd_fvector,
    ),
    "vertices": ("closed-form vertex set of a family polytope", _POLYTOPE, _cmd_vertices),
    "recursion": (
        "connected-graph edge generating function",
        {
            "--n": _N, "--mode": {"choices": ("recursion", "bruteforce", "both"), "default": "both"},
            "--output": _OUTPUT, "--jobs": _JOBS,
        },
        _cmd_recursion,
    ),
    "cayley1857": ("integer-point and partition counts", {"--n": _N, "--output": _OUTPUT}, _cmd_cayley1857),
    "verify": (
        "run verification jobs; exit 0 iff all pass",
        {
            "--check": {"choices": (*CHECKS, "all"), "default": "all"},
            "--all": {"action": "store_true", "help": "synonym for --check all"},
            "--family": {"choices": FAMILIES, "default": "tutte"},
            "--n": {"type": int, "default": None},
            "--nmax": {"type": int, "default": 3},
            "--q": _Q, "--t": _T,
            "--samples": {"type": int, "default": DEFAULT_SAMPLES},
            "--seed": {"type": int, "default": DEFAULT_SEED},
            "--jobs": _JOBS, "--output": _OUTPUT,
        },
        _cmd_verify,
    ),
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
        _emit(args, payload)
    except ParameterDomainError as exc:
        print(f"parameter domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (DegenerateSimplexError, InconsistentGeometryError, _CellCountError) as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: cannot write {args.output or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
