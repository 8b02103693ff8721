"""Command line interface.

Exit codes: 0 success, 1 negative decision (e.g. not equivalent),
2 usage or parse error, 3 a property that must always hold failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from itertools import chain, repeat

from .determination import verify_shared_part_property
from .errors import ConsistencyError, SeidelSpecError
from .exactalg import charpoly_oracle
from .graphs import (
    check_graph_order,
    complete_multipartite,
    graph6_decode,
    seidel_matrix,
    switching_equivalent,
)
from .multipartite import CLOSED_FORMS, Partition, quotient_matrix
from .spectra import COMPARISON_TOL, spectrum_report
from .verify import DEFAULT_SEED, SUITES, run_suites

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

FORMS = (*CLOSED_FORMS, "oracle")


_encode = json.encoder.encode_basestring_ascii
# pieces per write: a search piece is a whole coefficient list or dict
# entry, so 256 of them make writes of some 40 kB; larger writes raised the
# peak RSS of a search
_WRITE_PIECES = 256
_END = object()  # marks an iterator with no items


def _print_json(payload) -> None:
    """Print ``json.dumps(payload, indent=2)`` and a newline, byte for
    byte, written ``_WRITE_PIECES`` pieces at a time, so the whole text is
    never held at once and a pipe sees few writes.  Dict keys are strings."""
    pieces: list[str] = []
    _json_pieces(payload, "\n", pieces)
    pieces.append("\n")
    sys.stdout.write("".join(pieces))


def _json_pieces(value, newline: str, pieces: list[str]) -> None:
    """Append the text of ``json.dumps(value, indent=2)``, nested at the
    indent that ``newline`` ends in, to ``pieces``, writing them out
    whenever there are ``_WRITE_PIECES``.  Dicts and lists are walked here;
    a list of strings only is one piece, joined over the C string encoder.
    Any other iterator is written as a list, one item at a time, so a
    generator's items need never be held together."""
    if isinstance(value, str):
        pieces.append(_encode(value))
        return
    if value is None or value is True or value is False:
        pieces.append("null" if value is None else "true" if value else "false")
        return
    inner = newline + "  "
    comma = "," + inner
    opener, closer = "[" + inner, newline + "]"
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        opener, closer = "{" + inner, newline + "}"
        items = zip(map("".join, zip(map(_encode, value), repeat(": "))), value.values())
    elif isinstance(value, (list, tuple)):
        if not value:
            pieces.append("[]")
            return
        try:
            text = comma.join(map(_encode, value))
        except TypeError:  # an item that is not a string
            items = zip(repeat(""), value)
        else:
            pieces.append(opener + text + closer)
            return
    elif isinstance(value, Iterator):
        first = next(value, _END)
        if first is _END:
            pieces.append("[]")
            return
        items = zip(repeat(""), chain((first,), value))
    else:
        pieces.append(json.dumps(value))
        return
    for head, item in items:
        if isinstance(item, str):
            pieces.append(opener + head + _encode(item))
        else:
            pieces.append(opener + head)
            _json_pieces(item, inner, pieces)
        if len(pieces) >= _WRITE_PIECES:
            sys.stdout.write("".join(pieces))
            pieces.clear()
        opener = comma
    pieces.append(closer)


def _form_result(p: Partition, form: str) -> dict:
    if form == "oracle":
        poly = charpoly_oracle(seidel_matrix(complete_multipartite(p)))
        factored = poly.to_string()
    else:
        f = CLOSED_FORMS[form](p)
        poly, factored = f.expanded, f.factored_str()
    return {
        "name": form,
        "factored": factored,
        "coefficients": [str(c) for c in poly.coeffs],
        "_expanded": poly,
    }


def _parse_partition(text: str) -> Partition:
    """Parse a partition argument, refusing orders a graph cannot hold
    before any part list is built.  Every group adds at least 1 to the
    running order, so reading stops by the first token past the cap."""
    order = 0
    for size, count in Partition.parse_groups(text):
        order += size * count
        check_graph_order(order)
    return Partition.parse(text)


def cmd_charpoly(args) -> int:
    p = _parse_partition(args.partition)
    names = list(FORMS) if args.form == "all" else [args.form]
    results = [_form_result(p, name) for name in names]
    agree = all(r["_expanded"] == results[0]["_expanded"] for r in results)
    if args.json:
        payload = {
            "partition": str(p),
            "forms": [
                {k: v for k, v in r.items() if not k.startswith("_")} for r in results
            ],
            "agree": agree,
        }
        _print_json(payload)
    else:
        print(f"partition: {p}")
        for r in results:
            print(f"form: {r['name']}")
            print(f"  factored: {r['factored']}")
            print(f"  expanded: {r['_expanded'].to_string()}")
            print(f"  coefficients (constant first): {[str(c) for c in r['_expanded'].coeffs]}")
        if args.form == "all":
            print(f"all forms agree: {'yes' if agree else 'NO'}")
    if not agree:
        print("error: closed forms disagree", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_spectrum(args) -> int:
    p = _parse_partition(args.partition)
    report = spectrum_report(p)
    if args.json:
        _print_json(report.to_json_dict())
        return EXIT_OK
    print(f"partition: {p}")
    print(f"order: {p.n}  parts: {p.k}")
    print(f"charpoly: {report.charpoly.factored_str()}")
    print(f"-1 multiplicity: {report.minus_one_multiplicity}")
    print(f"positive roots: {report.positive_roots}")
    print(f"roots below -1: {report.roots_below_minus_one}")
    print("eigenvalues: " + ", ".join(repr(e) for e in report.eigenvalues))
    print(f"least eigenvalue: {report.least_eigenvalue!r}")
    tight = "yes" if report.bound_tight else "no"
    print(f"bound: {report.bound.value!r}  satisfied: yes  tight: {tight}")
    for e, lo, hi, within in report.interval_checks:
        word = "yes" if within else "NO"
        print(f"interval [{lo},{hi}] contains {e!r}: {word}")
    return EXIT_OK


def cmd_bound(args) -> int:
    p = _parse_partition(args.partition)
    report = spectrum_report(p)
    bound, least = report.bound, report.least_eigenvalue
    if args.json:
        payload = {
            "partition": str(p),
            "bound": repr(bound.value),
            "rational": str(bound.rational),
            "sqrt_coefficient": str(bound.sqrt_coefficient),
            "radicands": [str(r) for r in bound.radicands],
            "least_eigenvalue": repr(least),
            "tight": report.bound_tight,
        }
        _print_json(payload)
    else:
        print(f"partition: {p}")
        print(f"bound: {bound.value!r}")
        print(f"least eigenvalue: {least!r}")
        print(f"tight (|difference| < {COMPARISON_TOL}): {'yes' if report.bound_tight else 'no'}")
    return EXIT_OK


def cmd_quotient(args) -> int:
    p = _parse_partition(args.partition)
    b = quotient_matrix(p)
    if args.json:
        payload = {
            "partition": str(p),
            "quotient": [[str(v) for v in row] for row in b.rows],
        }
        _print_json(payload)
    else:
        print(f"partition: {p}")
        for row in b.rows:
            print("[" + ", ".join(str(v) for v in row) + "]")
    return EXIT_OK


def cmd_search(args) -> int:
    report = verify_shared_part_property(args.n, args.k)
    if args.json:
        _print_json(report.to_json_dict())
    else:
        print(f"order: {report.order}" + (f"  k: {args.k}" if args.k else ""))
        print(f"classes: {len(report.classes)}")
        for cls in report.classes:
            if len(cls.partitions) == 1:
                continue
            names = "; ".join(str(p) for p in cls.partitions)
            flag = " (known two-part degeneracy)" if cls.degenerate_bipartite else ""
            print(f"cospectral: {names}{flag}")
        if report.shared_part_violations:
            for a, b, size in report.shared_part_violations:
                print(f"VIOLATION: {a} and {b} share part size {size}")
        else:
            print("shared-part violations: none")
    if report.shared_part_violations:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, max_n=args.max_n, seed=args.seed)
    if args.json:
        payload = {
            "suites": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "checks": r.checks,
                    "failures": list(r.failures),
                }
                for r in results
            ],
            "passed": all(r.passed for r in results),
        }
        _print_json(payload)
    else:
        for r in results:
            word = "PASS" if r.passed else "FAIL"
            print(f"{word} {r.name} checks={r.checks}")
            for f in r.failures:
                print(f"  {f}")
    if not all(r.passed for r in results):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_switch_equiv(args) -> int:
    if len(args.g6) != 2:
        print("error: exactly two --g6 inputs are required", file=sys.stderr)
        return EXIT_USAGE
    g = graph6_decode(args.g6[0])
    h = graph6_decode(args.g6[1])
    if g.n != h.n:
        if args.json:
            _print_json({"equivalent": False, "reason": "orders differ"})
        else:
            print("not equivalent (orders differ)")
        return EXIT_NO
    witness = switching_equivalent(g, h)
    if witness is None:
        if args.json:
            _print_json({"equivalent": False})
        else:
            print("not equivalent")
        return EXIT_NO
    if args.json:
        payload = {
            "equivalent": True,
            "switch_set": list(witness.subset),
            "permutation": list(witness.permutation),
        }
        _print_json(payload)
    else:
        print(f"equivalent: switch at {list(witness.subset)}, relabel by {list(witness.permutation)}")
    return EXIT_OK


def _add_charpoly(sub) -> None:
    sp = sub.add_parser("charpoly", help="Seidel characteristic polynomial of a partition")
    sp.add_argument("partition", help="part sizes like 3,2,1 or grouped 2*3,1*2")
    sp.add_argument("--form", choices=FORMS + ("all",), default="all")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_charpoly)


def _add_spectrum(sub) -> None:
    sp = sub.add_parser("spectrum", help="full exact/numeric spectrum report")
    sp.add_argument("partition")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_spectrum)


def _add_bound(sub) -> None:
    sp = sub.add_parser("bound", help="upper bound on the least Seidel eigenvalue")
    sp.add_argument("partition")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_bound)


def _add_quotient(sub) -> None:
    sp = sub.add_parser("quotient", help="part quotient matrix of the Seidel matrix")
    sp.add_argument("partition")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_quotient)


def _add_search(sub) -> None:
    sp = sub.add_parser("search", help="cospectral classes among partitions of n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_search)


def _add_verify(sub) -> None:
    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    sp.add_argument("--max-n", type=int, default=None)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)


def _add_switch_equiv(sub) -> None:
    sp = sub.add_parser("switch-equiv", help="decide switching equivalence of two graphs")
    sp.add_argument("--g6", action="append", required=True, help="graph6 string (give twice)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_switch_equiv)


# each command's name and the function that adds its subparser, in the
# order of the usage line and of --help
COMMANDS = {
    "charpoly": _add_charpoly,
    "spectrum": _add_spectrum,
    "bound": _add_bound,
    "quotient": _add_quotient,
    "search": _add_search,
    "verify": _add_verify,
    "switch-equiv": _add_switch_equiv,
}
# the usage line's command list when only some subparsers are built
_ALL_COMMANDS = "{" + ",".join(COMMANDS) + "}"


def build_parser(names=tuple(COMMANDS)) -> argparse.ArgumentParser:
    """The parser with the subparsers of ``names``, all of ``COMMANDS`` by
    default.  With fewer, its usage line still lists every command, as the
    full parser's does; the full parser sets no metavar, which would rename
    the command in its "required: command" and "invalid choice" errors."""
    parser = argparse.ArgumentParser(
        prog="seidelspec",
        description="Exact Seidel spectra of complete multipartite graphs.",
    )
    metavar = None if len(names) == len(COMMANDS) else _ALL_COMMANDS
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        COMMANDS[name](sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a call that names a command builds only that command's subparser; no
    # arguments, --help, an unknown name or an option first build them all
    names = argv[:1] if argv and argv[0] in COMMANDS else tuple(COMMANDS)
    parser = build_parser(names)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except SeidelSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
