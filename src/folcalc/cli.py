"""Command-line front end: JSON documents in, JSON (or a table) out.

Exact rationals travel as lowest-terms strings, output keys are sorted, and
identical inputs always produce identical bytes. Exit status 0 means success,
2 a validation problem (malformed input, bad flags), 1 a domain failure
propagated from the library (degenerate configuration, inconsistent samples,
and so on); failures carry a machine-readable {code, message, location}
object on stderr. A refused value of an input file is located at the file
and the JSON Pointer of the value, as in "graph.json#/curves/2/self".
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from collections import Counter
from collections.abc import Iterator

import folcalc

from .errors import FolcalcError, ValidationError
from .rationals import _pointer, format_rational, parse_integer, parse_integer_keys


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems through the shared error object."""

    def error(self, message):
        raise ValidationError(message)


def _load_json(path: str):
    def unique_keys(pairs: list) -> dict:
        """One JSON object; a repeated key would silently replace a value, so it is refused."""
        doc = dict(pairs)
        if len(doc) < len(pairs):
            repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
            raise ValidationError(f"repeated key {repeated!r} in a JSON object", location=path)
        return doc

    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=unique_keys)
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: undecodable bytes, a number past Python's 4300-digit limit
        # for int(str), and nesting past the recursion limit
        raise ValidationError(f"malformed JSON: {exc}", location=path) from exc
    except OSError as exc:
        raise ValidationError(str(exc), location=path) from exc


def _at(path: str, pointer: str, check, *args):
    """``check(*args)``, refusing as it does, at ``path#pointer`` followed by the pointer it gives, if any."""
    try:
        return check(*args)
    except ValidationError as err:
        err.location = f"{path}#{pointer}{err.location or ''}"
        raise


def _cyclic_from_args(args) -> folcalc.cyclic.CyclicType:
    if args.n is None or args.q is None:
        raise ValidationError("this operation needs --n and --q")
    return folcalc.cyclic.CyclicType(args.n, args.q)


# --kind choices, each with the datum it builds from the arguments
_KINDS = {
    "terminal": lambda args: folcalc.contributions.Terminal(_cyclic_from_args(args)),
    "dihedral": lambda args: folcalc.contributions.Dihedral(a_exp=1, l=1, m_odd=1, p=1),
    "cusp": lambda args: folcalc.contributions.Cusp(),
    "gorenstein": lambda args: folcalc.contributions.GorensteinCanonical(),
}


# --- handlers ---------------------------------------------------------------
#
# Handlers reach library modules as attributes of the package, which loads
# each on first use, so a process loads only what its subcommand needs.


def _cmd_hj(args):
    expansion = folcalc.cyclic.hj_expansion(folcalc.cyclic.CyclicType(args.n, args.q))
    return {"b": list(expansion.entries)}


def _cmd_wunram(args):
    t = folcalc.cyclic.CyclicType(args.n, args.q)
    data = folcalc.cyclic.wunram_degrees(t, args.i)
    return {"b": list(folcalc.cyclic.hj_expansion(t).entries), "s": list(data.s), "d": list(data.d)}


def _cmd_contrib(args):
    datum = _KINDS[args.kind](args)
    return {"a": format_rational(folcalc.contributions.contribution(datum, args.m))}


def _cmd_chi_local(args):
    if args.kind is None:
        value = folcalc.contributions.chi_fchain(_cyclic_from_args(args), args.m)
    else:
        value = folcalc.contributions.chi_partial_crepant(_KINDS[args.kind](args), args.m)
    return {"chi": format_rational(value)}


def _graph(path: str) -> folcalc.lattice.DualGraph:
    return _at(path, "", folcalc.lattice.graph_from_json, _load_json(path))


def _cmd_pullback(args):
    graph = _graph(args.graph)
    profile = _at(args.profile, "", folcalc.lattice.profile_from_json, graph, _load_json(args.profile))
    solution = folcalc.lattice.solve_pullback(graph, profile)
    return {**dict.fromkeys(graph.labels, "0"), **folcalc.lattice.divisor_to_json(solution)}


def _cmd_zariski(args):
    graph = _graph(args.graph)
    divisor = _at(args.divisor, "", folcalc.lattice.divisor_from_json, graph, _load_json(args.divisor))
    result = folcalc.zariski.zariski_decompose(graph, divisor)
    return {
        "P": folcalc.lattice.divisor_to_json(result.positive),
        "N": folcalc.lattice.divisor_to_json(result.negative),
        "support": list(result.support),
    }


def _samples_from_json(path: str, obj) -> folcalc.bounds.HilbertSamples:
    """The samples of the document ``obj`` read from ``path``, refused in the record's order, each at its place."""
    if not isinstance(obj, dict) or not isinstance(obj.get("values"), dict):
        where = "/values" if isinstance(obj, dict) else ""
        raise ValidationError('samples JSON must be an object with a "values" map', location=f"{path}#{where}")
    table = obj["values"]
    values = _at(path, "/values", parse_integer_keys, table, "sample table")
    hint = obj.get("period_hint")
    if hint is not None:
        hint = _at(path, "/period_hint", parse_integer, hint)
    for key, (m, v) in zip(table, values.items()):  # the record checks each entry so, in this order
        _at(path, "/values" + _pointer(key), folcalc.bounds._table_value, m, v, "sample key")
    # all the record has left to refuse is the hint's range
    return _at(path, "/period_hint", folcalc.bounds.HilbertSamples, values, hint)


def _config_to_json(cfg: folcalc.bounds.SingularityConfiguration) -> dict:
    return {
        "terminal_orders": list(cfg.terminal_orders),
        "dihedral_count": cfg.dihedral_count,
        "cusp_count": cfg.cusp_count,
    }


def _cmd_bounds(args):
    samples = _samples_from_json(args.samples, _load_json(args.samples))
    report = folcalc.bounds.pipeline(samples, args.mode)
    # N1 depends on the index alone: one record per distinct index, shared by its configurations
    rows = {
        i: {
            "index": i,
            "gamma": format_rational(r.gamma),
            "N1": r.n1,
            "square_threshold_holds": r.square_threshold_holds,
            "curve_threshold_holds": r.curve_threshold_holds,
        }
        for i, r in dict(zip(report.index_candidates, report.results)).items()
    }
    inv = report.invariants
    return {
        "mode": report.mode,
        "invariants": {
            "K2": format_rational(inv.k2),
            "K_dot_KY": format_rational(inv.k_dot_ky),
            "chi_O": inv.chi_o,
            "contribution_sum": format_rational(inv.contribution_sum),
            "cusp_count": inv.cusp_count,
        },
        "configurations": [_config_to_json(c) for c in report.configurations],
        "index_candidates": list(report.index_candidates),
        "max_terminal_order": report.max_terminal_order,
        "per_config": [rows[i] for i in report.index_candidates],
        "N1_worst": report.n1_worst,
        "note": "index candidates are lcm-based upper bounds; |mK| is birational for every m >= N1_worst",
    }


def _cmd_jouanolou(args):
    report = folcalc.jouanolou.accumulation_report(args.dmax)
    return {
        "entries": [
            {
                "d": e.d,
                "volume": format_rational(e.volume),
                "aut_order": e.aut_order,
                "one_minus_volume": format_rational(1 - e.volume),
            }
            for e in report.entries
        ],
        "strictly_increasing": report.strictly_increasing,
        "all_below_one": report.all_below_one,
        "minimum": format_rational(report.minimum),
        "gap_identity_holds": report.gap_identity_holds,
        "converges": report.converges,
    }


def _cmd_dihedral_verify(args):
    datum = folcalc.contributions.Dihedral(
        a_exp=args.a, l=args.l, m_odd=args.modd, p=args.p, variant=args.variant
    )
    report = folcalc.contributions.dihedral_sum_verify(datum)
    z = report.sum_value
    return {
        "sum_value": f"{z.real:.15g}{z.imag:+.15g}j",
        "sum_exact": format_rational(report.sum_exact),
        "expected_n": report.expected_n,
        "pass": report.passed,
        "a": format_rational(report.a_value),
    }


def _cmd_relate(args):
    def table(path):
        obj = _load_json(path)
        if not isinstance(obj, dict):
            raise ValidationError("chi table JSON must map multiples to integers", location=path)
        return obj

    weak, canonical = table(args.weak), table(args.canonical)
    try:
        match = folcalc.bounds.relate_models(weak, canonical, args.cusps)
    except ValidationError as err:
        if err.location is not None:  # a pointer into the table that holds the refused entry
            try:
                folcalc.bounds._chi_table(weak, "weak nef table")  # read first, so any refusal is its own
                path = args.canonical
            except ValidationError:
                path = args.weak
            err.location = f"{path}#{err.location}"
        raise
    return {"match": match}


# --- rendering --------------------------------------------------------------


def _write(pieces) -> None:
    # batched: one string would peak at several times a 104 MB report, a write per piece is slow
    pieces = iter(pieces)
    while batch := "".join(itertools.islice(pieces, 65536)):
        sys.stdout.write(batch)


def _render_json(doc) -> None:
    _write(itertools.chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(doc), ("\n",)))


def _render_table(command: str, doc) -> None:
    _write(f"{line}\n" for line in _table_lines(command, doc))


def _rows_to_table(columns: list[str], rows) -> Iterator[str]:
    """Header, rule and one left-aligned line per row; ``rows()`` runs twice, for widths then lines."""
    widths = [len(c) for c in columns]
    for row in rows():
        widths = list(map(max, widths, map(len, map(str, row))))
    yield "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    yield "  ".join("-" * w for w in widths)
    for row in rows():
        yield "  ".join(map(str.ljust, map(str, row), widths))


def _table_lines(command: str, doc) -> Iterator[str]:
    if command == "jouanolou":
        columns = ["d", "volume", "aut_order", "one_minus_volume"]
        yield from _rows_to_table(columns, lambda: ([e[c] for c in columns] for e in doc["entries"]))
        for key in ("strictly_increasing", "all_below_one", "minimum", "gap_identity_holds", "converges"):
            yield f"{key} = {doc[key]}"
    elif command == "bounds":
        for key, value in sorted(doc["invariants"].items()):
            yield f"{key} = {value}"
        yield ""
        yield from _rows_to_table(
            ["configuration", "index", "gamma", "N1"],
            lambda: map(_config_row, doc["configurations"], doc["per_config"]),
        )
        yield ""
        yield f"max_terminal_order = {doc['max_terminal_order']}"
        yield f"N1_worst = {doc['N1_worst']}"
    elif command == "zariski":
        for part in ("P", "N"):
            body = ", ".join(f"{k}: {v}" for k, v in sorted(doc[part].items())) or "0"
            yield f"{part} = {body}"
        yield f"support = {', '.join(doc['support']) or '(empty)'}"
    else:
        for key, value in sorted(doc.items()):
            yield f"{key} = {value}"


def _config_row(cfg: dict, pc: dict) -> tuple:
    """One line of the bounds table: the configuration in words, then its index, gamma and N1."""
    parts = []
    if cfg["terminal_orders"]:
        parts.append("terminal" + str(tuple(cfg["terminal_orders"])))
    if cfg["dihedral_count"]:
        parts.append(f"dihedral x{cfg['dihedral_count']}")
    if cfg["cusp_count"]:
        parts.append(f"cusp x{cfg['cusp_count']}")
    return " + ".join(parts) or "smooth", pc["index"], pc["gamma"], pc["N1"]


# --- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="folcalc", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hj", parents=[common], help="continued-fraction expansion of n/q")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(handler=_cmd_hj)

    p = sub.add_parser("wunram", parents=[common], help="sheaf-transform degrees of index i")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.add_argument("i", type=int)
    p.set_defaults(handler=_cmd_wunram)

    p = sub.add_parser("contrib", parents=[common], help="local contribution a(y, mK)")
    p.add_argument("--kind", required=True, choices=tuple(_KINDS))
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(handler=_cmd_contrib)

    p = sub.add_parser("chi-local", parents=[common], help="local Euler defect tables")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument(
        "--kind",
        choices=tuple(_KINDS),
        help="partial-crepant table instead of the contracted-string value",
    )
    p.set_defaults(handler=_cmd_chi_local)

    p = sub.add_parser("pullback", parents=[common], help="solve prescribed intersection numbers")
    p.add_argument("graph")
    p.add_argument("profile")
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("zariski", parents=[common], help="decompose a divisor on a configuration")
    p.add_argument("graph")
    p.add_argument("divisor")
    p.set_defaults(handler=_cmd_zariski)

    p = sub.add_parser("bounds", parents=[common], help="pluricanonical bound from Hilbert samples")
    # bounds.WEAK_NEF and bounds.CANONICAL, spelled out so that parsing imports no library module
    p.add_argument("--mode", required=True, choices=("weak-nef", "canonical"))
    p.add_argument("samples")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("jouanolou", parents=[common], help="quotient volumes of the plane family")
    p.add_argument("--dmax", required=True, type=int)
    p.set_defaults(handler=_cmd_jouanolou)

    p = sub.add_parser("dihedral-verify", parents=[common], help="certify the dihedral sum = n")
    p.add_argument("--variant", required=True, choices=("e1", "e2"))
    p.add_argument("--a", required=True, type=int, help="exponent of 2 in 2n")
    p.add_argument("--l", required=True, type=int)
    p.add_argument("--modd", required=True, type=int)
    p.add_argument("--p", required=True, type=int)
    p.set_defaults(handler=_cmd_dihedral_verify)

    p = sub.add_parser("relate", parents=[common], help="compare weak nef and canonical chi tables")
    p.add_argument("weak")
    p.add_argument("canonical")
    p.add_argument("--cusps", required=True, type=int)
    p.set_defaults(handler=_cmd_relate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc = args.handler(args)
    except FolcalcError as err:
        error = {"code": err.code, "message": err.message, "location": err.location}
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return 2 if isinstance(err, ValidationError) else 1
    if args.format == "table":
        _render_table(args.command, doc)
    else:
        _render_json(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
