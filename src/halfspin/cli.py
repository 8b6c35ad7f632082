"""Command line front end.

Commands: enumerate, act, weight, clifford, verify, export-matrix.
Exit status: 0 on success, 1 when a verification suite fails, 2 on usage
and I/O errors.  --json switches every command to machine-readable output;
rationals are serialized as strings "p/q" so nothing is rounded.  Every
--json document is written by _json_text, byte for byte json.dumps(doc, indent=2).

build_parser() lists only the command names and their help lines and is
built once per process; a call builds only its own command's parser, with its
options, and reads the terminal width once for it.  Help is formatted at the
terminal width of the call that asks.

Requests beyond the size caps below are refused with exit status 2 before
the work they bound is started; no option raises a cap.  An option that the
rest of the command line would have the command ignore is refused the same
way.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import shutil
import sys

from . import oracle
from . import spinrep
from . import clifford as cliff
from .clifford import MAX_CLIFFORD_GENERATORS, MAX_CLIFFORD_TERMS
from .diagram import format_diagram, format_fock_index, parse_decimal
from .quiver import RankContext, format_dim_vector, state_u, dim_vector
from .spinrep import (
    format_spin_vector,
    parse_spin_vector,
    format_basis_state,
    parse_basis_state,
)


class CliError(Exception):
    pass


# act, weight and clifford: O(n) per weight query, O(n + rows) per state an E/F step sweeps
MAX_RANK = 10000
# act: a word's tokens and a vector's written basis states; each E/F step sweeps every state it reaches,
# and at n = 10000 8 F steps on 4 new 100-row states took 0.015 s and 19 MB peak RSS in one process
MAX_ACT_TOKENS = 8
MAX_ACT_TERMS = 4
# enumerate and export-matrix: the whole basis of 2^n states
MAX_BASIS_RANK = 14
# export-matrix: a word's tokens, each tabulated over the whole basis and multiplied in
MAX_EXPORT_TOKENS = 8
# verify: exact matrices over the 2^n states, for every suite (--all at n = 14:
# 8.6 s and 194 MB peak RSS in one process on a shared 2-core Intel Xeon host,
# Python 3.11.7)
MAX_VERIFY_RANK = 14
# --dinfty: the capped family of shapes with at most this many boxes
# (verify --dinfty --max-boxes 17 --n 32: about 3 s, process start included)
MAX_BOXES = 17
# --dinfty: the ambient rank; the identity table has O(n^2) rows
MAX_AMBIENT_RANK = 32
# clifford: MAX_CLIFFORD_GENERATORS and MAX_CLIFFORD_TERMS, imported from clifford, bound
# an expression's generators and each of its products there, and --apply's terms times states here


def _check_cap(value, cap, name, what):
    if value > cap:
        raise CliError("%s %d exceeds %s = %d" % (what, value, name, cap))


def _command(name, required, properties):
    """The frame of one command's document: its const name, then the given fields."""
    return {
        "type": "object",
        "required": ["command"] + required,
        "properties": {"command": {"const": name}, **properties},
        "additionalProperties": False,
    }


_RATIONAL = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}
_RANK = {"type": "integer", "minimum": 2}
_STRING = {"type": "string"}
_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_COUNT = {"type": "integer", "minimum": 0}
_STATUSES = ["pass", "fail", "xfail", "xpass", "skip"]
_CHECK = {
    "type": "object",
    "required": ["identity", "status", "witness"],
    "properties": {
        "identity": _STRING,
        "status": {"enum": _STATUSES},
        "witness": {"type": ["string", "null"]},
    },
    "additionalProperties": False,
}
_REPORT = {
    "type": "object",
    "required": ["suite", "n", "status", "counts", "checks", "duration"],
    "properties": {
        "suite": _STRING,
        "n": _RANK,
        "status": {"enum": ["pass", "fail"]},
        "counts": {
            "type": "object",
            "required": _STATUSES,
            "properties": {k: _COUNT for k in _STATUSES},
            "additionalProperties": False,
        },
        "checks": {"type": "array", "items": _CHECK},
        "duration": {"type": "number", "minimum": 0},
        "max_boxes": _COUNT,
        "mode": {"enum": ["bounded", "truncated"]},
    },
    "additionalProperties": False,
}
_ROW = {
    "type": "object",
    "required": ["sign", "diagram", "v", "u", "weight", "fock_index"],
    "properties": {
        "sign": {"enum": ["plus", "minus"]},
        "diagram": _STRING,
        "v": _INTEGERS,
        "u": _INTEGERS,
        "weight": {"type": "array", "items": _RATIONAL},
        "fock_index": _STRING,
    },
    "additionalProperties": False,
}
_ENTRY = {
    "type": "array",
    "prefixItems": [{"type": "integer"}, {"type": "integer"}, _RATIONAL],
    "minItems": 3,
    "maxItems": 3,
}

SCHEMAS = {
    "enumerate": _command("enumerate", ["n", "mode", "rows"], {
        "n": _RANK,
        "mode": {"enum": ["bounded", "truncated"]},
        "max_boxes": _COUNT,
        "rows": {"type": "array", "items": _ROW},
    }),
    "act": _command("act", ["n", "word", "input", "result"], {
        "n": _RANK, "word": _STRING, "input": _STRING, "result": _STRING,
    }),
    "weight": _command("weight", ["n", "state", "eps", "u", "fock_index"], {
        "n": _RANK,
        "state": _STRING,
        "eps": {"type": "array", "items": _RATIONAL},
        "u": _INTEGERS,
        "fock_index": _STRING,
    }),
    "clifford": _command("clifford", ["n", "element"], {
        "n": _RANK, "element": _STRING, "applied_to": _STRING, "result": _STRING,
    }),
    "verify": _command("verify", ["ok", "reports"], {
        "ok": {"type": "boolean"},
        "reports": {"type": "array", "items": _REPORT},
    }),
    "export-matrix": _command("export-matrix", ["n", "operator", "basis", "rows", "cols", "entries"], {
        "n": _RANK,
        "operator": _STRING,
        "basis": {"type": "array", "items": _STRING},
        "rows": _COUNT,
        "cols": _COUNT,
        "entries": {"type": "array", "items": _ENTRY},
    }),
}


def _emit(text, out):
    # a reader that stopped early (`... | head`) leaves the command's own exit status standing
    try:
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")
    except BrokenPipeError:
        pass


_encode_string = json.encoder.encode_basestring_ascii


def _json_text(doc):
    """json.dumps(doc, indent=2), byte for byte, without json's pure-Python encoder;
    a tuple, another type json has no literal for or a dict key that is not a str raises TypeError."""
    return _json_value(doc, "\n")


def _json_value(x, newline):
    """x as json.dumps(x, indent=2) writes it at the indent that newline ends with;
    a list of str alone, or of int alone, is written by one str.join."""
    kind = type(x)
    if kind is str:
        return _encode_string(x)
    if kind is int:
        return repr(x)
    if x is None:
        return "null"
    if kind is bool or kind is float:
        return json.dumps(x)
    inner = newline + "  "
    if kind is dict:  # the encoder refuses a key that is not a str with a TypeError
        items, brackets = [_encode_string(k) + ": " + _json_value(v, inner) for k, v in x.items()], "{}"
    elif kind is list:
        kinds = set(map(type, x))
        encode = _encode_string if kinds == {str} else repr if kinds == {int} else None
        items, brackets = map(encode, x) if encode else [_json_value(v, inner) for v in x], "[]"
    else:
        raise TypeError(kind)
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1] if x else brackets


def _emit_doc(args, doc, text, out):
    """The command's document with --json, else its text (which may be None with --json)."""
    _emit(_json_text(doc) if args.json else text, out)


def _eps_strings(eps):
    # a basis-state weight is made of the two shared halves, told apart by identity
    plus, minus = spinrep.HALVES[1], spinrep.HALVES[-1]
    return ["1/2" if c is plus else "-1/2" if c is minus else str(c) for c in eps]


def _usage(parse, *args):
    """parse(*args), with a ValueError refused as a usage error."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _refuse_ignored(args):
    """Refuse an option that the rest of the command line would have the command ignore."""
    given = {key for key, value in vars(args).items() if value is not None and value is not False}
    if "max_boxes" in given and "dinfty" not in given:
        raise CliError("--max-boxes applies only with --dinfty")
    for option, other in (("json", "csv"), ("suite", "all"), ("suite", "dinfty"), ("all", "dinfty")):
        if option in given and other in given:
            raise CliError("--%s cannot be combined with --%s" % (option, other))


def _integer(text):
    """The integer that text writes in ASCII decimal digits (diagram.parse_decimal),
    after an optional "-" that the range checks then refuse; ValueError otherwise."""
    text = text.strip()
    return -parse_decimal(text[1:]) if text.startswith("-") else parse_decimal(text)


def _context(args, cap=MAX_RANK, name="MAX_RANK"):
    """The rank context of --n, refused when --n is absent, below 2 or above cap."""
    if args.n is None:
        raise CliError("--n is required")
    if args.n < 2:
        raise CliError("rank must be at least 2, got %d" % args.n)
    _check_cap(args.n, cap, name, "rank")
    return RankContext(args.n)


def _parse_rank_range(text, cap, name):
    """The ranks of "4" or "2..6"; the range is built only once it is within cap."""
    text = text.strip()
    lo, sep, hi = text.partition("..")
    try:
        lo = _integer(lo)
        hi = _integer(hi) if sep else lo
    except ValueError:
        raise CliError("cannot parse rank range %r" % text) from None
    if lo > hi:
        raise CliError("empty rank range %r: %d is above %d" % (text, lo, hi))
    if lo < 2:
        raise CliError("ranks must be at least 2, got %r" % text)
    _check_cap(hi, cap, name, "rank")
    return list(range(lo, hi + 1))


def _ambient_rank(max_boxes, n):
    """The ambient rank of a --dinfty run: n, or when None the smallest that holds
    every shape of at most max_boxes boxes; refused past a cap or below that rank."""
    if max_boxes < 0:
        raise CliError("--max-boxes must be non-negative")
    _check_cap(max_boxes, MAX_BOXES, "MAX_BOXES", "box cap")
    need = max(max_boxes + 1, 2)
    n = need if n is None else n
    _check_cap(n, MAX_AMBIENT_RANK, "MAX_AMBIENT_RANK", "rank")
    if n < need:
        raise CliError("rank %d too small for box cap %d (need at least %d)" % (n, max_boxes, need))
    return n


def cmd_enumerate(args, out):
    if args.dinfty:
        if args.max_boxes is None:
            raise CliError("--dinfty needs --max-boxes")
        ctx = RankContext(_ambient_rank(args.max_boxes, args.n))
        basis = oracle.truncated_spin_basis(ctx, args.max_boxes)
    else:
        ctx = _context(args, MAX_BASIS_RANK, "MAX_BASIS_RANK")
        basis = oracle.spin_basis(ctx)
    rows = []
    for state in basis.states:
        v = dim_vector(state, ctx)
        u = state_u(state, ctx)
        eps = spinrep.weight_eps(state, ctx)
        idx = cliff.phi_state(state, ctx)
        rows.append(
            {
                "sign": str(state[0]),
                "diagram": format_diagram(state[1]),
                "v": list(v),
                "u": list(u),
                "weight": _eps_strings(eps),
                "fock_index": format_fock_index(idx),
            }
        )
    doc = {"command": "enumerate", "n": ctx.n, "mode": "truncated" if args.dinfty else "bounded", "rows": rows}
    if args.dinfty:
        doc["max_boxes"] = args.max_boxes
    text = None
    if not args.json:
        table = [["sign", "diagram", "v", "u", "weight", "fock_index"]] + [
            [
                r["sign"],
                r["diagram"],
                format_dim_vector(r["v"]),
                format_dim_vector(r["u"]),
                format_dim_vector(r["weight"]),
                r["fock_index"],
            ]
            for r in rows
        ]
        if args.csv:
            buf = io.StringIO()
            csv.writer(buf).writerows(table)
            text = buf.getvalue().rstrip("\n")
        else:
            text = "\n".join("\t".join(row) for row in table)
    _emit_doc(args, doc, text, out)
    return 0


def cmd_act(args, out):
    ctx = _context(args)
    tokens = args.word.split()
    _check_cap(len(tokens), MAX_ACT_TOKENS, "MAX_ACT_TOKENS", "word length")
    _check_cap(args.vector.count("("), MAX_ACT_TERMS, "MAX_ACT_TERMS", "vector terms")  # one "(" per basis state
    vec = _usage(parse_spin_vector, args.vector, ctx)
    if not tokens:
        raise CliError("empty operator word")
    result = vec
    for token in reversed(tokens):
        name, k = _usage(oracle.parse_operator_token, token)
        if name in oracle.WEDGE_OPS:
            raise CliError("operator %r acts on the wedge side, not on shape vectors" % token)
        result = _usage(oracle.apply_operator, name, k, result, ctx)
    text = format_spin_vector(result)
    doc = {"command": "act", "n": ctx.n, "word": args.word, "input": format_spin_vector(vec), "result": text}
    _emit_doc(args, doc, text, out)
    return 0


def cmd_weight(args, out):
    ctx = _context(args)
    state = _usage(parse_basis_state, args.state, ctx)
    eps = _eps_strings(spinrep.weight_eps(state, ctx))
    u = state_u(state, ctx)
    idx = format_fock_index(cliff.phi_state(state, ctx))
    doc = {"command": "weight", "n": ctx.n, "state": format_basis_state(state), "eps": eps, "u": list(u), "fock_index": idx}
    text = None if args.json else "weight=%s\tu=%s\tfock_index=%s" % (format_dim_vector(eps), format_dim_vector(u), idx)
    _emit_doc(args, doc, text, out)
    return 0


def cmd_clifford(args, out):
    ctx = _context(args)
    element = _usage(cliff.parse_clifford_expression, args.expression, ctx)
    doc = {"command": "clifford", "n": ctx.n, "element": cliff.format_clifford_element(element)}
    text = doc["element"]
    if args.apply is not None:
        target = _usage(cliff.parse_fock_vector, args.apply, ctx)
        _check_cap(len(element.terms) * len(target.terms), MAX_CLIFFORD_TERMS, "MAX_CLIFFORD_TERMS", "action bound")
        doc["applied_to"] = cliff.format_fock_vector(target)
        doc["result"] = text = cliff.format_fock_vector(cliff.act(element, target, ctx))
    _emit_doc(args, doc, text, out)
    return 0


def cmd_verify(args, out):
    if args.dinfty:
        max_boxes = args.max_boxes if args.max_boxes is not None else 6
        n = 12
        if args.ranks is not None:
            ranks = _parse_rank_range(args.ranks, MAX_AMBIENT_RANK, "MAX_AMBIENT_RANK")
            if len(ranks) != 1:
                raise CliError("--dinfty takes a single ambient rank, got %r" % args.ranks)
            n = ranks[0]
        reports = [oracle.check_dinfty(max_boxes, _ambient_rank(max_boxes, n))]
    else:
        if args.ranks is None:
            raise CliError("--n is required (a rank or a range like 2..6)")
        ranks = _parse_rank_range(args.ranks, MAX_VERIFY_RANK, "MAX_VERIFY_RANK")
        names = list(oracle.SUITE_NAMES)
        if args.suite is not None:
            names = [s.strip() for chunk in args.suite for s in chunk.split(",") if s.strip()]
            if not names:
                raise CliError("--suite names no suite (choose from %s)" % ", ".join(oracle.SUITE_NAMES))
        reports = _usage(oracle.run_suites, names, ranks)
    ok = oracle.all_pass(reports)
    lines = []
    for r in reports:
        c = r["counts"]
        extras = ["%d %s" % (c[key], key) for key in ("xfail", "xpass", "skip") if c[key]]
        suffix = (", " + ", ".join(extras)) if extras else ""
        scope = "max_boxes=%d, ambient n=%d" % (r["max_boxes"], r["n"]) if r.get("mode") == "truncated" else "n=%d" % r["n"]
        lines.append(
            "%s %s: %s (%d identities%s) [%.3fs]"
            % (r["suite"], scope, r["status"], c["pass"] + c["fail"], suffix, r["duration"])
        )
        if r["status"] != "pass":
            lines += ["  %s: %s (%s)" % (e["status"], e["identity"], e["witness"])
                      for e in r["checks"] if e["status"] in ("fail", "xpass")]
    lines.append("overall: %s" % ("pass" if ok else "fail"))
    _emit_doc(args, {"command": "verify", "ok": ok, "reports": reports}, "\n".join(lines), out)
    return 0 if ok else 1


def cmd_export_matrix(args, out):
    ctx = _context(args, MAX_BASIS_RANK, "MAX_BASIS_RANK")
    tokens = args.operator.split()
    _check_cap(len(tokens), MAX_EXPORT_TOKENS, "MAX_EXPORT_TOKENS", "word length")
    if not tokens:
        raise CliError("empty operator word")
    fock_side = args.basis == "fock"
    basis = oracle.fock_basis(ctx) if fock_side else oracle.spin_basis(ctx)
    matrix = None
    for token in tokens:
        name, _ = _usage(oracle.parse_operator_token, token)
        if fock_side and name not in oracle.WEDGE_OPS + ("identity",):
            raise CliError("wedge-side export supports create_k / annihilate_k / identity, got %r" % token)
        if not fock_side and name in oracle.WEDGE_OPS:
            raise CliError("operator %r lives on the wedge side; use --basis fock" % token)
        step = _usage(oracle.operator_matrix, token, basis, ctx)
        matrix = step if matrix is None else matrix * step
    labels = [basis.label(s) for s in basis.states]
    triplets = sorted(matrix.entries.items())
    if args.json:
        doc = {
            "command": "export-matrix",
            "n": ctx.n,
            "operator": args.operator,
            "basis": labels,
            "rows": matrix.nrows,
            "cols": matrix.ncols,
            "entries": [[i, j, str(v)] for (i, j), v in triplets],
        }
        text = _json_text(doc)
    else:
        lines = [
            "# operator: %s" % args.operator,
            "# rank: n=%d  basis: %s  size: %dx%d"
            % (ctx.n, args.basis, matrix.nrows, matrix.ncols),
            "# basis order: %s" % ", ".join(labels),
            "# row col value",
        ]
        lines += ["%d %d %s" % (i, j, v) for (i, j), v in triplets]
        text = "\n".join(lines)
    if args.out_path:
        try:
            with open(args.out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise CliError("cannot write %s: %s" % (args.out_path, exc.strerror or exc)) from None
        _emit("wrote %d entries to %s" % (len(triplets), args.out_path), out)
    else:
        _emit(text, out)
    return 0


class _Command:
    """A command whose parser is built, and declare(parser) run, only when it is parsed.

    parse_known_args is the one method argparse calls on a chosen command.
    It reads the terminal width once, as each HelpFormatter would for itself,
    and fixes the parser's formatters to it: help and usage follow each call's COLUMNS.
    """

    def __init__(self, *, declare, **kwargs):
        self._declare = declare
        self._kwargs = kwargs

    def parse_known_args(self, args, namespace):
        width = shutil.get_terminal_size().columns - 2  # HelpFormatter's own default
        formatter = functools.partial(argparse.HelpFormatter, width=width)
        parser = argparse.ArgumentParser(formatter_class=formatter, **self._kwargs)
        self._declare(parser)
        return parser.parse_known_args(args, namespace)


_RANK_HELP = "rank, 2..%d (MAX_RANK)" % MAX_RANK


def _enumerate_options(p):
    p.add_argument(
        "--n",
        default=None,
        help="rank, 2..%d (MAX_BASIS_RANK); with --dinfty the ambient rank, at most %d (MAX_AMBIENT_RANK)"
        % (MAX_BASIS_RANK, MAX_AMBIENT_RANK),
    )
    p.add_argument("--dinfty", action="store_true", help="rank-free mode: cap total boxes instead")
    p.add_argument("--max-boxes", default=None, help="box cap for --dinfty, at most %d (MAX_BOXES)" % MAX_BOXES)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_enumerate)


def _act_options(p):
    p.add_argument("--n", default=None, help=_RANK_HELP)
    p.add_argument("--json", action="store_true")
    p.add_argument("word", help="e.g. \"F_2 F_4\" or \"kappa a_1\"; rightmost acts first; at most %d tokens "
                   "(MAX_ACT_TOKENS)" % MAX_ACT_TOKENS)
    p.add_argument("vector", help="e.g. \"(plus,-)\" or \"(plus,3,1) - 2 * (minus,2)\"; at most %d basis states "
                   "(MAX_ACT_TERMS)" % MAX_ACT_TERMS)
    p.set_defaults(func=cmd_act)


def _weight_options(p):
    p.add_argument("--n", default=None, help=_RANK_HELP)
    p.add_argument("--json", action="store_true")
    p.add_argument("state", help="e.g. \"(plus,3,1)\"")
    p.set_defaults(func=cmd_weight)


def _clifford_options(p):
    p.add_argument("--n", default=None, help=_RANK_HELP)
    p.add_argument("--apply", default=None, metavar="VEC", help="apply the element to a wedge vector, e.g. \"{1,3}\"")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "expression",
        help="e.g. \"a1*b1 + b1*a1\"; its generators at most %d (MAX_CLIFFORD_GENERATORS); each product, "
        "and --apply's terms times states, at most %d (MAX_CLIFFORD_TERMS)" % (MAX_CLIFFORD_GENERATORS, MAX_CLIFFORD_TERMS),
    )
    p.set_defaults(func=cmd_clifford)


def _verify_options(p):
    p.add_argument(
        "--n",
        dest="ranks",
        default=None,
        help="rank or range, e.g. 4 or 2..6, at most %d (MAX_VERIFY_RANK); with --dinfty one "
        "ambient rank (default 12), at most %d (MAX_AMBIENT_RANK)" % (MAX_VERIFY_RANK, MAX_AMBIENT_RANK),
    )
    p.add_argument("--suite", action="append", default=None, help="suite name(s), comma separated; repeatable")
    p.add_argument("--all", action="store_true", help="run every suite")
    p.add_argument("--dinfty", action="store_true", help="box-capped rank-free re-run")
    p.add_argument("--max-boxes", default=None, help="box cap for --dinfty (default 6), at most %d (MAX_BOXES)" % MAX_BOXES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)


def _export_matrix_options(p):
    p.add_argument("--n", default=None, help="rank, 2..%d (MAX_BASIS_RANK)" % MAX_BASIS_RANK)
    p.add_argument("--basis", choices=("spin", "fock"), default="spin")
    p.add_argument("--out", dest="out_path", default=None, help="write to a file instead of stdout")
    p.add_argument("--json", action="store_true")
    p.add_argument("operator", help="operator word, e.g. \"F_4\" or \"b_2 a_1\"; its tokens at most %d "
                   "(MAX_EXPORT_TOKENS)" % MAX_EXPORT_TOKENS)
    p.set_defaults(func=cmd_export_matrix)


@functools.cache
def build_parser():
    """The command line's parser, built once per process and shared by every call:
    each command's name and help line, and a _Command that builds the command's
    own parser when parsed."""
    parser = argparse.ArgumentParser(
        prog="halfspin",
        description="Exact combinatorial models of the half-spin modules of so(2n).",
        epilog="A request beyond a size cap (see each command's --help) exits with status 2.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command, prog=parser.prog)
    sub.add_parser("enumerate", help="list all basis states with their invariants", declare=_enumerate_options)
    sub.add_parser("act", help="apply an operator word to a shape vector", declare=_act_options)
    sub.add_parser("weight", help="weight data of one basis state", declare=_weight_options)
    sub.add_parser("clifford", help="normal-order an algebra expression", declare=_clifford_options)
    sub.add_parser("verify", help="run the exact verification suites", declare=_verify_options)
    sub.add_parser("export-matrix", help="export an operator matrix as sparse triplets", declare=_export_matrix_options)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)  # argv None: argparse reads sys.argv[1:]
    try:
        _refuse_ignored(args)
        for dest in ("n", "max_boxes"):  # verify's --n, a range, is read by _parse_rank_range
            text = getattr(args, dest, None)
            if text is not None:
                try:
                    setattr(args, dest, _integer(text))
                except ValueError:
                    raise CliError("--%s takes a decimal integer, got %r" % (dest.replace("_", "-"), text)) from None
        return args.func(args, out)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
