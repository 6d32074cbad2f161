"""Command line front end.

Subcommands: dim, decompose, bratteli, bijection, verify. Exit codes:
0 success, 1 verify found failures, 2 malformed flags or literals,
3 semantically invalid input (size mismatches, bad labels, bad paths),
4 an internal error (any other exception, reported in one line).
All normal output goes to stdout, diagnostics to stderr, and equal
invocations produce byte-identical output.

Each handler imports the modules it uses when it runs, so a process loads
only what its subcommand needs. The library entry points below resolve
through the centdim package on first use and are looked up on this module
at call time (see _lib), so a caller can rebind them.
"""

import argparse
import contextlib
import sys

_LIBRARY = (
    "block_dimension", "decompose", "build_diagram", "export", "path_to_pair", "pair_to_path"
)


def __getattr__(name):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import centdim

    value = getattr(centdim, name)
    globals()[name] = value
    return value


def _lib():
    """This module, whose attributes resolve the library entry points."""
    return sys.modules[__name__]


@contextlib.contextmanager
def _exact_output():
    """Lift the interpreter's cap on int-to-str digits while an exact answer
    is written; argv parsing keeps the cap, so an oversized literal is
    still refused."""
    if not hasattr(sys, "set_int_max_str_digits"):  # no cap before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class _LiteralError(Exception):
    """A flag value that could not be read at all (exit code 2)."""


def _usage_parse(fn, text, what):
    try:
        return fn(text)
    except ValueError as exc:
        raise _LiteralError(f"bad {what}: {exc}") from None


def _parse_label(group, text):
    from .young import parse_partition

    if group == "S":
        return _usage_parse(parse_partition, text, "label")
    from .branch import AltLabel, split_alt_sign

    body, sign = split_alt_sign(text)
    base = _usage_parse(parse_partition, body, "label")
    # canonicality and sign rules are semantic, not syntactic
    return AltLabel(base, sign)


def _parse_pair(text):
    group, _, rest = text.partition(":")
    if group not in ("S", "A") or not rest:
        raise _LiteralError(f"bad pair {text!r}: expected like S:4 or A:6")
    try:
        n = int(rest)
    except ValueError:
        raise _LiteralError(f"bad pair {text!r}: {rest!r} is not an integer") from None
    return group, n


def _cmd_dim(args):
    from .dims import GroupModuleContext, parse_level

    level = _usage_parse(parse_level, args.k, "level")
    label = _parse_label(args.group, args.label)
    ctx = GroupModuleContext(args.group, args.n, args.module, level)
    value = _lib().block_dimension(ctx, label)
    with _exact_output():
        print(value)
    return 0


def _cmd_decompose(args):
    from .branch import format_label
    from .dims import GroupModuleContext, parse_level

    level = _usage_parse(parse_level, args.k, "level")
    ctx = GroupModuleContext(args.group, args.n, args.module, level)
    found = _lib().decompose(ctx)
    with _exact_output():
        blocks = [(format_label(lab), str(d)) for lab, d in found]
    if args.format == "text":
        print("  ".join(f"{lab}:{d}" for lab, d in blocks))
    elif args.format == "json":
        import json

        doc = {
            "pair": f"{args.group}:{args.n}",
            "module": args.module,
            "level": str(level),
            "blocks": [
                {"label": lab, "multiplicity": d} for lab, d in blocks
            ],
        }
        print(json.dumps(doc, separators=(",", ":")))
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "multiplicity"])
        for lab, d in blocks:
            writer.writerow([lab, d])
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_bratteli(args):
    group, n = _parse_pair(args.pair)
    from .dims import parse_level

    levels = _usage_parse(parse_level, args.levels, "levels")
    lib = _lib()
    diagram = lib.build_diagram(group, n, args.module, levels)
    with _exact_output():
        sys.stdout.write(lib.export(diagram, args.format))
    return 0


def _as_shape_list(doc, key):
    value = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ValueError(f"input must carry {key!r} as a list of lists")
    # JSON integers only: int() would turn 3.5 into 3, true into 1, "3" into 3
    if not all(type(x) is int for row in value for x in row):
        raise ValueError(f"{key!r} entries must be integers")
    return tuple(tuple(row) for row in value)


def _cmd_bijection(args):
    import json

    text = args.input if args.input is not None else sys.stdin.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise _LiteralError(f"bad json input: {exc}") from None
    if args.direction == "to-pair":
        path = _as_shape_list(doc, "path")
        blocks, tableau = _lib().path_to_pair(path, args.n)
        out = {
            "setPartition": [list(b) for b in blocks],
            "tableau": [list(r) for r in tableau],
        }
    else:
        blocks = _as_shape_list(doc, "setPartition")
        tableau = _as_shape_list(doc, "tableau")
        path = _lib().pair_to_path(blocks, tableau, args.n)
        out = {"path": [list(s) for s in path]}
    print(json.dumps(out, separators=(",", ":")))
    return 0


def _cmd_verify(args):
    from . import verify

    results = verify.run(args.scope, args.n_max, args.k_max)
    failures = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{name}: {status} ({detail})")
    print(f"summary: {len(results)} suites, {failures} failures")
    return 1 if failures else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="centdim",
        description="Exact centralizer-algebra dimensions for tensor powers "
        "of the permutation and reflection modules of S_n and A_n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    block_flags = argparse.ArgumentParser(add_help=False)
    block_flags.add_argument("--group", choices=("S", "A"), required=True)
    block_flags.add_argument("--module", choices=("perm", "refl"), required=True)
    block_flags.add_argument("--n", type=int, required=True)
    block_flags.add_argument("--k", required=True, help="level: 3, 7/2, or 3.5")

    dim = sub.add_parser(
        "dim", parents=[block_flags], help="dimension of one irreducible block"
    )
    dim.add_argument("--lambda", dest="label", required=True, help="block label")
    dim.set_defaults(handler=_cmd_dim)

    dec = sub.add_parser(
        "decompose", parents=[block_flags], help="all nonzero blocks at a level"
    )
    dec.add_argument("--format", choices=("text", "json", "csv"), default="text")
    dec.set_defaults(handler=_cmd_decompose)

    brat = sub.add_parser("bratteli", help="build and render a tower diagram")
    brat.add_argument("--pair", required=True, help="group and size, like S:4")
    brat.add_argument("--module", choices=("perm", "refl"), required=True)
    brat.add_argument("--levels", required=True, help="top level: 4 or 7/2")
    brat.add_argument("--format", choices=("text", "json", "dot"), default="text")
    brat.set_defaults(handler=_cmd_bratteli)

    bij = sub.add_parser("bijection", help="walks versus set-partition pairs")
    bij.add_argument("--n", type=int, required=True)
    bij.add_argument("--direction", choices=("to-pair", "to-path"), required=True)
    bij.add_argument(
        "--input", help="json document; read from stdin when omitted"
    )
    bij.set_defaults(handler=_cmd_bijection)

    ver = sub.add_parser("verify", help="run the built-in check suites")
    ver.add_argument("--scope", choices=("all", "golden", "oracle"), default="all")
    ver.add_argument("--n-max", type=int, default=6)
    ver.add_argument("--k-max", type=int, default=4)
    ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except _LiteralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:  # OverflowError: an over-cap level literal
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # SystemExit and KeyboardInterrupt pass through
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


def entry():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
