"""Command-line front end.

Subcommands: eval (invariants at a point), grid (sample a surface to
CSV), classify (predicate report over a grid), verify (built-in
identity suite), ode (profile integration / closed-form check), and
ingest (finite-difference pipeline on sampled heights).

Exit codes: 0 success, 1 a requested predicate or check failed,
2 usage or parse error, 3 evaluation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
import sys
from itertools import islice

from . import jet
from .classify import (DEFAULT_TOL, PREDICATES, classify_surface,
                       integrate_profile_ode, minimal_aminov_profile,
                       profile_row, report_to_json)
from .expr import ExprError, profile_eval
from .grid import (RESULT_HEADER, GridSpec, _csv_chunks, csv_text,
                   discrete_rows, grid_rows, ingest_samples, read_samples_csv,
                   write_text)
from .invariants import ConsistencyError, invariants_at
from .patch import FIELDS, make_patch, patch_from_json
from .selfcheck import run_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_EVAL = 3
EXIT_IO = 4

DEFAULT_NODES = 41

PREDICATE_ALIASES = {"wintgen": "wintgen_ideal", "pseudo": "pseudo_umbilical",
                     "k+kn": "k_plus_kn_zero"}

ODE_HEADER = ("u", "r", "rp", "residual")

# rows per encoder call in JSON output: enough to spread the encoder's
# per-call set-up (one call per row made a 201x201 grid about 0.5 s
# slower), few enough that the pieces it joins stay small
JSON_ROWS = 64


# one flag per expression field of patch.FIELDS, in help order
SURFACE_HELP = {
    "f": "height f(u, v)",
    "g": "height g(u, v)",
    "r": "radius profile r(u) for the rotational family",
    "f3": "translation term f3(u) of f = f3(u) + g3(v)",
    "g3": "translation term g3(v) of f = f3(u) + g3(v)",
    "f4": "translation term f4(u) of g = f4(u) + g4(v)",
    "g4": "translation term g4(v) of g = f4(u) + g4(v)",
    "p": "first gradient component p(u, v)",
    "q": "second gradient component q(u, v)",
}


def _add_surface_flags(p):
    grp = p.add_argument_group("surface (exactly one source)")
    for name, text in SURFACE_HELP.items():
        grp.add_argument(f"--{name}", metavar="EXPR", help=text)
    grp.add_argument("--patch", metavar="FILE",
                     help="JSON patch file produced by this package")


def _add_range_flags(grp, axis, what):
    grp.add_argument(f"--{axis}0", type=float, default=-1.0,
                     help=f"lower {what} (default: %(default)s)")
    grp.add_argument(f"--{axis}1", type=float, default=1.0,
                     help=f"upper {what} (default: %(default)s)")


def _add_grid_flags(p):
    grp = p.add_argument_group("grid")
    _add_range_flags(grp, "u", "u bound")
    _add_range_flags(grp, "v", "v bound")
    grp.add_argument("--nu", type=int, default=DEFAULT_NODES,
                     help="nodes along u (default: %(default)s)")
    grp.add_argument("--nv", type=int, default=DEFAULT_NODES,
                     help="nodes along v (default: %(default)s)")


def _add_output_flags(p, default_format):
    p.add_argument("--out", metavar="PATH",
                   help="write output here instead of stdout")
    p.add_argument("--format", choices=("json", "csv", "text"),
                   default=default_format,
                   help="output format (default: %(default)s)")


# a negative decimal, exponent form included; argparse's own pattern
# (-1, -0.5) would take -1e-05 for an option
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative number as a value, so
    `--u0 -1e-05` and `--range -1e-05 1` parse.  Its subparsers are of
    this class too (add_subparsers' default parser_class)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="monge4",
        description="Curvature invariants and classification predicates "
                    "for two-height-channel graph surfaces.")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="SUBCOMMAND")

    p = sub.add_parser("eval", help="invariants at a single point",
                       description="Evaluate K, K_N, H1, H2 and |H| at "
                                   "one parameter point.")
    _add_surface_flags(p)
    _add_range_flags(p.add_argument_group("rotational family only"), "u",
                     "end of the rotational profile's u-range")
    p.add_argument("-u", "--u", type=float, required=True, dest="u",
                   help="u coordinate of the point")
    p.add_argument("-v", "--v", type=float, required=True, dest="v",
                   help="v coordinate of the point")
    _add_output_flags(p, "json")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("grid", help="sample invariants over a grid",
                       description="Evaluate the pipeline on a uniform "
                                   "grid and write the result table.")
    _add_surface_flags(p)
    _add_grid_flags(p)
    _add_output_flags(p, "csv")
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("classify", help="test predicates over a grid",
                       description="Check classification predicates on a "
                                   "grid and print the report.")
    _add_surface_flags(p)
    _add_grid_flags(p)
    p.add_argument("--predicates", metavar="LIST",
                   help="comma-separated predicates to require "
                        "(default: all of %s)" % ",".join(PREDICATES))
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="verdict tolerance, finite and > 0 "
                        "(default: %(default)s)")
    _add_output_flags(p, "json")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("verify", help="run the built-in identity suite",
                       description="Run every built-in consistency check "
                                   "and print one status line per check.")
    _add_output_flags(p, "text")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("ode", help="integrate or check a radius profile",
                       description="With --a/--b/--sigma, tabulate the "
                                   "closed-form minimal profile and its "
                                   "equation residual; with --r0/--r0p, "
                                   "integrate the profile equation "
                                   "numerically (classic fourth-order "
                                   "Runge-Kutta).")
    p.add_argument("--a", type=float, help="closed-form scale parameter")
    p.add_argument("--b", type=float, default=0.0,
                   help="closed-form shift parameter (default: %(default)s)")
    p.add_argument("--sigma", type=int, choices=(1, -1), default=1,
                   help="closed-form sign parameter (default: %(default)s)")
    p.add_argument("--r0", type=float, help="initial radius r(lo)")
    p.add_argument("--r0p", type=float, help="initial slope r'(lo)")
    p.add_argument("--range", nargs=2, type=float, default=[-1.0, 1.0],
                   metavar=("LO", "HI"),
                   help="integration range (default: %(default)s)")
    p.add_argument("--steps", type=int, default=1000,
                   help="number of steps (default: %(default)s)")
    _add_output_flags(p, "csv")
    p.set_defaults(handler=cmd_ode)

    p = sub.add_parser("ingest", help="finite-difference pipeline on samples",
                       description="Read height samples from CSV (columns "
                                   "u,v,f,g or u,v,f), estimate jets by "
                                   "central differences and write the "
                                   "result table.")
    p.add_argument("input", metavar="FILE", help="sample CSV file")
    p.add_argument("--mode", choices=("monge4", "monge3"),
                   help="channel layout (inferred from the header "
                        "when omitted)")
    p.add_argument("--hu", type=float, help="expected u spacing (checked)")
    p.add_argument("--hv", type=float, help="expected v spacing (checked)")
    _add_output_flags(p, "csv")
    p.set_defaults(handler=cmd_ingest)

    return parser


def _build_patch(args):
    """Construct the surface from exactly one source of flags."""
    given = [family for family, names in FIELDS.items()
             if any(getattr(args, name) is not None for name in names)]
    if args.patch is not None:
        if given:
            raise ValueError("--patch cannot be combined with expression "
                             "flags")
        with open(args.patch) as fh:
            patch = patch_from_json(fh.read())
    else:
        if len(given) != 1:
            raise ValueError("give exactly one surface source: --f/--g, "
                             "--f3/--g3/--f4/--g4, --r, --p/--q or --patch")
        family = given[0]
        exprs = {name: getattr(args, name) for name in FIELDS[family]}
        if None in exprs.values():
            *head, last = [f"--{name}" for name in SURFACE_HELP
                           if name in exprs]
            names = f"{', '.join(head)} and {last}" if head else last
            raise ValueError(f"family {family} needs {names}")
        domain = (args.u0, args.u1, None, None) if family == "aminov" else None
        patch = make_patch(family, exprs, domain)
    if patch.gradient_warning:
        print(f"warning: {patch.gradient_warning}", file=sys.stderr)
    return patch


def _grid_spec(args) -> GridSpec:
    return GridSpec(args.u0, args.u1, args.v0, args.v1, args.nu, args.nv)


def _emit(text, out) -> None:
    """Write a string, or an iterable of strings, to stdout or to the file
    named by --out (see _replace_file)."""
    if out is None:
        write_text(sys.stdout, text)
    else:
        _replace_file(text, out)


def _note(message: str, out) -> None:
    # keep stdout clean when it carries the payload
    stream = sys.stdout if out is not None else sys.stderr
    print(message, file=stream)


def _replace_file(text, path) -> None:
    """Write a string, or an iterable of strings, to the file at path so
    that it changes only if all of it is written: a new file beside it
    takes the text and then replaces it, with the mode a plain
    open(path, "w") would leave.

    A path that exists but is not a regular file (a device, a pipe) is
    written in place, and so is one whose directory takes no new file.
    If open() fails there, the strings are still made first, so that an
    evaluation error is reported ahead of the I/O error.
    """
    target = os.path.realpath(path)
    try:
        old = os.stat(target)
    except OSError:
        old = None
    tmp = os.path.join(os.path.dirname(target),
                       f".{os.path.basename(target)}.{os.getpid()}.tmp")
    fd = None
    if old is None or stat.S_ISREG(old.st_mode):
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass
    if fd is None:
        try:
            fh = open(path, "w", newline="")
        except OSError:
            for _ in text:
                pass
            raise
        with fh:
            write_text(fh, text)
        return
    try:
        with open(fd, "w", newline="") as fh:
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
            write_text(fh, text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_chunks(header, rows):
    """A float table (last column may be a string flag) as the text of
    json.dumps(table, indent=2), JSON_ROWS row objects at a time: each
    batch is encoded as a list, without its opening and closing lines."""
    encode = json.JSONEncoder(indent=2).encode
    docs = ({name: cell if isinstance(cell, str) or math.isfinite(cell)
             else None for name, cell in zip(header, row)} for row in rows)
    sep = "[\n"
    while batch := list(islice(docs, JSON_ROWS)):
        yield sep + encode(batch)[2:-2]
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _json_rows(header, rows) -> str:
    """Render a float table (last column may be a string flag) as JSON."""
    return "".join(_json_chunks(header, rows))


def cmd_eval(args) -> int:
    patch = _build_patch(args)
    inv = invariants_at(patch, args.u, args.v)
    values = [("K", inv.K), ("KN", inv.KN), ("H1", inv.H1),
              ("H2", inv.H2), ("Hnorm", inv.Hnorm)]
    if args.format == "json":
        text = json.dumps(dict(values), indent=2) + "\n"
    elif args.format == "csv":
        text = csv_text([name for name, _ in values],
                        [[val for _, val in values]])
    else:
        text = "".join(f"{name} = {val!r}\n" for name, val in values)
    _emit(text, args.out)
    return EXIT_OK


class _Tally:
    """Counts the rows that pass through count(): all, flagged, and
    flagged as boundary."""

    def __init__(self):
        self.nodes = self.flagged = self.boundary = 0

    def count(self, rows):
        for row in rows:
            self.nodes += 1
            if row.flag:
                self.flagged += 1
                self.boundary += row.flag == "boundary"
            yield row


def _text_summary(spec, rows, tally):
    """The text report of a result table: its size, flags and the largest
    |K|, |KN| and |H| over unflagged rows, as builtin max would pick them."""
    best = None
    for r in rows:
        if not r.flag:
            values = (abs(r.K), abs(r.KN), r.Hnorm)
            best = values if best is None else tuple(
                x if x > top else top for x, top in zip(values, best))
    lines = [f"grid: {spec.u0} .. {spec.u1} x {spec.v0} .. {spec.v1}, "
             f"{spec.nu} x {spec.nv}",
             f"rows: {tally.nodes} (flagged: {tally.flagged})"]
    for k, label in enumerate(("max |K|", "max |KN|", "max |H|")):
        lines.append(f"{label}: {'n/a' if best is None else repr(best[k])}")
    yield "\n".join(lines) + "\n"


def _write_table(spec, rows, args) -> _Tally:
    """Stream result rows to --out or stdout in --format; their tally."""
    tally = _Tally()
    rows = tally.count(rows)
    if args.format == "csv":
        chunks = _csv_chunks(RESULT_HEADER, rows)
    elif args.format == "json":
        chunks = _json_chunks(RESULT_HEADER, rows)
    else:
        chunks = _text_summary(spec, rows, tally)
    _emit(chunks, args.out)
    return tally


def cmd_grid(args) -> int:
    patch = _build_patch(args)
    spec = _grid_spec(args)
    tally = _write_table(spec, grid_rows(patch, spec), args)
    _note(f"sampled {tally.nodes} nodes ({tally.flagged} flagged)", args.out)
    return EXIT_OK


def _parse_predicates(text):
    names = []
    for raw in text.split(","):
        name = raw.strip().replace("-", "_")
        name = PREDICATE_ALIASES.get(name, name)
        if name not in PREDICATES:
            raise ValueError(f"unknown predicate {raw.strip()!r}; choose "
                             f"from {', '.join(PREDICATES)}")
        if name not in names:
            names.append(name)
    return names


def cmd_classify(args) -> int:
    patch = _build_patch(args)
    spec = _grid_spec(args)
    requested = (_parse_predicates(args.predicates)
                 if args.predicates else list(PREDICATES))
    report = classify_surface(patch, spec, tol=args.tol)
    if args.format == "json":
        text = report_to_json(report) + "\n"
    elif args.format == "csv":
        text = csv_text(
            ("predicate", "verdict", "max_residual", "normalized_residual"),
            [(name, pr.verdict, pr.max_residual, pr.normalized_residual)
             for name, pr in report.predicates.items()])
    else:
        lines = []
        for name in PREDICATES:
            pr = report.predicates[name]
            lines.append(f"{name}: {pr.verdict} (normalized residual "
                         f"{pr.normalized_residual!r})")
        lines.append(f"first normal bundle rank: {report.first_normal_rank}")
        if report.chen_qualifier:
            lines.append(f"chen qualifier: {report.chen_qualifier}")
        lines.append(f"failed points: {report.failed_points}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    ok = all(report.predicates[name].verdict == "holds"
             for name in requested)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    results = run_all()
    if args.format == "json":
        doc = [{"name": r.name, "ok": r.ok, "detail": r.detail}
               for r in results]
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        text = csv_text(
            ("check", "status", "detail"),
            [(r.name, "pass" if r.ok else "fail", r.detail) for r in results])
    else:
        width = max(len(r.name) for r in results)
        lines = [f"{'PASS' if r.ok else 'FAIL'}  {r.name.ljust(width)}  "
                 f"{r.detail}" for r in results]
        failed = sum(1 for r in results if not r.ok)
        lines.append(f"{len(results) - failed} of {len(results)} checks "
                     f"passed")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all(r.ok for r in results) else EXIT_FAIL


def cmd_ode(args) -> int:
    closed = args.a is not None
    numeric = args.r0 is not None or args.r0p is not None
    if closed == numeric:
        raise ValueError("give either --a (closed form) or --r0 and --r0p "
                         "(numerical integration)")
    lo, hi = args.range
    if closed:
        profile = minimal_aminov_profile(args.a, args.b, args.sigma)
        if args.steps < 1:
            raise ValueError("need at least 1 step")
        rows = []
        for k in range(args.steps + 1):
            t = k / args.steps
            u = lo * (1.0 - t) + hi * t
            rows.append(profile_row(u, profile_eval(profile, u)))
    else:
        if args.r0 is None or args.r0p is None:
            raise ValueError("numerical integration needs both --r0 "
                             "and --r0p")
        rows = integrate_profile_ode(args.r0, args.r0p, (lo, hi), args.steps)
    worst = max(abs(row[3]) for row in rows)
    if args.format == "text":
        text = f"nodes: {len(rows)}\nmax |residual|: {worst!r}\n"
    elif args.format == "csv":
        text = csv_text(ODE_HEADER, rows)
    else:
        text = _json_rows(ODE_HEADER, rows)
    _emit(text, args.out)
    _note(f"{len(rows)} nodes, max |residual| = {worst!r}", args.out)
    return EXIT_OK


def cmd_ingest(args) -> int:
    dp = ingest_samples(read_samples_csv(args.input), hu=args.hu, hv=args.hv,
                        mode=args.mode, source=args.input)
    tally = _write_table(dp.spec(), discrete_rows(dp), args)
    _note(f"evaluated {dp.nu} x {dp.nv} samples from {args.input} "
          f"({tally.flagged - tally.boundary} flagged beyond the boundary "
          f"ring)", args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_OK if not err.code else int(err.code)
    try:
        return args.handler(args)
    except ExprError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (jet.DomainError, ConsistencyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EVAL
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
