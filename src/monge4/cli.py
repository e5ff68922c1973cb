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
import re
import sys

from . import jet
from .classify import (DEFAULT_TOL, PREDICATES, ClassifyFold, exact_jets,
                       integrate_profile_ode, minimal_aminov_profile,
                       profile_row, report_to_json, require_tol)
from .expr import profile_eval
from .grid import (MODES, RESULT_HEADER, GridSpec, _row_pieces, _table_chunks,
                   _table_pieces, chunk_pieces, ingest_samples,
                   read_samples_csv, rows, sampled_jets, write_text)
from .invariants import ConsistencyError, invariants_at
from .patch import FIELDS, make_patch, patch_from_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_EVAL = 3
EXIT_IO = 4

DEFAULT_NODES = 41

PREDICATE_ALIASES = {"wintgen": "wintgen_ideal", "pseudo": "pseudo_umbilical",
                     "k+kn": "k_plus_kn_zero"}

ODE_HEADER = ("u", "r", "rp", "residual")


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


# "-" and a digit, "." or "(": a negative number such as -1e-05, or an
# expression such as -(2)^u, which argparse's own pattern takes for options;
# -inf, -infinity or -nan in any case, as float() reads them; or "-", a name
# and a character no name holds (-exp(u), -u*v), so no flag (-u) matches.
_NEGATIVE_NUMBER = re.compile(
    r"^-([\d.(]|(inf|infinity|nan)$|[a-z][a-z0-9_]*[^a-z0-9_])", re.IGNORECASE)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads each argument _NEGATIVE_NUMBER matches
    as a value, so `--u0 -1e-05` and `--g "-(2)^u"` parse.  Its subparsers
    are of this class too (add_subparsers' default parser_class)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def _get_option_tuples(self, option_string):
        """argparse's readings of an argument as flags, less a flag joined
        to no number where _NEGATIVE_NUMBER matches: -u*v is a value."""
        found = super()._get_option_tuples(option_string)
        if _NEGATIVE_NUMBER.match(option_string):
            found = [t for t in found if t[-1] is None or _is_number(t[-1])]
        return found


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
    p.add_argument("--mode", choices=MODES,
                   help="channel layout (inferred from the header "
                        "when omitted)")
    p.add_argument("--hu", type=float, help="expected u spacing (checked)")
    p.add_argument("--hv", type=float, help="expected v spacing (checked)")
    _add_output_flags(p, "csv")
    p.set_defaults(handler=cmd_ingest)

    return parser


def _flags(names):
    """The flags of some expression fields, in help order."""
    return [f"--{name}" for name in SURFACE_HELP if name in names]


def _build_patch(args):
    """Construct the surface from exactly one source of flags."""
    given = [family for family, names in FIELDS.items()
             if any(getattr(args, name) is not None for name in names)]
    if args.patch is not None:
        if given:
            raise ValueError("--patch cannot be combined with expression flags")
        with open(args.patch) as fh:
            patch = patch_from_json(fh.read())
    else:
        if len(given) != 1:
            sources = ", ".join("/".join(_flags(n)) for n in FIELDS.values())
            raise ValueError(f"give exactly one surface source: {sources} "
                             "or --patch")
        family = given[0]
        exprs = {name: getattr(args, name) for name in FIELDS[family]}
        if None in exprs.values():
            *head, last = _flags(exprs)
            names = f"{', '.join(head)} and {last}" if head else last
            raise ValueError(f"family {family} needs {names}")
        domain = (args.u0, args.u1, None, None) if family == "aminov" else None
        patch = make_patch(family, exprs, domain)
    if patch.gradient_warning:
        print(f"warning: {patch.gradient_warning}", file=sys.stderr)
    return patch


def _grid_spec(args) -> GridSpec:
    return GridSpec(args.u0, args.u1, args.v0, args.v1, args.nu, args.nv)


def _note(message: str, out) -> None:
    # keep stdout clean when it carries the payload
    stream = sys.stdout if out is not None else sys.stderr
    print(message, file=stream)


def cmd_eval(args) -> int:
    patch = _build_patch(args)
    u, v = args.u, args.v
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"-u and -v must be finite, got {u!r} and {v!r}")
    inv = invariants_at(patch, u, v)
    values = [("K", inv.K), ("KN", inv.KN), ("H1", inv.H1),
              ("H2", inv.H2), ("Hnorm", inv.Hnorm)]
    if args.format == "json":
        text = json.dumps(dict(values), indent=2) + "\n"
    elif args.format == "csv":
        text = _table_chunks("csv", [name for name, _ in values],
                             [[val for _, val in values]])
    else:
        text = "".join(f"{name} = {val!r}\n" for name, val in values)
    write_text(sys.stdout if args.out is None else args.out, text)
    return EXIT_OK


class _Tally:
    """Counts the rows that pass through count(): all, flagged, and
    flagged as boundary; and holds the largest |K|, |KN| and |H| of the
    rows passed to top()."""

    def __init__(self):
        self.nodes = self.flagged = self.boundary = 0
        self.best = None

    def count(self, rows):
        for row in rows:
            self.nodes += 1
            if row.flag:
                self.flagged += 1
                self.boundary += row.flag == "boundary"
            yield row

    def top(self, rows):
        """Take in the maxima of the unflagged rows, as builtin max would
        pick them."""
        for r in rows:
            if not r.flag:
                self._top((abs(r.K), abs(r.KN), r.Hnorm))

    def _top(self, values):
        best = self.best
        self.best = values if best is None else tuple(
            x if x > top else top for x, top in zip(values, best))

    def report(self) -> str:
        """The tally as text, for merge() in another process."""
        return " ".join(map(repr, (self.nodes, self.flagged, self.boundary,
                                   *(self.best or ()))))

    def merge(self, report: str) -> None:
        """Add the rows that another tally's report() counted.  Maxima of
        unflagged rows are finite, and never -0.0, so the merged ones are
        the ones a single tally of every row would hold."""
        nodes, flagged, boundary, *best = report.split()
        self.nodes += int(nodes)
        self.flagged += int(flagged)
        self.boundary += int(boundary)
        if best:
            self._top(tuple(map(float, best)))


def _text_summary(spec, tally) -> str:
    """The text report of a result table: its size, flags and maxima."""
    best = tally.best
    lines = [f"grid: {spec.u0} .. {spec.u1} x {spec.v0} .. {spec.v1}, "
             f"{spec.nu} x {spec.nv}",
             f"rows: {tally.nodes} (flagged: {tally.flagged})"]
    for k, label in enumerate(("max |K|", "max |KN|", "max |H|")):
        lines.append(f"{label}: {'n/a' if best is None else repr(best[k])}")
    return "\n".join(lines) + "\n"


def _write_table(spec, source, args) -> _Tally:
    """Stream the result rows of every node of spec to --out or stdout in
    --format; their tally.  source(start, stop) is the node source of nodes
    start to stop - 1.  The nodes go in chunks to one process per core
    (chunk_pieces), and the text is the same for any number of them."""
    tally = _Tally()

    def render(start, stop):
        counted = tally.count(rows(source(start, stop)))
        if args.format == "text":
            tally.top(counted)
            return ""
        return "".join(_row_pieces(args.format, RESULT_HEADER, counted))

    body = chunk_pieces(spec.nu * spec.nv, render, tally)

    def summary():
        yield from body
        yield _text_summary(spec, tally)

    pieces = (summary() if args.format == "text"
              else _table_pieces(args.format, RESULT_HEADER, body))
    try:
        write_text(sys.stdout if args.out is None else args.out, pieces)
    finally:
        body.close()  # ends the workers of a table cut short
    return tally


def cmd_grid(args) -> int:
    patch = _build_patch(args)
    spec = _grid_spec(args)
    tally = _write_table(spec, exact_jets(patch, spec), args)
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
    requested = (list(PREDICATES) if args.predicates is None
                 else _parse_predicates(args.predicates))
    require_tol(args.tol)
    # classify_surface's fold, over the chunks of nodes of every process
    fold = ClassifyFold(patch)
    source = exact_jets(patch, spec)

    def render(start, stop):
        fold.add(source(start, stop))
        return ""

    for _ in chunk_pieces(spec.nu * spec.nv, render, fold):
        pass
    report = fold.classification(spec, args.tol)
    if args.format == "json":
        text = report_to_json(report) + "\n"
    elif args.format == "csv":
        text = _table_chunks(
            "csv",
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
    write_text(sys.stdout if args.out is None else args.out, text)
    ok = all(report.predicates[name].verdict == "holds"
             for name in requested)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_verify(args) -> int:
    from .selfcheck import run_all  # only verify pays for loading the suite
    results = run_all()
    if args.format == "json":
        text = _table_chunks("json", ("name", "ok", "detail"),
                             [(r.name, r.ok, r.detail) for r in results])
    elif args.format == "csv":
        text = _table_chunks(
            "csv", ("check", "status", "detail"),
            [(r.name, "pass" if r.ok else "fail", r.detail) for r in results])
    else:
        width = max(len(r.name) for r in results)
        lines = [f"{'PASS' if r.ok else 'FAIL'}  {r.name.ljust(width)}  "
                 f"{r.detail}" for r in results]
        failed = sum(1 for r in results if not r.ok)
        lines.append(f"{len(results) - failed} of {len(results)} checks "
                     f"passed")
        text = "\n".join(lines) + "\n"
    write_text(sys.stdout if args.out is None else args.out, text)
    return EXIT_OK if all(r.ok for r in results) else EXIT_FAIL


def cmd_ode(args) -> int:
    closed = args.a is not None
    numeric = args.r0 is not None or args.r0p is not None
    if closed == numeric:
        raise ValueError("give either --a (closed form) or --r0 and --r0p "
                         "(numerical integration)")
    lo, hi = args.range
    if closed:
        # the closed form is tabulated here, so its range is checked here;
        # integrate_profile_ode checks its own
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"--range ends must be finite, got {lo!r} and "
                             f"{hi!r}")
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
        text = _table_chunks("csv", ODE_HEADER, rows)
    else:
        text = _table_chunks("json", ODE_HEADER, rows)
    write_text(sys.stdout if args.out is None else args.out, text)
    _note(f"{len(rows)} nodes, max |residual| = {worst!r}", args.out)
    return EXIT_OK


def cmd_ingest(args) -> int:
    dp = ingest_samples(read_samples_csv(args.input), hu=args.hu, hv=args.hv,
                        mode=args.mode, source=args.input)
    tally = _write_table(dp.spec(), sampled_jets(dp), args)
    _note(f"evaluated {len(dp.us)} x {len(dp.vs)} samples from {args.input} "
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
    except (jet.DomainError, ConsistencyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_EVAL
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except ValueError as err:  # ExprError too
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
