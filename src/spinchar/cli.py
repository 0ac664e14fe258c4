"""Batch command line: compute Spin data, run verification suites, sweep.

Exit codes: 0 success, 1 a failed check or self-check (ConsistencyError),
2 usage error or an input that is no module, 3 budget refusal. All output
is deterministic at a fixed configuration, except the wall-clock
``seconds`` of each verify record; flags have SPINCHAR_* equivalents.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .errors import BudgetExceeded, ConsistencyError, SpinCharError
from .charring import DEFAULT_TERM_BUDGET, freudenthal_weights
from .gradings import (
    casimir_check,
    named_grading,
    spin_g1,
    verify_tau_identity,
)
from .rootsys import build_root_system
from .spinmod import (
    classify_coprimary,
    extreme_weights,
    is_coprimary,
    orthogonality_type,
    spin_scalar,
)
from .weyl import DEFAULT_WEYL_BUDGET

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _at_least(low, name):
    """An argparse type, named in its errors: an int no smaller than low."""
    def count(text):
        value = int(text)
        if value < low:
            raise ValueError(text)
        return value
    count.__name__ = name
    return count


_COUNT, _POSITIVE = _at_least(0, "non-negative int"), _at_least(1, "positive int")


class _BadEnv:
    """The default of an option whose SPINCHAR_* value failed its check."""

    def __init__(self, message):
        self.message = message


# the options that take a default from the environment, by dest, and the
# SPINCHAR_* variable each reads
_ENV = {dest: "SPINCHAR_" + dest.upper() for dest in (
    "weyl_budget", "term_budget", "format", "jobs", "rank_bound", "height_bound")}


def _env(action):
    """Give an option the default its SPINCHAR_* variable sets, checked
    with the option's own type and choices (argparse checks neither on a
    default). A bad value becomes a ``_BadEnv`` default, a usage error
    only when the parsed command leaves that option to it."""
    name = _ENV[action.dest]
    value = os.environ.get(name)
    if value is not None:
        try:
            checked = (action.type or str)(value)
            problem = (None if action.choices is None or checked in action.choices
                       else f"is not one of {', '.join(action.choices)}")
        except ValueError:
            problem = f"is not a valid {action.type.__name__}"
        action.default = checked if problem is None else _BadEnv(f"{name}={value!r} {problem}")
    return action


_PARSERS = {}


def _parser():
    """The argument parser, built once per distinct value of the variables
    in ``_ENV`` (its defaults read them)."""
    env = tuple(map(os.environ.get, _ENV.values()))
    if env not in _PARSERS:
        _PARSERS[env] = _build_parser()
    return _PARSERS[env]


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    _env(common.add_argument("--weyl-budget", type=_COUNT, default=DEFAULT_WEYL_BUDGET,
                             help="most points to walk: |W|, |W|/|W0| for a coset"
                                  " section, |W0| for g0; read off the types"))
    _env(common.add_argument("--term-budget", type=_COUNT, default=DEFAULT_TERM_BUDGET,
                             help="largest character support to hold, and the"
                                  " most states a pruned Spin0 product may hold"))
    _env(common.add_argument("--format", choices=["json", "markdown", "both"],
                             default="markdown"))
    p = argparse.ArgumentParser(
        prog="spinchar",
        description="Exact Spin decompositions of orthogonal modules")
    sub = p.add_subparsers(dest="command", required=True)

    spin = sub.add_parser("spin", parents=[common],
                          help="orthogonality, Spin0 and extreme data")
    spin.add_argument("--type", required=True, help='descriptor, e.g. "B2", "A1xA1"')
    spin.add_argument("--rank", type=int, default=None,
                      help="rank when --type is a bare family letter")
    spin.add_argument("--weight", action="append", required=True,
                      help='fundamental-weight coefficients, e.g. "1,0"')

    ver = sub.add_parser("verify", parents=[common],
                         help="run a named verification suite")
    ver.add_argument("--suite", default="all",
                     help="a suite name from spinchar.verify.SUITES, or all")
    _env(ver.add_argument("--jobs", type=_POSITIVE, default=1,
                          help="parallel workers for suite fan-out"))

    cls = sub.add_parser("classify", parents=[common],
                         help="sweep for co-primary modules")
    _env(cls.add_argument("--rank-bound", type=_COUNT, default=3))
    _env(cls.add_argument("--height-bound", type=_COUNT, default=6))

    show = sub.add_parser("show", parents=[common],
                          help="dump root-system or grading data")
    show.add_argument("--type", default=None, help="root-system descriptor")
    show.add_argument("--grading", default=None,
                      help='<type>/alpha<k> (any rank) or a catalog name,'
                           ' e.g. "E6/alpha2", "F4/B4", "E6/C4"')
    return p


# ---------------------------------------------------------------------------
# spin command


def _parse_weight(rs, text):
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != rs.rank:
        raise SpinCharError(
            f"weight {text!r} has {len(parts)} coefficients, rank is {rs.rank}")
    try:
        coeffs = [Fraction(s) for s in parts]
    except (ValueError, ZeroDivisionError):
        raise SpinCharError(f"weight {text!r} is not a list of rational numbers") from None
    return rs.weight(*coeffs)


def cmd_spin(args):
    rs = build_root_system(args.type, args.rank)
    reports = []
    for text in args.weight:
        lam = _parse_weight(rs, text)
        kind = orthogonality_type(rs, lam)
        report = {
            "type": rs.descriptor(),
            "weight": [str(c) for c in rs.dynkin_labels(lam)],
            "orthogonality": kind,
        }
        if kind == "orthogonal":
            ws = freudenthal_weights(rs, lam)
            flag, dec = is_coprimary(ws, args.weyl_budget, args.term_budget)
            report["spin_scalar"] = spin_scalar(ws)
            report["spin0_decomposition"] = dec.to_json()
            report["coprimary"] = flag
            report["extreme_weights"] = [
                w.coord_strings() for w in extreme_weights(ws, dec)]
        reports.append(report)
    _emit(args, {"spin": reports}, _spin_markdown)
    return EXIT_OK


def _spin_markdown(payload):
    lines = ["| type | weight | orthogonality | Spin0 | co-primary |",
             "|---|---|---|---|---|"]
    for r in payload["spin"]:
        if r["orthogonality"] == "orthogonal":
            parts = " + ".join(
                f"{s['multiplicity']} V_({','.join(s['fw'])})"
                for s in r["spin0_decomposition"])
            cop = "yes" if r["coprimary"] else "no"
        else:
            parts, cop = "-", "-"
        lines.append(f"| {r['type']} | ({','.join(r['weight'])}) |"
                     f" {r['orthogonality']} | {parts} | {cop} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verify command


def _run_one_suite(name, weyl_budget, term_budget):
    from . import verify
    return verify.SUITES[name](weyl_budget, term_budget)


def cmd_verify(args):
    # the suites and the pool are imported here, not at the top, so that a
    # spin, classify or show process never loads them
    from . import verify
    if args.suite != "all" and args.suite not in verify.SUITES:
        raise SpinCharError(f"unknown suite {args.suite!r}; choose from"
                            f" {', '.join(sorted(verify.SUITES) + ['all'])}")
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    records = []
    if args.jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_one_suite, n, args.weyl_budget,
                                   args.term_budget) for n in names]
            for f in futures:
                records.extend(f.result())
    else:
        for n in names:
            records.extend(_run_one_suite(n, args.weyl_budget, args.term_budget))
    records.sort(key=lambda r: r["id"])
    payload = {"suite": args.suite, "checks": records}
    # a table is built only for markdown output, from the suite's memo
    table = verify.TABLES.get(args.suite)
    _emit(args, payload, lambda p: _verify_markdown(
        p, table and table(args.weyl_budget, args.term_budget)))
    failed = [r for r in records if r["status"] == "fail"]
    return EXIT_FAIL if failed else EXIT_OK


def _verify_markdown(payload, extra=None):
    lines = []
    for r in payload["checks"]:
        lines.append(f"{r['status'].upper():5s} {r['id']}"
                     + (f" :: {r['detail']}" if r["detail"] else ""))
    counts = {}
    for r in payload["checks"]:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    lines.append("summary: " + ", ".join(
        f"{counts.get(s, 0)} {s}" for s in ("pass", "fail", "skip")))
    if extra:
        lines.append("")
        lines.append(extra)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# classify command


def cmd_classify(args):
    records = classify_coprimary(args.rank_bound, args.height_bound,
                                 args.weyl_budget, args.term_budget)
    payload = {"rank_bound": args.rank_bound, "height_bound": args.height_bound,
               "candidates": records}
    _emit(args, payload, _classify_markdown)
    return EXIT_OK


def _classify_markdown(payload):
    lines = [f"co-primary sweep: rank <= {payload['rank_bound']},"
             f" height <= {payload['height_bound']}",
             "| type | weight | co-primary | decided by |", "|---|---|---|---|"]
    for r in payload["candidates"]:
        if r["coprimary"]:
            mark = "yes"
        elif r["coprimary"] is None:
            mark = "skipped"
        else:
            mark = ""
        if r["coprimary"] or r["filter"] in ("spin0-reducible", "budget-skipped"):
            lines.append(f"| {r['type']} | ({','.join(r['weight'])}) |"
                         f" {mark} | {r['filter']} |")
    found = sum(1 for r in payload["candidates"] if r["coprimary"])
    lines.append(f"\n{found} co-primary modules among"
                 f" {len(payload['candidates'])} candidates")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# show command


def cmd_show(args):
    if args.type is None and args.grading is None:
        raise SpinCharError("show needs --type or --grading")
    payload = {}
    if args.type:
        payload["root_system"] = build_root_system(args.type).to_json()
    if args.grading:
        grading = named_grading(args.grading)
        sp = spin_g1(grading, args.weyl_budget, args.term_budget)
        d1p = [w for w, _ in grading.delta1.canonical_half()]
        identity_ok = verify_tau_identity(
            grading.ambient, grading.sub, d1p, args.weyl_budget,
            args.term_budget, rho=grading.rho_effective)
        summands = [s.to_json(grading) for s in sp.summands]
        payload["grading"] = {
            "label": grading.label,
            "kind": grading.kind,
            "g0": grading.g0.descriptor(),
            "summands": summands,
            "multiplicity_free": sp.is_multiplicity_free(),
            "identity_ok": identity_ok,
            "casimir_value": str(casimir_check(grading, sp)),
            "coset_section": [s["w_action"] for s in summands],
        }
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _json(value, indent="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte. Any
    ``indent`` sends ``json`` down its pure-Python encoder, so containers
    are laid out here: strings go through the C string encoder, a list of
    strings is one join, an int (not a bool) is ``int.__repr__``, as
    ``json`` writes it, and other scalars are ``json.dumps``'s."""
    if isinstance(value, str):
        return _string(value)
    if type(value) is int:
        return int.__repr__(value)
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = indent + "  "
    if isinstance(value, dict):
        parts = (_string(k) + ": " + _json(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    parts = (map(_string, value) if all(isinstance(x, str) for x in value)
             else (_json(x, inner) for x in value))
    return "[" + inner + ("," + inner).join(parts) + indent + "]"


def _emit(args, payload, markdown_fn=None):
    """Print the payload in the format asked; without a markdown form, as JSON."""
    try:
        if args.format in ("json", "both") or markdown_fn is None:
            print(_json(payload))
        if markdown_fn is not None and args.format in ("markdown", "both"):
            print(markdown_fn(payload))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; send what is left, and the
        # interpreter's flush at exit, to devnull so neither raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
        for value in vars(args).values():
            if isinstance(value, _BadEnv):
                raise SpinCharError(value.message)
        return {"spin": cmd_spin, "verify": cmd_verify, "classify": cmd_classify,
                "show": cmd_show}[args.command](args)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except SpinCharError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
