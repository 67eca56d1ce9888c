"""Command-line front end.

Subcommands: gens, check, scan, table, sieve, heat-cycle, search.  Exit
codes: 0 command completed (individual verdicts may be "fails"), 1 usage or
parse error, 2 insufficient precision, 3 cache I/O error, 4 `table` found a
row that differs from the shipped expected table (its report is still
written to stdout).

Exit path: `entry()`, behind `python -m siegelcong.cli` and the `siegelcong`
console script, calls `gc.freeze()` before `main()`, so that main's garbage
collections skip the objects that importing numpy and this package left
tracked, and again once `main()` has returned and its output is written, so
that finalization's collections skip everything; then `sys.exit`.  The
module-graph cycles are left for the OS to reclaim.  `atexit` handlers and
the stdio flush still run.  The contract is unchanged: nothing after `main()`
relies on a cyclic-GC finalizer, and every file a command opens is closed by
`with` before `main()` returns (as `DiskCache.store` does).  `main()` itself
never freezes, so library callers and tests see the usual collector.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
from importlib import resources

import numpy as np

from . import cache, jacobi, siegel      # lazy modules: read their names at call time
from . import expr as exprmod
from .errors import (CacheIOError, InvalidArgumentError, PrecisionError,
                     SiegelCongError)
from .qexp import convolve_trunc, criterion_weight, level1_series, require_memory
from .ring import FpRing, is_prime, ring_from_tag

TABLE_MISMATCH = 4

TABLE_ROWS = [
    ("chi12", [5, 11]),
    ("E4*chi12", [5]),
    ("E4*chi12 - E6*chi10", [7]),
    ("E6*chi12", [5]),
    ("E4^2*chi10 + 7*E6*chi12", [17]),
    ("E4^2*chi12", [5]),
    ("chi10^2 + 2*E4^2*chi12 - 2*E4*E6*chi10", [19]),
]


class UsageError(InvalidArgumentError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _prec(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def build_parser():
    top = _ArgumentParser(prog="siegelcong",
                          description="Ramanujan-type congruences for degree-2 "
                                      "Siegel modular forms and Jacobi forms")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, ring=True, prec=True, csv=False):
        if ring:
            p.add_argument("--ring", default=None, help="coefficient ring: int or fp:<p>")
        if prec:
            p.add_argument("--prec", type=_prec, default=None,
                           help="override the auto-derived precision (at least 1)")
        p.add_argument("--out", choices=("json", "csv") if csv else ("json",), default="json")
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $CONGRUENCE_CACHE_DIR or .cache)")
        p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("gens", help="build (and cache) the generator expansions")
    common(p)
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("check", help="decide one congruence and emit a certificate")
    p.add_argument("expr")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", help="certificates for every residue b mod p")
    p.add_argument("expr")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--skip-zero", action="store_true",
                   help="skip b = 0 (its Sturm bound is the largest)")
    common(p, csv=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table", help="regenerate the standard table and diff "
                                     "against the shipped expected values")
    p.add_argument("--max-prime", type=int, default=None,
                   help="only run rows with p up to this bound")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sieve", help="project onto one Legendre class of det")
    p.add_argument("expr")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--s", required=True, choices=("0", "+1", "-1"))
    p.add_argument("--verify-against", default=None, metavar="EXPR2",
                   help="check the sieve equals EXPR2 mod p on the Sturm bound")
    common(p)
    p.set_defaults(func=cmd_sieve)

    p = sub.add_parser("heat-cycle", help="filtration walk of a Jacobi form's heat cycle")
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--form", required=True,
                   help="'*'-separated product of E4_1, E6_1, phi10_1, phi12_1, "
                        "E4, E6, Delta, each with an optional ^<exp>")
    common(p, ring=False)
    p.set_defaults(func=cmd_heat_cycle)

    p = sub.add_parser("search", help="search all cusp forms for congruences")
    p.add_argument("--max-weight", type=int, default=20)
    p.add_argument("--max-prime", type=int, default=43)
    p.add_argument("--quiet", action="store_true")
    common(p, ring=False, prec=False, csv=True)
    p.set_defaults(func=cmd_search)
    return top


def _cache(args):
    return None if args.no_cache else cache.DiskCache(args.cache_dir or None)


def _context(args, prec, ring, bound=None):
    """The generator context over ring at box prec (or --prec) for a trace bound."""
    return siegel.GeneratorContext(ring, args.prec or prec, _cache(args), bound)


def _eval_mod_p(args, text, p, b=0):
    """Evaluate an expression over fp:p (or reduce an exact evaluation).

    b picks the certificate whose Sturm bound the default box must cover;
    b = 0 gives the largest one.  The congruence criteria assume F != 0 mod
    p, so a form that is zero on the Sturm bound of its own weight is
    refused.
    """
    e = exprmod.parse(text)
    ring = ring_from_tag(args.ring or f"fp:{p}")
    if isinstance(ring, FpRing) and ring.p != p:
        raise InvalidArgumentError(f"ring {ring.tag} does not match p = {p}")
    bound = criterion_weight(e.weight, p, b) // 3
    form = exprmod.evaluate(e, _context(args, bound // 2, ring, bound)).reduce_mod(p)
    if siegel.sturm_zero(form, e.weight).is_zero:
        raise InvalidArgumentError(f"{e.text} is zero mod {p} on the Sturm bound of weight "
                                   f"{e.weight}; the congruence criteria assume F != 0 mod p")
    return e, form


def _emit(args, doc, csv_rows=None, csv_header=None):
    if args.out == "csv":
        import csv                  # on demand: only scan and search offer --out csv
        buf = io.StringIO()
        w = csv.writer(buf)
        if csv_header:
            w.writerow(csv_header)
        w.writerows(csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=False)
        sys.stdout.write("\n")


def cmd_gens(args):
    ctx = _context(args, 4, ring_from_tag(args.ring or "int"))
    doc = {}
    for name in exprmod.GENERATOR_WEIGHTS:
        form = ctx.generator(name)
        doc[name] = {"weight": form.weight, "prec": form.prec,
                     "nonzero": int(np.count_nonzero(form.coeffs)), "ring": form.ring.tag}
    _emit(args, doc)
    return 0


def cmd_check(args):
    p = args.p
    _check_prime(p)
    e, form = _eval_mod_p(args, args.expr, p, b=args.b)
    cert = siegel.siegel_congruence(form, p, args.b, label=e.text)
    _emit(args, cert.to_json())
    return 0


def cmd_scan(args):
    p = args.p
    _check_prime(p)
    e, form = _eval_mod_p(args, args.expr, p, b=1 if args.skip_zero else 0)
    certs = siegel.congruence_scan(form, p, label=e.text, include_zero=not args.skip_zero)
    doc = {str(b): c.to_json() for b, c in sorted(certs.items())}
    rows = [(b, c.verdict, "" if not c.witness else " ".join(map(str, c.witness)))
            for b, c in sorted(certs.items())]
    _emit(args, doc, csv_rows=rows, csv_header=("b", "verdict", "witness"))
    return 0


def _expected_table():
    with resources.files("siegelcong.data").joinpath("table_expected.json").open() as fh:
        return json.load(fh)


def cmd_table(args):
    expected = {(row["form"], c["p"]): c["holds"]
                for row in _expected_table()["rows"] for c in row["congruences"]}
    report = []
    ok = True
    for text, primes in TABLE_ROWS:
        for p in primes:
            if args.max_prime is not None and p > args.max_prime:
                continue
            _, form = _eval_mod_p(args, text, p, b=1)
            certs = siegel.congruence_scan(form, p, label=text, include_zero=False)
            holds = sorted(b for b, c in certs.items() if c.holds)
            want = expected[(text, p)]
            status = "MATCH" if holds == want else "MISMATCH"
            ok = ok and status == "MATCH"
            report.append({"form": text, "p": p, "holds": holds,
                           "expected": want, "status": status})
            print(f"{status}: {text}  (p = {p})  holds at {holds}", file=sys.stderr)
    _emit(args, {"rows": report, "all_match": ok})
    return 0 if ok else TABLE_MISMATCH


def cmd_sieve(args):
    p = args.p
    _check_prime(p)
    s = {"0": 0, "+1": 1, "-1": -1}[args.s]
    e = exprmod.parse(args.expr)
    k_after = criterion_weight(e.weight, p, 0)
    ring = ring_from_tag(args.ring or f"fp:{p}")
    ctx = _context(args, siegel.congruence_required_prec(e.weight, p, 0), ring)
    part = siegel.sieve(exprmod.evaluate(e, ctx), p, s)
    if args.verify_against:
        target = exprmod.parse(args.verify_against)
        if target.weight != k_after:
            raise InvalidArgumentError(f"verification target has weight {target.weight}, "
                                       f"the sieve lives in weight {k_after}")
        rep = siegel.sturm_zero((part - exprmod.evaluate(target, ctx)).reduce_mod(p), k_after)
        _emit(args, {"form": e.text, "p": p, "s": s, "verify_against": target.text,
                     "weight": k_after, "bound": rep.bound, "match": rep.is_zero})
        return 0
    _emit(args, dict(part.to_json(), sieve_class=s, base_form=e.text))
    return 0


_JACOBI_ATOMS = {"E4_1": ("jac", 4), "E6_1": ("jac", 6),
                 "phi10_1": ("jac", 10), "phi12_1": ("jac", 12),
                 "E4": ("ell", 4), "E6": ("ell", 6), "Delta": ("ell", 12)}


def _form_factors(text):
    """The (atom, exponent) pairs of a --form product, in order.

    Grammar: factor ('*' factor)*, factor := atom ('^' uint)?, over the
    tokens of the expression language (expr.tokenize).  Exponents are not
    expanded, so a weight check on their sums comes before any work.
    """
    toks = iter(exprmod.tokenize(text))
    out = []
    while True:
        _, atom, pos = next(toks)
        if atom not in _JACOBI_ATOMS:
            raise exprmod.ParseError(f"expected a Jacobi factor ({', '.join(_JACOBI_ATOMS)})", pos)
        kind, tok, pos = next(toks)
        exp = 1
        if tok == "^":
            kind, exp, pos = next(toks)
            if kind != "num":
                raise exprmod.ParseError("expected an unsigned exponent after '^'", pos)
            kind, tok, pos = next(toks)
        out.append((atom, exp))
        if kind == "end":
            return out
        if tok != "*":
            raise exprmod.ParseError("expected '*' between factors", pos)


def build_named_jacobi(name, prec, ring):
    """Build the Jacobi form named by a --form product (see _form_factors)."""
    jac = ell = None
    ell_weight = 0
    for atom, exp in _form_factors(name):
        kind, k = _JACOBI_ATOMS[atom]
        for _ in range(exp):
            if kind == "jac":
                built = (jacobi.jacobi_eisenstein if k in (4, 6) else jacobi.jacobi_cusp)(
                    k, prec, ring)
                jac = built if jac is None else jacobi.jac_mul(jac, built)
            else:
                built = level1_series(prec, ring)[{4: 1, 6: 2, 12: 3}[k]]    # E4, E6, Delta
                ell = built if ell is None else convolve_trunc(ring, ell, built, prec + 1)
                ell_weight += k
    if jac is None:
        raise InvalidArgumentError("form must contain at least one index-1 factor")
    return jac if ell is None else jacobi.qseries_times_jacobi(ell, ell_weight, jac)


def cmd_heat_cycle(args):
    p = args.p
    _check_prime(p)
    factors = [(_JACOBI_ATOMS[atom], exp) for atom, exp in _form_factors(args.form)]
    k = sum(w * exp for (_, w), exp in factors)
    m = sum(exp for (kind, _), exp in factors if kind == "jac")
    if (k, m) != (args.weight, args.index):
        raise InvalidArgumentError(f"form {args.form!r} has weight {k}, index {m}; "
                                   f"flags said {args.weight}, {args.index}")
    prec = args.prec or jacobi.heat_cycle_required_prec(k, m, p)
    form, coords = jacobi.heat_cycle_bytes(k, m, p, prec)
    require_memory(f"heat cycle to q^{prec}", form + coords,
                   f" ({form / 2 ** 30:.3g} GiB per iterate, {coords / 2 ** 30:.3g} GiB of "
                   f"level-1 coordinate matrices)")
    rep = jacobi.heat_cycle(build_named_jacobi(args.form, prec, ring_from_tag(f"fp:{p}")))
    _emit(args, dict(rep.to_json(), form=args.form))
    return 0


def cmd_search(args):
    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    found = siegel.search_congruences(args.max_weight, args.max_prime, cache=_cache(args),
                                      progress=progress)
    hits = [c for c in found if c.get("status") == "congruence"]
    doc = {"max_weight": args.max_weight, "max_prime": args.max_prime,
           "congruences": hits, "cells": found}
    rows = [(c["weight"], c["p"], c["legendre_class"], ";".join(c["forms"]))
            for c in hits]
    _emit(args, doc, csv_rows=rows, csv_header=("weight", "p", "class", "forms"))
    return 0


def _check_prime(p):
    if p < 5 or not is_prime(p):
        raise InvalidArgumentError(f"p must be a prime >= 5, got {p}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PrecisionError as exc:
        print(f"insufficient precision: {exc}", file=sys.stderr)
        return 2
    except CacheIOError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return 3
    except SiegelCongError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    """Run main() on sys.argv and exit with its code, freezing the heap before
    and after it, so that no collection sweeps what came before (module docstring)."""
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
