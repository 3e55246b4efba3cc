"""Command line surface.

Exit codes: 0 on success, 1 on bad input (a usage error or a matrix that
fails validation), 2 when a ``verify`` run finds a counterexample, 130
when interrupted (see ``_run``).  Output is fixed by the invocation.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from functools import cache
from itertools import combinations_with_replacement, islice
from multiprocessing import Pool
from typing import TypeVar

from . import asm as asm_mod
from . import ideal as ideal_mod
from . import perm as perm_mod
from . import pipedream as pd_mod
from . import prism as prism_mod
from .algebra import Monomial, Polynomial
from .asm import Asm, AsmValidationError, MatrixParseError, PartialAsm


class CliError(Exception):
    """Validation failure: message printed to stderr, exit code 1."""


_Loaded = TypeVar("_Loaded", Asm, PartialAsm)

# fixed ceilings on the work one call may start: ASM(7) has 218,348
# matrices, ASM(8) 10,850,216 and ASM(9) 911,835,460 (verify: see VERIFIERS)
MAX_N = 8


def _read_matrix(path: str) -> list[list[int]]:
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        # undecodable bytes become lone surrogates, so the parser
        # rejects them with a line and column instead of a traceback
        rows = asm_mod.parse_matrix_text(data.decode("utf-8", "surrogateescape"))
    except MatrixParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    _bounded(f"{path}: matrix size", len(rows), MAX_N)
    return rows


def _load(path: str, validate: Callable[[list[list[int]]], _Loaded]) -> _Loaded:
    try:
        return validate(_read_matrix(path))
    except AsmValidationError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _bounded(what: str, value: int, ceiling: int) -> int:
    """Reject a size below 1 or above its ceiling."""
    if value < 1:
        raise CliError(f"{what} must be positive")
    if value > ceiling:
        raise CliError(f"{what} must be at most {ceiling}, got {value}")
    return value


def _bounded_jobs(jobs: int) -> int:
    """Reject a worker count below 1; clamp one above the core count."""
    if jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _cells_line(cells: Iterable[tuple[int, int]]) -> str:
    return " ".join(f"{i},{j}" for i, j in sorted(cells)) or "-"


# the two prism models of an ASM, checked and listed in this order
_PRISM_MODELS = {"bigr": prism_mod.bigrassmannian_model, "parabolic": prism_mod.parabolic_model}

# each poly --model: the polynomial of an ASM by that route, looked up when
# called, so that poly and verify theorem1 run whatever the tables hold
_POLYS: dict[str, Callable[[Asm], Polynomial]] = {
    **{name: lambda a, name=name: prism_mod.asm_polynomial(_PRISM_MODELS[name](a)) for name in _PRISM_MODELS},
    "schubert-sum": lambda a: pd_mod.min_perm_schubert_sum(a),
    "multidegree": lambda a: ideal_mod.multidegree(a),
}


# one helper per verify verb; top-level so they can cross process boundaries

def _anchored(a: Asm) -> bool:
    """A = join(biGr(A)), compared with A's own corner sums.  Every route
    reads Ess(A) through ``rank_conditions``, so a check that compares two
    routes cannot see an error there; this anchor does."""
    return asm_mod.join_all([u.matrix(a.n) for u in perm_mod.bigr_of(a)], a.n) == a


def _check_theorem1(a: Asm) -> bool:
    """The Schubert sum over MinPerm(A), from one walk, equals every other
    ``_POLYS`` route.  Every route weighs through ``algebra._row_counts``,
    so the weights are anchored too: each w in MinPerm(A) adds x^code(w),
    the weight of its bottom pipe dream, and coefficients count pipe
    dreams, so none cancels."""
    mins = perm_mod.min_perm_set(a)
    target = sum((pd_mod.schubert_polynomial(w, a.n) for w in mins), Polynomial.zero())
    return (
        _anchored(a)
        and all(target.coefficient(Monomial(w.code())) > 0 for w in mins)
        and all(poly(a) == target for name, poly in _POLYS.items() if name != "schubert-sum")
    )


def _check_bijection(a: Asm) -> bool:
    """Each model's A_{lambda, d}, which its bijection report rebuilt at the
    spec's ambient size, is A under the embedding, and the report passes."""
    reports = (pd_mod.verify_bijection(model(a)) for model in _PRISM_MODELS.values())
    return _anchored(a) and all(r.asm == a and r.passed for r in reports)


def _check_groebner(a: Asm) -> bool:
    # an SR facet is the grid less a minimal hitting set and a subword facet
    # the grid less a pipe dream, so the complements cancel
    hitting = ideal_mod._hitting_masks(ideal_mod._initial_masks(a))
    return _anchored(a) and set(hitting) == pd_mod._facet_masks(a)


def _check_schur(args: tuple[tuple[int, ...], int]) -> bool:
    """Drops the shape's pool (``prism._pool``): each shape is asked for once."""
    lam, d = args
    poly = prism_mod.asm_polynomial(prism_mod.PrismShapeSpec((lam,), (d,)))
    prism_mod._pool.cache_clear()
    return poly == prism_mod.schur_polynomial_ssyt(lam, d)


def _schur_shapes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Each partition in the n x n box, by length and then lexicographically,
    with each depth d from its length (at least 1) to n."""
    return [
        (parts, d)
        for length in range(n + 1)
        for parts in sorted(combinations_with_replacement(range(n, 0, -1), length))
        for d in range(max(1, length), n + 1)
    ]


def _passes(check: Callable, item: object) -> bool:
    """check(item).  A check that raises ValueError (AsmValidationError is
    one) has failed on its item: the item is a counterexample, not bad
    input."""
    try:
        return check(item)
    except ValueError:
        return False


def _tally(share: tuple[Callable, Callable, int, int, int]) -> tuple[int, int]:
    """(passed, checked) over items k, k + jobs, ... of items_for(n), walked
    where the share runs: no item is listed or pickled."""
    items_for, check, n, k, jobs = share
    verdicts = Counter(_passes(check, item) for item in islice(items_for(n), k, None, jobs))
    return verdicts[True], verdicts.total()


@cache
def _bigrassmannian_pairs(n: int) -> list[tuple[Asm, Asm]]:
    """Each biGrassmannian g of S_n as a matrix, with its column flip
    g w0 (the 1 of row i moves from column g(i) to n + 1 - g(i))."""
    return [
        (g.matrix(n), perm_mod.Perm(tuple(n + 1 - v for v in g.padded(n))).matrix(n))
        for g in perm_mod._bigrassmannians(n).values()
    ]


def _check_lattice(a: Asm) -> bool:
    """For each of the C(n + 1, 3) biGrassmannians g of S_n, A join g and
    A meet g w0 are ASMs that bound their arguments; and A = join(biGr(A)).
    A join or meet that is not an ASM raises AsmValidationError, which
    ``_passes`` counts as a failure.

    On all of ASM(n) this proves closure.  Joins are entrywise minima of
    corner sums, and r_B = min(r_g1, ..., r_gk) over biGr(B) (the anchor),
    so min(r_A, r_B) = min(...min(r_A, r_g1)..., r_gk) is a chain of joins
    of an ASM with a biGrassmannian.  The flip A -> A w0,
    r'(i, j) = i - r(i, n - j), maps ASM(n) onto itself and turns maxima
    into minima, so r_{B w0} = max(r_g1 w0, ..., r_gk w0): meets chain alike."""
    join, meet, leq = asm_mod.asm_join, asm_mod.asm_meet, asm_mod.asm_leq
    for g, flipped in _bigrassmannian_pairs(a.n):
        j, m = join(a, g), meet(a, flipped)
        if not (leq(a, j) and leq(g, j) and leq(m, a) and leq(m, flipped)):
            return False
    return _anchored(a)


# each verify name: its largest --n, its items for n, the check run on each
# item, and the detail line, filled with the items that passed and the total.
# lattice took 41 min on all of ASM(8) with --jobs 2 (2 shared vCPUs), and
# schur 26 min on its 18,781,524 tableaux at n = 6, under 500 MB per worker
VERIFIERS = {
    "theorem1": (7, asm_mod.enumerate_asms, _check_theorem1, "{ok}/{total} ASMs, both models"),
    "bijection": (7, asm_mod.enumerate_asms, _check_bijection, "{ok}/{total} ASMs, both models"),
    "groebner": (7, asm_mod.enumerate_asms, _check_groebner, "{ok}/{total} ASMs"),
    "lattice": (8, asm_mod.enumerate_asms, _check_lattice, "{ok}/{total} ASMs, joins/meets closed, A = join(biGr(A))"),
    "schur": (6, _schur_shapes, _check_schur, "{ok}/{total} single shapes match the tableau Schur"),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="asmprism", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def with_asm(p: argparse.ArgumentParser) -> None:
        p.add_argument("--asm", required=True, metavar="FILE", help="matrix file, or - for stdin")

    def with_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "structured"], default="text")

    p = sub.add_parser("poly", help="the ASM polynomial / multidegree")
    p.add_argument("--model", choices=list(_POLYS), required=True)
    with_asm(p)

    p = sub.add_parser("prism", help="prism tableau listings")
    p.add_argument("action", choices=["list"])
    p.add_argument("--model", choices=list(_PRISM_MODELS), required=True)
    p.add_argument("--verbose", action="store_true", help="print the weight of each tableau")
    with_asm(p)
    with_format(p)

    p = sub.add_parser("facets", help="facets of the subword complex")
    p.add_argument("--max", action="store_true", help="only the maximal-dimension facets")
    with_asm(p)
    with_format(p)

    for verb in ("perm-set", "min-perm", "deg", "diagram", "essential", "triangle"):
        p = sub.add_parser(verb)
        with_asm(p)
        if verb == "diagram":
            with_format(p)

    p = sub.add_parser("ideal", help="antidiagonal initial ideal data")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--init", action="store_true", help="minimal generators")
    g.add_argument("--facets", action="store_true", help="Stanley-Reisner facets")
    with_asm(p)

    p = sub.add_parser("count", help="number of n x n ASMs, by enumeration")
    p.add_argument("n", type=int)

    p = sub.add_parser("verify", help="exhaustive theorem checks")
    p.add_argument("name", choices=sorted(VERIFIERS))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("complete", help="canonical completion of a partial ASM")
    with_asm(p)

    return top


def _run(args: argparse.Namespace) -> tuple[int, list[str]]:
    """The exit code and the output lines of one command."""
    if args.verb == "count":
        n = _bounded("n", args.n, MAX_N)
        return 0, [str(sum(1 for _ in asm_mod.enumerate_asms(n)))]

    if args.verb == "verify":
        max_n, items_for, check, detail = VERIFIERS[args.name]
        n = _bounded("--n", args.n, max_n)
        jobs = _bounded_jobs(args.jobs)
        shares = [(items_for, check, n, k, jobs) for k in range(jobs)]
        if jobs == 1:  # in-process, where tests count patched calls
            counts = map(_tally, shares)
        else:  # leaving the pool terminates the workers, which ignore Ctrl-C
            with Pool(jobs, signal.signal, (signal.SIGINT, signal.SIG_IGN)) as pool:
                # SIGTERM to this process alone leaves the pool as Ctrl-C does
                previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
                try:
                    counts = pool.map(_tally, shares)
                finally:
                    signal.signal(signal.SIGTERM, previous)
        ok, total = map(sum, zip(*counts))
        detail = detail.format(ok=ok, total=total)
        return (0, [f"OK: {detail}"]) if ok == total else (2, [f"FAIL: {detail}"])

    if args.verb == "complete":
        return 0, [asm_mod.render_asm(asm_mod.canonical_completion(_load(args.asm, asm_mod.validate_partial_asm)))]

    a = _load(args.asm, asm_mod.validate_asm)
    if args.verb == "poly":
        lines = [_POLYS[args.model](a).render()]

    elif args.verb == "prism":
        tableaux = sorted(
            prism_mod.prism_set(_PRISM_MODELS[args.model](a)),
            key=prism_mod.serialize_prism_tableau,
        )
        if args.format == "structured":
            lines = [
                prism_mod.serialize_prism_tableau(t)
                + (f" wt={prism_mod.prism_weight(t).render()}" if args.verbose else "")
                for t in tableaux
            ]
        else:
            lines = ["\n\n".join(
                prism_mod.render_prism_tableau(t)
                + (f"\n  wt: {prism_mod.prism_weight(t).render()}" if args.verbose else "")
                for t in tableaux
            )]

    elif args.verb == "facets":
        facets = pd_mod.delta_fmax(a) if args.max else pd_mod.delta_facets(a)
        diagrams = sorted(facets, key=lambda d: sorted(d.cells))
        if args.format == "structured":
            lines = [_cells_line(d.cells) for d in diagrams]
        else:
            lines = ["\n\n".join(d.render() for d in diagrams)]

    elif args.verb in ("perm-set", "min-perm"):
        ws = perm_mod.perm_set(a) if args.verb == "perm-set" else perm_mod.min_perm_set(a)
        lines = [w.render(a.n) for w in sorted(ws, key=lambda w: w.padded(a.n))]

    elif args.verb == "deg":
        lines = [str(perm_mod.deg(a))]

    elif args.verb == "diagram":
        cells = asm_mod.inversions(a)
        if args.format == "structured":
            lines = [_cells_line(cells)]
        else:
            lines = [
                "".join("#" if (i, j) in cells else "." for j in range(1, a.n + 1))
                for i in range(1, a.n + 1)
            ]

    elif args.verb == "essential":
        lines = [_cells_line(asm_mod.essential_set(a))]

    elif args.verb == "triangle":
        lines = [" ".join(str(x) for x in row) for row in asm_mod.monotone_triangle(a).rows]

    elif args.verb == "ideal":
        if args.init:
            lines = [
                "*".join(f"z[{i}][{j}]" for i, j in sorted(s))
                for s in sorted(ideal_mod.initial_ideal(a), key=lambda s: (len(s), sorted(s)))
            ]
        else:
            sr = ideal_mod.stanley_reisner_facets(ideal_mod.initial_ideal(a), a.n)
            lines = [_cells_line(f) for f in sorted(sr.facets, key=lambda f: sorted(f))]
    return 0, lines


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage and message; its code 2 for a usage
        # error is the counterexample code here, and bad input exits 1
        return 1 if exc.code == 2 else exc.code
    try:
        code, lines = _run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
