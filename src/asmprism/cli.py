"""Command line surface.

Exit codes: 0 on success, 1 on validation errors (bad input), 2 when a
``verify`` run finds a counterexample.  Output is deterministic for a
fixed invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import combinations_with_replacement

from . import asm as asm_mod
from . import ideal as ideal_mod
from . import perm as perm_mod
from . import pipedream as pd_mod
from . import prism as prism_mod
from .asm import Asm, AsmValidationError, MatrixParseError, PartialAsm


class CliError(Exception):
    """Validation failure: message printed to stderr, exit code 1."""


# fixed ceilings on the work one call may start: ASM(7) has 218,348
# matrices, ASM(8) 10,850,216 and ASM(9) 911,835,460 (verify: see VERIFIERS)
MAX_N = 8


def _read_matrix(path: str) -> list[list[int]]:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            # undecodable bytes become lone surrogates, so the parser
            # rejects them with a line and column instead of a traceback
            with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        rows = asm_mod.parse_matrix_text(text)
    except MatrixParseError as exc:
        raise CliError(f"{path}: {exc}") from exc
    if len(rows) > MAX_N:
        raise CliError(f"{path}: matrix size must be at most {MAX_N}, got {len(rows)}")
    return rows


def _load_asm(path: str) -> Asm:
    try:
        return asm_mod.validate_asm(_read_matrix(path))
    except AsmValidationError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_partial(path: str) -> PartialAsm:
    try:
        return asm_mod.validate_partial_asm(_read_matrix(path))
    except AsmValidationError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _bounded_jobs(jobs: int) -> int:
    """Reject a worker count below 1; clamp one above the core count."""
    if jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _pmap(fn: Callable, items: Sequence, jobs: int) -> list:
    """Apply fn to items, optionally across processes; order preserved so
    output never depends on the schedule."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # a few chunks per worker: chunksize 1 spends most of the run on IPC
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


def _cells_line(cells: Iterable[tuple[int, int]]) -> str:
    cells = sorted(cells)
    return " ".join(f"{i},{j}" for i, j in cells) if cells else "-"


# the two prism models of an ASM, checked and listed in this order
_PRISM_MODELS = {"bigr": prism_mod.bigrassmannian_model, "parabolic": prism_mod.parabolic_model}


# one helper per verify verb; top-level so they can cross process boundaries

def _check_theorem1(a: Asm) -> bool:
    target = pd_mod.min_perm_schubert_sum(a)
    return (
        all(prism_mod.asm_polynomial(model(a)) == target for model in _PRISM_MODELS.values())
        and ideal_mod.multidegree(a) == target
    )


def _check_bijection(a: Asm) -> bool:
    return all(pd_mod.verify_bijection(model(a), a).passed for model in _PRISM_MODELS.values())


def _check_groebner(a: Asm) -> bool:
    # an SR facet is the grid less a minimal hitting set and a subword facet
    # the grid less a pipe dream, so the complements cancel
    hitting = ideal_mod._hitting_masks(ideal_mod._initial_masks(a))
    return set(hitting) == pd_mod._facet_masks(a)


def _check_schur(args: tuple[tuple[int, ...], int]) -> bool:
    lam, d = args
    spec = prism_mod.PrismShapeSpec((lam,), (d,))
    return prism_mod.asm_polynomial(spec) == prism_mod.schur_polynomial_ssyt(lam, d)


def _asms(n: int) -> list[Asm]:
    return list(asm_mod.enumerate_asms(n))


def _schur_shapes(n: int) -> list[tuple[tuple[int, ...], int]]:
    return [
        (parts, d)
        for parts in _partitions_in_box(n, n)
        for d in range(max(1, len(parts)), n + 1)
    ]


def _verify_each(
    items_for: Callable[[int], list], check: Callable, detail: str, n: int, jobs: int
) -> tuple[bool, str]:
    """Run check on every item for n; detail is formatted with the number
    that passed and the total."""
    items = items_for(n)
    results = _pmap(check, items, jobs)
    return all(results), detail.format(ok=sum(results), total=len(items))


def _check_lattice(k: int, asms: Sequence[Asm]) -> bool:
    """Join and meet of a = asms[k] with a and every later b bound both,
    and A = join(biGr(A)).  Join and meet are symmetric, so this covers
    every pair once over k."""
    a = asms[k]
    for b in asms[k:]:
        j = asm_mod.asm_join(a, b)
        m = asm_mod.asm_meet(a, b)
        if not (
            asm_mod.asm_leq(a, j) and asm_mod.asm_leq(b, j)
            and asm_mod.asm_leq(m, a) and asm_mod.asm_leq(m, b)
        ):
            return False
    return asm_mod.join_all([u.matrix(a.n) for u in perm_mod.bigr_of(a)], a.n) == a


def _verify_lattice(n: int, jobs: int) -> tuple[bool, str]:
    asms = _asms(n)
    ok = all(_pmap(partial(_check_lattice, asms=asms), range(len(asms)), jobs))
    return ok, f"{len(asms)} ASMs, joins/meets closed, A = join(biGr(A))"


def _partitions_in_box(rows: int, cols: int) -> list[tuple[int, ...]]:
    """The partitions with at most ``rows`` parts, each at most ``cols``,
    by length and then lexicographically."""
    return [
        parts
        for length in range(rows + 1)
        for parts in sorted(combinations_with_replacement(range(cols, 0, -1), length))
    ]


# each verify name's largest --n and its run; lattice is quadratic in |ASM(n)|
VERIFIERS = {
    "theorem1": (7, partial(_verify_each, _asms, _check_theorem1, "{ok}/{total} ASMs, both models")),
    "bijection": (7, partial(_verify_each, _asms, _check_bijection, "{ok}/{total} ASMs, both models")),
    "groebner": (7, partial(_verify_each, _asms, _check_groebner, "{ok}/{total} ASMs")),
    "lattice": (6, _verify_lattice),
    "schur": (7, partial(
        _verify_each, _schur_shapes, _check_schur, "{ok}/{total} single shapes match the tableau Schur"
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="asmprism", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def with_asm(p: argparse.ArgumentParser) -> None:
        p.add_argument("--asm", required=True, metavar="FILE", help="matrix file, or - for stdin")

    def with_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=["text", "structured"], default="text")

    p = sub.add_parser("poly", help="the ASM polynomial / multidegree")
    p.add_argument("--model", choices=[*_PRISM_MODELS, "schubert-sum", "multidegree"], required=True)
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
        if verb in ("diagram", "essential"):
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


def _run(args: argparse.Namespace) -> int:
    out = sys.stdout
    if args.verb == "poly":
        a = _load_asm(args.asm)
        if args.model in _PRISM_MODELS:
            poly = prism_mod.asm_polynomial(_PRISM_MODELS[args.model](a))
        elif args.model == "schubert-sum":
            poly = pd_mod.min_perm_schubert_sum(a)
        else:
            poly = ideal_mod.multidegree(a)
        print(poly.render(), file=out)
        return 0

    if args.verb == "prism":
        a = _load_asm(args.asm)
        tableaux = sorted(
            prism_mod.prism_set(_PRISM_MODELS[args.model](a)),
            key=prism_mod.serialize_prism_tableau,
        )
        for idx, t in enumerate(tableaux):
            if args.format == "structured":
                line = prism_mod.serialize_prism_tableau(t)
                if args.verbose:
                    line += f" wt={prism_mod.prism_weight(t).render()}"
                print(line, file=out)
            else:
                if idx:
                    print(file=out)
                print(prism_mod.render_prism_tableau(t), file=out)
                if args.verbose:
                    print(f"  wt: {prism_mod.prism_weight(t).render()}", file=out)
        return 0

    if args.verb == "facets":
        a = _load_asm(args.asm)
        facets = pd_mod.delta_fmax(a) if args.max else pd_mod.delta_facets(a)
        diagrams = sorted(facets, key=lambda d: d.sorted_cells())
        for idx, d in enumerate(diagrams):
            if args.format == "structured":
                print(_cells_line(d.cells), file=out)
            else:
                if idx:
                    print(file=out)
                print(d.render(), file=out)
        return 0

    if args.verb in ("perm-set", "min-perm"):
        a = _load_asm(args.asm)
        ws = perm_mod.perm_set(a) if args.verb == "perm-set" else perm_mod.min_perm_set(a)
        for w in sorted(ws, key=lambda w: w.padded(a.n)):
            print(w.render(a.n), file=out)
        return 0

    if args.verb == "deg":
        print(perm_mod.deg(_load_asm(args.asm)), file=out)
        return 0

    if args.verb == "diagram":
        a = _load_asm(args.asm)
        cells = asm_mod.inversions(a)
        if args.format == "structured":
            print(_cells_line(cells), file=out)
        else:
            for i in range(1, a.n + 1):
                print("".join("#" if (i, j) in cells else "." for j in range(1, a.n + 1)), file=out)
        return 0

    if args.verb == "essential":
        a = _load_asm(args.asm)
        print(_cells_line(asm_mod.essential_set(a)), file=out)
        return 0

    if args.verb == "triangle":
        a = _load_asm(args.asm)
        for row in asm_mod.monotone_triangle(a).rows:
            print(" ".join(str(x) for x in row), file=out)
        return 0

    if args.verb == "ideal":
        a = _load_asm(args.asm)
        if args.init:
            for s in sorted(ideal_mod.initial_ideal(a), key=lambda s: (len(s), sorted(s))):
                print("*".join(f"z[{i}][{j}]" for i, j in sorted(s)), file=out)
        else:
            sr = ideal_mod.stanley_reisner_facets(ideal_mod.initial_ideal(a), a.n)
            for f in sorted(sr.facets, key=lambda f: sorted(f)):
                print(_cells_line(f), file=out)
        return 0

    if args.verb == "count":
        if args.n < 1:
            raise CliError("n must be positive")
        if args.n > MAX_N:
            raise CliError(f"n must be at most {MAX_N}, got {args.n}")
        print(sum(1 for _ in asm_mod.enumerate_asms(args.n)), file=out)
        return 0

    if args.verb == "verify":
        if args.n < 1:
            raise CliError("--n must be positive")
        max_n, verify = VERIFIERS[args.name]
        if args.n > max_n:
            raise CliError(f"--n must be at most {max_n}, got {args.n}")
        passed, detail = verify(args.n, _bounded_jobs(args.jobs))
        if passed:
            print(f"OK: {detail}", file=out)
            return 0
        print(f"FAIL: {detail}", file=out)
        return 2

    if args.verb == "complete":
        p = _load_partial(args.asm)
        print(asm_mod.render_asm(asm_mod.canonical_completion(p)), file=out)
        return 0

    raise CliError(f"unknown verb {args.verb!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
