"""The benchmark's workloads: how a seed draws the items, how one item is
checked, and what an item's output and work counts are.

Every check calls the library through ``call(name, fn, *args)``.  The
untraced run passes a forwarder; the traced run passes a tracer that
records one span per call, named ``<module>.<function>`` after the
public function the call enters.  Both time a speed probe between calls
(see ``run.Speed``).  Work counts are taken by ``count``, after the
item's timing has stopped.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

MODELS = ("bigrassmannian", "parabolic")
MODEL_TAG = {"bigrassmannian": "bigr", "parabolic": "parabolic"}

# The README's worked 4x4 example and its polynomial, checked once per run.
KNOWN_ASM = ((0, 0, 0, 1), (0, 1, 0, 0), (1, -1, 1, 0), (0, 1, 0, 0))
KNOWN_POLYNOMIAL = "x1^3*x2^2 + x1^3*x2*x3"


def render_asm(a) -> str:
    """One-line form of an ASM: rows joined by '/', -1 written as '-'."""
    return "/".join("".join("-" if x < 0 else str(x) for x in row) for row in a.entries)


def _all_equal(values) -> bool:
    return all(v == values[0] for v in values[1:])


def _model_specs(lib, call, a) -> dict:
    return {m: call(f"prism.{m}_model", getattr(lib.prism, f"{m}_model"), a) for m in MODELS}


def _bigr_matrices(lib, a) -> list:
    """biGr(A) as permutation matrices, ready for join_all."""
    return [u.matrix(a.n) for u in lib.perm.bigr_of(a)]


class Counts:
    """Per-layer work counts for one run; every field must repeat exactly
    across runs of one seed."""

    def __init__(self):
        self.values = {
            "perm.min_perms": 0,
            "prism.tableaux_full": 0,
            "prism.tableaux_kept": 0,
            "pipedream.facets": 0,
            "ideal.generators": 0,
            "ideal.sr_facets": 0,
        }

    def add(self, name: str, k: int) -> None:
        self.values[name] += k

    def add_prism(self, spec, kept: int) -> None:
        """The full product of spec's component pools (each pool's size is
        the number of enumerate_rssyt fillings), and the tableaux kept."""
        full = 1
        for lam, d in zip(spec.lambdas, spec.ds):
            full *= _fillings(lam, d)
        self.values["prism.tableaux_full"] += full
        self.values["prism.tableaux_kept"] += kept


class Theorem1:
    """Theorem 1: the Schubert sum over MinPerm(A), both prism models and
    the multidegree are one polynomial."""

    @staticmethod
    def draw(asms, rng, size):
        above = PermsAbove(asms[0].n)
        keys = [cost_signature(a.entries, above) for a in asms]
        return systematic_sample(asms, keys, min(size, len(asms)), rng)

    @staticmethod
    def check(lib, call, a):
        mins = call("perm.min_perm_set", lib.perm.min_perm_set, a)
        schuberts = [
            call("pipedream.schubert_polynomial", lib.pipedream.schubert_polynomial, w, a.n)
            for w in mins
        ]
        target = call("algebra.poly_sum", sum, schuberts, lib.algebra.Polynomial.zero())
        specs = _model_specs(lib, call, a)
        polys = {
            m: call(f"prism.asm_polynomial.{MODEL_TAG[m]}", lib.prism.asm_polynomial, spec)
            for m, spec in specs.items()
        }
        multidegree = call("ideal.multidegree", lib.ideal.multidegree, a)
        routes = (target, *polys.values(), multidegree)
        ok = call("algebra.poly_eq", _all_equal, routes)
        return ok, (mins, target, specs, polys)

    @staticmethod
    def render(a, data) -> str:
        return f"{render_asm(a)} {data[1].render()}"

    @staticmethod
    def count(lib, a, data, counts: Counts) -> None:
        mins, _, specs, polys = data
        counts.add("perm.min_perms", len(mins))
        for m, spec in specs.items():
            counts.add_prism(spec, sum(polys[m].terms.values()))
        gens = lib.ideal.initial_ideal(a)
        counts.add("ideal.generators", len(gens))
        counts.add("ideal.sr_facets", len(lib.ideal.stanley_reisner_facets(gens, a.n).facets))


class Facets:
    """The groebner check (Stanley-Reisner facets of the initial ideal are
    the complements of the subword-complex facets) and the bijection check
    on both models."""

    @staticmethod
    def draw(asms, rng, size):
        return rng.sample(asms, min(size, len(asms)))

    @staticmethod
    def check(lib, call, a):
        gens = call("ideal.initial_ideal", lib.ideal.initial_ideal, a)
        sr = call("ideal.stanley_reisner_facets", lib.ideal.stanley_reisner_facets, gens, a.n)
        facets = call("pipedream.delta_facets", lib.pipedream.delta_facets, a)
        groebner = sr.facets == frozenset(f.complement_cells() for f in facets)
        specs = _model_specs(lib, call, a)
        reports = {
            m: call("pipedream.verify_bijection", lib.pipedream.verify_bijection, spec)
            for m, spec in specs.items()
        }
        ok = groebner and all(r.passed for r in reports.values())
        return ok, (gens, sr, facets, specs, reports)

    @staticmethod
    def render(a, data) -> str:
        _, sr, _, _, reports = data
        facets = sorted(sorted(f) for f in sr.facets)
        counts = " ".join(f"{k}={v}" for m in MODELS for k, v in sorted(reports[m].counts.items()))
        return f"{render_asm(a)} {facets} {counts}"

    @staticmethod
    def count(lib, a, data, counts: Counts) -> None:
        gens, sr, facets, specs, reports = data
        counts.add("ideal.generators", len(gens))
        counts.add("ideal.sr_facets", len(sr.facets))
        counts.add("pipedream.facets", len(facets))
        for m, spec in specs.items():
            counts.add_prism(spec, reports[m].counts["prism"])


class Lattice:
    """For a pair (A, B): join, meet and the four bound checks; for each of
    A and B, join_all(biGr(X)) == X."""

    @staticmethod
    def draw(asms, rng, size):
        return [(rng.choice(asms), rng.choice(asms)) for _ in range(size)]

    @staticmethod
    def check(lib, call, pair):
        a, b = pair
        join = call("asm.asm_join", lib.asm.asm_join, a, b)
        meet = call("asm.asm_meet", lib.asm.asm_meet, a, b)
        ok = all(
            call("asm.asm_leq", lib.asm.asm_leq, lo, hi)
            for lo, hi in ((a, join), (b, join), (meet, a), (meet, b))
        )
        for x in pair:
            mats = call("perm.bigr_of", _bigr_matrices, lib, x)
            ok = call("asm.join_all", lib.asm.join_all, mats, x.n) == x and ok
        return ok, (join, meet)

    @staticmethod
    def render(pair, data) -> str:
        return " ".join(render_asm(x) for x in (*pair, *data))

    @staticmethod
    def count(lib, pair, data, counts: Counts) -> None:
        pass


class Known:
    """The fixed known-answer item: every route above, on the README's 4x4
    ASM, whose polynomial is known; its join and meet with itself are itself."""

    @staticmethod
    def check(lib, call, a):
        ok1, t1 = Theorem1.check(lib, call, a)
        ok2, fc = Facets.check(lib, call, a)
        ok3, lt = Lattice.check(lib, call, (a, a))
        ok = ok1 and ok2 and ok3 and t1[1].render() == KNOWN_POLYNOMIAL and lt == (a, a)
        return ok, (t1, fc, lt)

    @staticmethod
    def count(lib, a, data, counts: Counts) -> None:
        t1, fc, lt = data
        Theorem1.count(lib, a, t1, counts)
        Facets.count(lib, a, fc, counts)


def systematic_sample(population: list, keys: list, size: int, rng: random.Random) -> list:
    """The items at ``size`` evenly spaced ranks of the population ordered
    by key, ties broken in seeded order, returned in seeded order.  Each
    run holds the same number of items from every range of keys, so its
    mix of cheap and costly items, and so its speed, hardly varies from
    seed to seed; the seed picks among items with equal keys."""
    tie = [rng.random() for _ in population]
    order = sorted(range(len(population)), key=lambda i: (keys[i], tie[i]))
    picks = [order[(2 * k + 1) * len(order) // (2 * size)] for k in range(size)]
    rng.shuffle(picks)
    return [population[i] for i in picks]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.  A run draws ``items_per_second`` times its
    seconds items, and at least ``min_items``."""

    n: int
    min_items: int
    items_per_second: float
    kind: type

    def draw(self, asms: list, rng: random.Random, seconds: float) -> list:
        return self.kind.draw(asms, rng, max(self.min_items, round(seconds * self.items_per_second)))


def cost_signature(entries, above: PermsAbove) -> tuple[int, int, int]:
    """What a Theorem 1 check of this ASM costs, as three counts: the prism
    tableaux its biGrassmannian model fills, those its parabolic model
    fills (each the product of its components' fillings, by the
    hook-content formula), and the permutations above it, which
    min_perm_set filters.  Computed here from the matrix, so that a seed
    draws the same items whatever the library does."""
    n = len(entries)
    corner = [[0] * (n + 1) for _ in range(n + 1)]
    col = [[0] * (n + 1) for _ in range(n + 1)]
    row = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x = entries[i - 1][j - 1]
            corner[i][j] = corner[i - 1][j] + corner[i][j - 1] - corner[i - 1][j - 1] + x
            col[i][j] = col[i - 1][j] + x
            row[i][j] = row[i][j - 1] + x
    diagram = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if col[i][j] == row[i][j] == 0}
    essential = [(i, j) for i, j in diagram if (i + 1, j) not in diagram and (i, j + 1) not in diagram]
    bigr = 1
    for i, j in essential:
        r = corner[i][j]
        bigr *= _fillings((j - r,) * (i - r), i)
    parabolic = 1
    for ell in {i for i, _ in essential}:
        triangle_row = [j for j in range(1, n + 1) if col[ell][j] == 1]
        shape = tuple(p for p in (triangle_row[k - 1] - k for k in range(ell, 0, -1)) if p > 0)
        parabolic *= _fillings(shape, ell)
    return bigr, parabolic, above.count(corner)


@lru_cache(maxsize=None)
def _fillings(shape: tuple[int, ...], labels: int) -> int:
    """Reverse semistandard fillings of a shape with labels at most
    ``labels``: the hook-content formula."""
    num = den = 1
    for p, part in enumerate(shape):
        for q in range(part):
            num *= labels + q - p
            den *= part - q + sum(1 for later in shape[p + 1:] if later > q)
    return num // den


class PermsAbove:
    """Counts the permutations w of S_n with r_w <= r_A entrywise: one bit
    set per permutation for each cell (i, j) and bound v."""

    def __init__(self, n: int):
        perms = list(itertools.permutations(range(n)))
        self.all = (1 << len(perms)) - 1
        self.masks = [[[0] * (n + 1) for _ in range(n)] for _ in range(n)]
        for bit, w in enumerate(perms):
            ranks = [0] * n
            for i in range(n):
                ranks = [ranks[j] + (w[i] <= j) for j in range(n)]
                for j in range(n):
                    self.masks[i][j][ranks[j]] |= 1 << bit
        for masks_row in self.masks:
            for masks in masks_row:
                for v in range(1, n + 1):
                    masks[v] |= masks[v - 1]

    def count(self, corner) -> int:
        mask = self.all
        for i, masks_row in enumerate(self.masks):
            for j, masks in enumerate(masks_row):
                mask &= masks[corner[i + 1][j + 1]]
        return mask.bit_count()


KINDS = {"theorem1": Theorem1, "facets": Facets, "lattice": Lattice}
