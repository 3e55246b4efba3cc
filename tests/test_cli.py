import io
import math
import os
import runpy
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout, redirect_stderr
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from conftest import decoded_entries_match, pair_lattice_check

from asmprism import algebra, cli
from asmprism.algebra import Polynomial
from asmprism.asm import render_asm, validate_asm
from asmprism.pipedream import _schubert


ASMDIAG_TEXT = "0 0 0 1\n0 1 0 0\n1 -1 1 0\n0 1 0 0\n"
NONEQI_TEXT = "0 0 1 0\n1 0 -1 1\n0 1 0 0\n0 0 1 0\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def two_cores(monkeypatch):
    """--jobs 2 runs two shares whatever the host's core count."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)


@pytest.fixture
def asmdiag_file(tmp_path):
    p = tmp_path / "asmdiag.txt"
    p.write_text(ASMDIAG_TEXT)
    return str(p)


@pytest.fixture
def noneqi_file(tmp_path):
    p = tmp_path / "noneqi.txt"
    p.write_text(NONEQI_TEXT)
    return str(p)


class TestPoly:
    def test_parabolic_model_value(self, asmdiag_file):
        code, out, _ = run(["poly", "--model", "parabolic", "--asm", asmdiag_file])
        assert code == 0
        assert out == "x1^3*x2^2 + x1^3*x2*x3\n"

    def test_all_models_agree(self, asmdiag_file):
        outputs = {
            model: run(["poly", "--model", model, "--asm", asmdiag_file])[1]
            for model in ("bigr", "parabolic", "schubert-sum", "multidegree")
        }
        assert len(set(outputs.values())) == 1

    def test_noneqi_multidegree(self, noneqi_file):
        code, out, _ = run(["poly", "--model", "multidegree", "--asm", noneqi_file])
        assert code == 0
        assert out == "x1^3\n"


class TestCount:
    @pytest.mark.parametrize("n,expected", [("1", "1"), ("3", "7"), ("4", "42")])
    def test_counts(self, n, expected):
        code, out, _ = run(["count", n])
        assert code == 0
        assert out.strip() == expected

    def test_rejects_zero(self):
        code, _, err = run(["count", "0"])
        assert code == 1
        assert "error" in err


class TestVerify:
    def test_theorem1_n3(self):
        code, out, _ = run(["verify", "theorem1", "--n", "3"])
        assert code == 0
        assert out == "OK: 7/7 ASMs, both models\n"

    def test_bijection_n2(self):
        code, out, _ = run(["verify", "bijection", "--n", "2"])
        assert code == 0
        assert out.startswith("OK")

    def test_groebner_n2(self):
        code, out, _ = run(["verify", "groebner", "--n", "2"])
        assert code == 0

    def test_lattice_n3(self):
        code, out, _ = run(["verify", "lattice", "--n", "3"])
        assert code == 0

    def test_schur_n2(self):
        code, out, _ = run(["verify", "schur", "--n", "2"])
        assert code == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_schur_shapes(self, n):
        # a partition inside the n x n box is a lattice path, so there are C(2n, n)
        shapes = cli._schur_shapes(n)
        parts = list(dict.fromkeys(p for p, _ in shapes))  # the last assert rules out repeats
        assert len(parts) == math.comb(2 * n, n)
        assert parts == sorted(parts, key=lambda p: (len(p), p))
        for p in parts:
            assert len(p) <= n and all(0 < x <= n for x in p)
            assert list(p) == sorted(p, reverse=True)
        assert shapes == [(p, d) for p in parts for d in range(max(1, len(p)), n + 1)]

    def test_schur_keeps_no_pool(self):
        # verify schur asks for each shape once, so no pool outlives its check
        pools = cli.prism_mod._pool.cache_info
        before = pools().currsize
        for item in cli._schur_shapes(3):
            assert cli._check_schur(item)
            assert pools().currsize <= before

    def test_jobs_flag_same_output(self):
        # each of the two workers walks ASM(n) and checks every other ASM
        for name, n in (("theorem1", "3"), ("theorem1", "4"), ("lattice", "4")):
            _, serial, _ = run(["verify", name, "--n", n])
            _, parallel, _ = run(["verify", name, "--n", n, "--jobs", "2"])
            assert serial == parallel

    @pytest.mark.slow
    def test_theorem1_n6_exhaustive(self):
        assert run(["verify", "theorem1", "--n", "6"]) == (0, "OK: 7436/7436 ASMs, both models\n", "")

    @pytest.mark.slow
    def test_bijection_n6_exhaustive(self):
        assert run(["verify", "bijection", "--n", "6"]) == (0, "OK: 7436/7436 ASMs, both models\n", "")

    @pytest.mark.slow
    def test_groebner_n6_exhaustive(self):
        assert run(["verify", "groebner", "--n", "6"]) == (0, "OK: 7436/7436 ASMs\n", "")

    @pytest.mark.parametrize("name", sorted(cli.VERIFIERS))
    def test_jobs_reach_the_pool(self, monkeypatch, two_cores, name):
        seen = []

        class Pool:
            def __init__(self, max_workers, *initializer):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, shares):
                return map(fn, shares)

        monkeypatch.setattr(cli, "Pool", Pool)
        assert run(["verify", name, "--n", "2", "--jobs", "2"])[0] == 0
        assert seen == [cli._bounded_jobs(2)]

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs 2 starts no worker on one core")
    def test_sigterm_to_the_parent_stops_its_workers(self):
        # a run of about 30 s, in a session of its own, and SIGTERM to its
        # parent alone: the process group must be gone within 5 s
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        argv = [sys.executable, "-m", "asmprism", "verify", "lattice", "--n", "7", "--jobs", "2"]
        proc = subprocess.Popen(argv, env=env, start_new_session=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

        def group_alive():
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return False
            return True

        try:
            time.sleep(2)  # the workers are running
            proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 5
            out, err = proc.communicate(timeout=5)
            while group_alive() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not group_alive()
        finally:
            if group_alive():
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        assert (proc.returncode, out, err) == (130, b"", b"")

    @pytest.mark.slow
    def test_lattice_n6_exhaustive(self):
        assert run(["verify", "lattice", "--n", "6"]) == (
            0, "OK: 7436/7436 ASMs, joins/meets closed, A = join(biGr(A))\n", ""
        )

    def test_lattice_n5_exhaustive(self):
        assert run(["verify", "lattice", "--n", "5"]) == (
            0, "OK: 429/429 ASMs, joins/meets closed, A = join(biGr(A))\n", ""
        )

    def test_theorem1_checks_the_multidegree(self, monkeypatch):
        monkeypatch.setattr("asmprism.ideal.multidegree", lambda a: Polynomial.zero())
        code, out, _ = run(["verify", "theorem1", "--n", "3"])
        assert code == 2
        assert out.startswith("FAIL")

    def test_theorem1_checks_every_route_of_poly(self, monkeypatch):
        # a route added to poly's table is checked by theorem1 too
        monkeypatch.setitem(cli._POLYS, "zero", lambda a: Polynomial.zero())
        assert run(["verify", "theorem1", "--n", "3"]) == (2, "FAIL: 0/7 ASMs, both models\n", "")

    def test_lattice_checks_the_join(self, monkeypatch):
        # a join that returns the meet is not an upper bound
        monkeypatch.setattr("asmprism.asm.asm_join", cli.asm_mod.asm_meet)
        code, out, _ = run(["verify", "lattice", "--n", "3"])
        assert code == 2
        assert out.startswith("FAIL")

    def test_lattice_join_outside_asm_n_exits_2(self, monkeypatch):
        # sums that fail Robbins-Rumsey are a failed check, not bad input
        bytewise_min = cli.asm_mod._bytewise_min
        monkeypatch.setattr("asmprism.asm._bytewise_min", lambda p, q, g: bytewise_min(p, q, g) + 1)
        code, out, err = run(["verify", "lattice", "--n", "3", "--jobs", "1"])
        assert code == 2
        assert out == "FAIL: 0/7 ASMs, joins/meets closed, A = join(biGr(A))\n"
        assert err == ""

    def test_failure_exits_2(self, monkeypatch):
        monkeypatch.setitem(cli.VERIFIERS, "theorem1", (7, cli.asm_mod.enumerate_asms, lambda a: False, "0/{total} ASMs"))
        code, out, _ = run(["verify", "theorem1", "--n", "3"])
        assert code == 2
        assert out.startswith("FAIL")
        assert "OK" not in out

    @pytest.mark.parametrize("name", sorted(cli.VERIFIERS))
    def test_shares_check_each_item_once(self, name):
        _, items_for, _, _ = cli.VERIFIERS[name]
        for n in range(1, 5):
            items = list(items_for(n))
            passing = set(items[::3])
            for jobs in range(1, 5):
                seen = []
                record = lambda item: seen.append(item) or item in passing
                counts = []
                for k in range(jobs):
                    seen.clear()
                    counts.append(cli._tally((items_for, record, n, k, jobs)))
                    assert seen == items[k::jobs]
                assert [sum(c) for c in zip(*counts)] == [len(passing), len(items)]

    def test_a_share_with_no_item(self, two_cores):
        assert run(["verify", "theorem1", "--n", "1", "--jobs", "2"]) == (0, "OK: 1/1 ASMs, both models\n", "")

    def test_no_asm_is_pickled(self, monkeypatch, two_cores):
        def refuse(self):
            raise AssertionError("an Asm was pickled")

        monkeypatch.setattr(cli.Asm, "__reduce__", refuse)
        assert run(["verify", "lattice", "--n", "4", "--jobs", "2"]) == (
            0, "OK: 42/42 ASMs, joins/meets closed, A = join(biGr(A))\n", ""
        )


RANK_CORRUPTIONS = {
    "drop last": lambda conds: conds[:-1],
    "drop first": lambda conds: conds[1:],
    "raise r below min(i, j)": lambda conds: [
        (i, j, r + 1 if r + 1 < min(i, j) else r) for i, j, r in conds
    ],
}


def _corrupt_rank_conditions(monkeypatch, corruption: str):
    """Make every module's rank_conditions apply the named corruption."""
    rank_conditions, wrong = cli.asm_mod.rank_conditions, RANK_CORRUPTIONS[corruption]
    for mod in ("asm", "perm", "ideal", "prism"):
        monkeypatch.setattr(f"asmprism.{mod}.rank_conditions", lambda a: wrong(rank_conditions(a)))


def _triangle_rows_one_down(monkeypatch):
    """Make the parabolic model read triangle row i + 1 for row i."""
    triangle_rows = cli.asm_mod._triangle_rows
    monkeypatch.setattr("asmprism.prism._triangle_rows", lambda a, rows: triangle_rows(a, [i + 1 for i in rows]))


ROW_COUNT_CORRUPTIONS = {
    "reversed": lambda counts: counts[::-1],
    "drop last row": lambda counts: counts[:-1],
}


@pytest.fixture
def corrupt_row_counts(monkeypatch):
    """Make the row-count weight apply the named corruption wherever it is
    read.  The kept Schubert sums are dropped before and after, so the run
    neither reads a right sum nor leaves a wrong one behind."""
    def corrupt(corruption: str) -> None:
        row_counts, wrong = algebra._row_counts, ROW_COUNT_CORRUPTIONS[corruption]
        for mod in ("algebra", "prism"):
            monkeypatch.setattr(f"asmprism.{mod}._row_counts", lambda mask, n: wrong(row_counts(mask, n)))
        _schubert.cache_clear()
    yield corrupt
    _schubert.cache_clear()


@pytest.fixture
def swap_decoded_rows(monkeypatch):
    """Make the corner-sum decode swap its last two rows.  The kept
    permutation matrices hold the entries they decode, so they are dropped
    before and after."""
    decode = cli.asm_mod._entries_from_corner_rows

    def swapped(rows):
        e = decode(rows)
        return (*e[:-2], e[-1], e[-2]) if len(e) > 1 else e

    monkeypatch.setattr(cli.asm_mod, "_entries_from_corner_rows", swapped)
    kept = (cli.perm_mod._matrix, cli._bigrassmannian_pairs)
    for cached in kept:
        cached.cache_clear()
    yield
    for cached in kept:
        cached.cache_clear()


def _widened_last_bigr_rectangle(a):
    spec = cli.prism_mod.bigrassmannian_model(a)
    if not spec.lambdas:
        return spec
    *rest, last = spec.lambdas
    return cli.prism_mod.PrismShapeSpec((*rest, tuple(p + 1 for p in last)), spec.ds)


def _dropped_last_parabolic_shape(a):
    spec = cli.prism_mod.parabolic_model(a)
    return cli.prism_mod.PrismShapeSpec(spec.lambdas[:-1], spec.ds[:-1])


MODEL_CORRUPTIONS = {
    "widen the last bigr rectangle": ("bigr", _widened_last_bigr_rectangle),
    "drop the last parabolic shape": ("parabolic", _dropped_last_parabolic_shape),
}


def _corrupt_model(monkeypatch, corruption: str):
    """Make the CLI build one prism model wrong; the identity's empty
    models stay right."""
    monkeypatch.setitem(cli._PRISM_MODELS, *MODEL_CORRUPTIONS[corruption])


class TestAnchors:
    """Route-level mutation tests: a shared kernel or a prism model made
    wrong, and the line each verify name prints.  Every per-ASM check compares
    join(biGr(A)) with A's own corner sums, so an error in rank_conditions,
    which every route reads, fails it."""

    @pytest.mark.parametrize("name,line", [
        ("groebner", "FAIL: 1/42 ASMs\n"),
        ("theorem1", "FAIL: 1/42 ASMs, both models\n"),
        ("bijection", "FAIL: 1/42 ASMs, both models\n"),
        ("lattice", "FAIL: 1/42 ASMs, joins/meets closed, A = join(biGr(A))\n"),
    ])
    def test_dropped_rank_condition_fails_every_check(self, monkeypatch, name, line):
        _corrupt_rank_conditions(monkeypatch, "drop last")
        assert run(["verify", name, "--n", "4", "--jobs", "1"]) == (2, line, "")

    @pytest.mark.parametrize("corruption,ok", [("drop first", 1), ("raise r below min(i, j)", 38)])
    @pytest.mark.parametrize("name,line", [
        ("groebner", "FAIL: {ok}/42 ASMs\n"),
        ("theorem1", "FAIL: {ok}/42 ASMs, both models\n"),
        ("bijection", "FAIL: {ok}/42 ASMs, both models\n"),
        ("lattice", "FAIL: {ok}/42 ASMs, joins/meets closed, A = join(biGr(A))\n"),
    ])
    def test_other_rank_corruptions_fail_every_check(self, monkeypatch, corruption, ok, name, line):
        _corrupt_rank_conditions(monkeypatch, corruption)
        assert run(["verify", name, "--n", "4", "--jobs", "1"]) == (2, line.format(ok=ok), "")

    def test_groebner_needs_the_anchor(self, monkeypatch):
        # both sides of the groebner comparison read the same wrong conditions
        _corrupt_rank_conditions(monkeypatch, "drop last")
        monkeypatch.setattr(cli, "_anchored", lambda a: True)
        assert run(["verify", "groebner", "--n", "4", "--jobs", "1"]) == (0, "OK: 42/42 ASMs\n", "")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("name,n,code,line", [
        # the wrong triangle asks for a shape deeper than its depth, and the
        # ValueError that raises is a failed ASM, not bad input
        ("theorem1", "3", 2, "FAIL: 1/7 ASMs, both models\n"),
        ("theorem1", "4", 2, "FAIL: 1/42 ASMs, both models\n"),
        ("bijection", "3", 2, "FAIL: 1/7 ASMs, both models\n"),
        ("bijection", "4", 2, "FAIL: 1/42 ASMs, both models\n"),
        # neither reads the triangle
        ("groebner", "4", 0, "OK: 42/42 ASMs\n"),
        ("lattice", "4", 0, "OK: 42/42 ASMs, joins/meets closed, A = join(biGr(A))\n"),
    ])
    def test_triangle_rows_one_down(self, monkeypatch, jobs, name, n, code, line):
        # the pool's workers are forked, so they run the patched kernel too
        _triangle_rows_one_down(monkeypatch)
        assert run(["verify", name, "--n", n, "--jobs", jobs]) == (code, line, "")

    @pytest.mark.parametrize("corruption,theorem1,schur", [
        ("reversed", "FAIL: 17/42 ASMs, both models\n", "FAIL: 73/125"),
        ("drop last row", "FAIL: 1/42 ASMs, both models\n", "FAIL: 4/125"),
    ])
    @pytest.mark.parametrize("name", ["theorem1", "bijection", "groebner", "lattice", "schur"])
    def test_row_counts(self, corrupt_row_counts, corruption, theorem1, schur, name):
        # every theorem1 route weighs through the same row counts, so only
        # the x^code(w) anchor sees them; bijection, groebner and lattice
        # read no weight
        corrupt_row_counts(corruption)
        lines = {
            "theorem1": (2, theorem1),
            "bijection": (0, "OK: 42/42 ASMs, both models\n"),
            "groebner": (0, "OK: 42/42 ASMs\n"),
            "lattice": (0, "OK: 42/42 ASMs, joins/meets closed, A = join(biGr(A))\n"),
            "schur": (2, f"{schur} single shapes match the tableau Schur\n"),
        }
        assert run(["verify", name, "--n", "4", "--jobs", "1"]) == (*lines[name], "")

    @pytest.mark.parametrize("corruption", sorted(MODEL_CORRUPTIONS))
    @pytest.mark.parametrize("name", ["theorem1", "bijection"])
    @pytest.mark.parametrize("n,line", [
        ("3", "FAIL: 1/7 ASMs, both models\n"),
        ("4", "FAIL: 1/42 ASMs, both models\n"),
    ])
    def test_wrong_model(self, monkeypatch, corruption, name, n, line):
        _corrupt_model(monkeypatch, corruption)
        assert run(["verify", name, "--n", n, "--jobs", "1"]) == (2, line, "")

    @pytest.mark.parametrize("corruption", sorted(MODEL_CORRUPTIONS))
    def test_bijection_needs_the_rebuild_check(self, monkeypatch, corruption):
        # the report reads A rebuilt from the wrong model, so it agrees with
        # itself; only A_{lambda, d} == A ties the model back to A
        _corrupt_model(monkeypatch, corruption)
        verify = cli.pd_mod.verify_bijection
        monkeypatch.setattr(cli.pd_mod, "verify_bijection", lambda spec: replace(verify(spec), asm=mock.ANY))
        assert run(["verify", "bijection", "--n", "4", "--jobs", "1"]) == (0, "OK: 42/42 ASMs, both models\n", "")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("name,n,line", [
        # no check decodes corner sums: ASMs of different sizes, as A and an
        # A_{lambda, d} one size smaller, compare by their packed sums,
        # widened bytewise under iota
        ("bijection", "3", "OK: 7/7 ASMs, both models\n"),
        ("bijection", "4", "OK: 42/42 ASMs, both models\n"),
        ("theorem1", "3", "OK: 7/7 ASMs, both models\n"),
        ("theorem1", "4", "OK: 42/42 ASMs, both models\n"),
        ("groebner", "3", "OK: 7/7 ASMs\n"),
        ("groebner", "4", "OK: 42/42 ASMs\n"),
        ("lattice", "3", "OK: 7/7 ASMs, joins/meets closed, A = join(biGr(A))\n"),
        ("lattice", "4", "OK: 42/42 ASMs, joins/meets closed, A = join(biGr(A))\n"),
        ("schur", "3", "OK: 34/34 single shapes match the tableau Schur\n"),
        ("schur", "4", "OK: 125/125 single shapes match the tableau Schur\n"),
    ])
    def test_corner_sum_decode_swapping_the_last_two_rows(self, swap_decoded_rows, jobs, name, n, line):
        # the pool's workers are forked, so they run the patched decode too
        assert run(["verify", name, "--n", n, "--jobs", jobs]) == (0, line, "")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corner_sum_decode_swap_fails_the_decoder_check(self, swap_decoded_rows, n):
        # the verify names pass the swap above; conftest's decoder check,
        # which test_lattice_kernel runs on every pair of ASM(4), catches it
        assert decoded_entries_match(list(cli.asm_mod.enumerate_asms(n))) is False

    def test_bijection_rebuilds_each_spec_once(self, monkeypatch):
        # the check compares the A its report rebuilt, so each of the two
        # models of each of the 42 ASMs is rebuilt once
        calls = []
        rebuild = cli.perm_mod.asm_from_shape_tuple
        counting = lambda spec: calls.append(spec) or rebuild(spec)
        for mod in (cli.perm_mod, cli.pd_mod):
            monkeypatch.setattr(mod, "asm_from_shape_tuple", counting)
        assert run(["verify", "bijection", "--n", "4", "--jobs", "1"]) == (0, "OK: 42/42 ASMs, both models\n", "")
        assert len(calls) == 84

    @pytest.mark.parametrize("name,built", [
        ("theorem1", 42), ("lattice", 42),
        # and the ASM that pipedream._facet_masks_of rebuilds from A's sums
        ("groebner", 84), ("bijection", 84),
    ])
    def test_each_asm_builds_its_rank_conditions_once(self, monkeypatch, name, built):
        # every route reads Ess(A) through rank_conditions, which keeps it
        # on the ASM; the list holds each ASM it is built for, so no id is
        # reused and each is built for once
        calls = []
        diagram_bytes = cli.asm_mod._diagram_bytes
        monkeypatch.setattr(cli.asm_mod, "_diagram_bytes", lambda a: calls.append(a) or diagram_bytes(a))
        code, out, _ = run(["verify", name, "--n", "4", "--jobs", "1"])
        assert code == 0 and out.startswith("OK: 42/42 ASMs")
        assert len(set(map(id, calls))) == len(calls) == built


def _first_row_from(real, operand: int):
    """A kernel that is right everywhere but row 1, which it copies from
    operand 0 (p) or 1 (q)."""
    def kernel(p, q, g):
        row = (1 << 8 * math.isqrt(g.bit_length() // 8)) - 1
        return real(p, q, g) & ~row | (p, q)[operand] & row
    return kernel


_MIN, _MAX = cli.asm_mod._bytewise_min, cli.asm_mod._bytewise_max
KERNEL_CORRUPTIONS = {
    "min+1": ("_bytewise_min", lambda p, q, g: _MIN(p, q, g) + 1),
    "min=max": ("_bytewise_min", _MAX),
    "min row 1 from p": ("_bytewise_min", _first_row_from(_MIN, 0)),
    "max+1": ("_bytewise_max", lambda p, q, g: _MAX(p, q, g) + 1),
    "max=min": ("_bytewise_max", _MIN),
    "max row 1 from q": ("_bytewise_max", _first_row_from(_MAX, 1)),
}


def _lattice_verdict(asms) -> bool:
    """verify lattice's verdict on asms: a join or meet outside ASM(n)
    raises, and _passes counts that as a failure."""
    return all(cli._passes(cli._check_lattice, a) for a in asms)


class TestLatticeOracle:
    """verify lattice on join-irreducibles against the pair check it
    replaced (conftest's pair_lattice_check)."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_same_verdict(self, n):
        asms = list(cli.asm_mod.enumerate_asms(n))
        assert _lattice_verdict(asms) is pair_lattice_check(asms) is True

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("corruption", sorted(KERNEL_CORRUPTIONS))
    def test_same_verdict_under_a_corrupted_kernel(self, monkeypatch, n, corruption):
        asms = list(cli.asm_mod.enumerate_asms(n))
        kernel, wrong = KERNEL_CORRUPTIONS[corruption]
        monkeypatch.setattr(cli.asm_mod, kernel, wrong)
        assert _lattice_verdict(asms) is pair_lattice_check(asms) is False

    def test_joins_take_g_and_meets_take_g_flipped(self, monkeypatch):
        calls = {"asm_join": [], "asm_meet": []}
        for name, seen in calls.items():
            real = getattr(cli.asm_mod, name)
            monkeypatch.setattr(cli.asm_mod, name, lambda a, b, real=real, seen=seen: seen.append(b) or real(a, b))
        a = list(cli.asm_mod.enumerate_asms(5))[200]
        assert cli._check_lattice(a)
        pairs = cli._bigrassmannian_pairs(5)
        assert calls["asm_join"] == [g for g, _ in pairs] and calls["asm_meet"] == [h for _, h in pairs]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_flipped_biGrassmannians(self, n):
        pairs = cli._bigrassmannian_pairs(n)
        assert len(pairs) == math.comb(n + 1, 3)
        for g, flipped in pairs:
            assert flipped.entries == tuple(row[::-1] for row in g.entries)
            # the flip reverses the order: r'(i, j) = i - r(i, n - j)
            r, flip = cli.asm_mod.corner_rows(g), cli.asm_mod.corner_rows(flipped)
            assert all(flip[i - 1][j - 1] == i - (r[i - 1][n - j - 1] if j < n else 0)
                       for i in range(1, n + 1) for j in range(1, n + 1))


class TestListingVerbs:
    def test_deg(self, noneqi_file):
        assert run(["deg", "--asm", noneqi_file])[1] == "3\n"

    def test_perm_set(self, noneqi_file):
        code, out, _ = run(["perm-set", "--asm", noneqi_file])
        assert out == "3 4 1 2\n4 1 2 3\n"

    def test_perm_set_identity_8(self, tmp_path):
        p = tmp_path / "id8.txt"
        p.write_text(render_asm(cli.asm_mod.identity_asm(8)) + "\n")
        assert run(["perm-set", "--asm", str(p)]) == (0, "1 2 3 4 5 6 7 8\n", "")

    def test_min_perm(self, noneqi_file):
        assert run(["min-perm", "--asm", noneqi_file])[1] == "4 1 2 3\n"

    def test_essential(self, asmdiag_file):
        assert run(["essential", "--asm", asmdiag_file])[1] == "1,3 2,1 3,2\n"
        # its one line has one form: no --format
        assert run(["essential", "--format", "text", "--asm", asmdiag_file])[0] == 1

    def test_diagram_text(self, asmdiag_file):
        code, out, _ = run(["diagram", "--asm", asmdiag_file])
        assert out == "###.\n#...\n.#..\n....\n"

    def test_diagram_structured(self, asmdiag_file):
        code, out, _ = run(["diagram", "--format", "structured", "--asm", asmdiag_file])
        assert out == "1,1 1,2 1,3 2,1 3,2\n"

    def test_triangle(self, asmdiag_file):
        assert run(["triangle", "--asm", asmdiag_file])[1] == "4\n2 4\n1 3 4\n1 2 3 4\n"

    def test_facets_structured(self, noneqi_file):
        code, out, _ = run(["facets", "--format", "structured", "--asm", noneqi_file])
        assert out == "1,1 1,2 1,3\n1,1 1,2 2,1 2,2\n"

    def test_facets_max(self, noneqi_file):
        code, out, _ = run(["facets", "--max", "--format", "structured", "--asm", noneqi_file])
        assert out == "1,1 1,2 1,3\n"

    def test_facets_text_grid(self, noneqi_file):
        code, out, _ = run(["facets", "--max", "--asm", noneqi_file])
        assert out == "+++.\n....\n....\n....\n"

    def test_prism_list_structured(self, asmdiag_file):
        code, out, _ = run([
            "prism", "list", "--model", "bigr", "--format", "structured",
            "--verbose", "--asm", asmdiag_file])
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "1,1,1 | 2/1 | 2/1 wt=x1^3*x2^2"
        assert lines[1] == "1,1,1 | 2/1 | 3/2 wt=x1^3*x2*x3"

    def test_prism_list_text(self, asmdiag_file):
        code, out, _ = run(["prism", "list", "--model", "parabolic", "--asm", asmdiag_file])
        assert code == 0
        assert "color 1" in out

    def test_ideal_init(self, noneqi_file):
        code, out, _ = run(["ideal", "--init", "--asm", noneqi_file])
        assert out == "z[1][1]\nz[1][2]\nz[1][3]*z[2][1]\nz[1][3]*z[2][2]\n"

    def test_ideal_facets(self, noneqi_file):
        code, out, _ = run(["ideal", "--facets", "--asm", noneqi_file])
        lines = out.splitlines()
        assert len(lines) == 2
        assert all("1,4" in line for line in lines)


class TestComplete:
    def test_honest_asm_unchanged(self, asmdiag_file):
        code, out, _ = run(["complete", "--asm", asmdiag_file])
        assert out.strip() == ASMDIAG_TEXT.strip()

    def test_partial_completion(self, tmp_path):
        p = tmp_path / "partial.txt"
        p.write_text("0 0 0\n0 1 0\n1 -1 0\n")
        code, out, _ = run(["complete", "--asm", str(p)])
        assert code == 0
        comp = validate_asm([[int(x) for x in line.split()] for line in out.splitlines()])
        assert comp.n == 5
        assert render_asm(comp) == "0 0 0 1 0\n0 1 0 0 0\n1 -1 0 0 1\n0 1 0 0 0\n0 0 1 0 0"


class TestErrors:
    def test_malformed_matrix_reports_position(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\nx 0\n")
        code, _, err = run(["deg", "--asm", str(p)])
        assert code == 1
        assert "line 2, column 1" in err

    # int() alone takes an underscore and non-ASCII digits (U+0661, U+FF11)
    @pytest.mark.parametrize("tok", ["0_1", "\u0661", "\uff11"])
    def test_underscores_and_unicode_digits_are_refused(self, monkeypatch, tok):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(f"{tok}\n".encode())))
        assert run(["deg", "--asm", "-"]) == (1, "", f"error: -: line 1, column 1: not an integer: {tok!r}\n")

    def test_undecodable_bytes_report_position(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"1 0\n0 \xff1\n")
        code, _, err = run(["essential", "--asm", str(p)])
        assert code == 1
        assert "line 2, column 2: not an integer" in err

    def test_undecodable_stdin_reports_position(self, monkeypatch):
        # stdin is decoded like a file, whatever the stream's own error handler
        strict = io.TextIOWrapper(io.BytesIO(b"1 0\n0 \xff\n"), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdin", strict)
        code, _, err = run(["essential", "--asm", "-"])
        assert code == 1
        assert "-: line 2, column 2: not an integer" in err

    def test_invalid_asm_reports_axiom(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 -1\n-1 1\n")
        code, _, err = run(["deg", "--asm", str(p)])
        assert code == 1
        assert "row 1" in err

    def test_missing_file(self):
        code, _, err = run(["deg", "--asm", "/nonexistent/nope.txt"])
        assert code == 1

    @pytest.mark.parametrize("text,where", [
        ("1 0\n0 1\n\n7 x 9\n", "line 4, column 2"),
        ("1 0\n0 1\n\n1 0\n", "line 4, column 1"),
        ("\n1 0 0\n0 1\n0 0 1\n", "line 3, column 3"),
    ])
    def test_every_nonblank_line_is_parsed_and_cited_by_source_line(self, tmp_path, text, where):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        code, out, err = run(["deg", "--asm", str(p)])
        assert code == 1
        assert out == ""
        assert where in err

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "spaced.txt"
        p.write_text("\n0 1\n\n1 0\n\n")
        assert run(["deg", "--asm", str(p)]) == (0, "1\n", "")

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_rejected(self, jobs):
        code, out, err = run(["verify", "theorem1", "--n", "1", "--jobs", jobs])
        assert code == 1
        assert out == ""
        assert err.startswith("error: --jobs must be at least 1")

    @pytest.mark.parametrize("argv,message", [
        (["verify", "bogus"], "asmprism verify: error: argument name: invalid choice: 'bogus'"),
        (["count", "x"], "asmprism count: error: argument n: invalid int value: 'x'"),
        (["verify", "lattice", "--n", "3", "--jobs", "x"], "asmprism verify: error: argument --jobs: invalid int value: 'x'"),
        ([], "asmprism: error: the following arguments are required: verb"),
    ], ids=["verify bogus", "count x", "jobs x", "no verb"])
    def test_usage_errors_exit_1(self, argv, message):
        # argparse's usage and message, with the exit code of bad input
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: asmprism") and message in err

    def test_help_exits_0(self):
        code, out, err = run(["--help"])
        assert (code, err) == (0, "") and out.startswith("usage: asmprism")


class TestSizeLimits:
    """Past the fixed ceilings the command exits 1 before any work starts."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started past the size limit")

        for mod, name in [
            (cli.asm_mod, "enumerate_asms"),
            (cli.asm_mod, "validate_asm"),
            (cli.asm_mod, "validate_partial_asm"),
            (cli.perm_mod, "_minimal_above"),
            (cli, "_schur_shapes"),
            (cli, "_tally"),
        ]:
            monkeypatch.setattr(mod, name, refuse)

    def test_count_9(self):
        assert run(["count", "9"]) == (1, "", "error: n must be at most 8, got 9\n")

    @pytest.mark.parametrize("argv,what", [
        (["count", "0"], "n"), (["count", "-3"], "n"), (["verify", "groebner", "--n", "0"], "--n"),
    ])
    def test_sizes_below_one(self, argv, what):
        assert run(argv) == (1, "", f"error: {what} must be positive\n")

    @pytest.mark.parametrize("name", ["theorem1", "bijection", "groebner"])
    def test_verify_n8(self, name):
        assert run(["verify", name, "--n", "8"]) == (
            1, "", "error: --n must be at most 7, got 8\n")

    def test_verify_schur_n7(self):
        # n = 6 already takes 26 min on two cores: 7 is refused before any work
        assert run(["verify", "schur", "--n", "7"]) == (1, "", "error: --n must be at most 6, got 7\n")

    def test_verify_lattice_n9(self):
        # the 911,835,460 ASMs of ASM(9), 84 times ASM(8)'s 41 min on two cores:
        # refused before enumeration
        assert run(["verify", "lattice", "--n", "9", "--jobs", "2"]) == (
            1, "", "error: --n must be at most 8, got 9\n")

    @pytest.mark.parametrize("argv", [
        ["perm-set"], ["deg"], ["poly", "--model", "bigr"], ["facets"], ["complete"],
    ])
    def test_asm_9x9(self, tmp_path, argv):
        p = tmp_path / "id9.txt"
        p.write_text(render_asm(cli.asm_mod.identity_asm(9)) + "\n")
        code, out, err = run([*argv, "--asm", str(p)])
        assert (code, out) == (1, "")
        assert err == f"error: {p}: matrix size must be at most 8, got 9\n"


def test_size_limits_admit_8x8(tmp_path):
    assert cli.MAX_N == 8
    assert {name: max_n for name, (max_n, *_) in cli.VERIFIERS.items()} == {
        "theorem1": 7, "bijection": 7, "groebner": 7, "lattice": 8, "schur": 6}
    p = tmp_path / "id8.txt"
    p.write_text(render_asm(cli.asm_mod.identity_asm(8)) + "\n")
    assert run(["deg", "--asm", str(p)]) == (0, "0\n", "")


def test_jobs_clamped_to_core_count():
    cores = os.cpu_count() or 1
    assert cli._bounded_jobs(1) == 1
    assert cli._bounded_jobs(cores) == cores
    assert cli._bounded_jobs(cores + 7) == cores
    with pytest.raises(cli.CliError):
        cli._bounded_jobs(0)


def test_python_dash_m_runs_the_command(monkeypatch, noneqi_file):
    monkeypatch.setattr(sys, "argv", ["asmprism", "deg", "--asm", noneqi_file])
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        runpy.run_module("asmprism", run_name="__main__")
    assert exc.value.code == 0
    assert out.getvalue() == "3\n"


class TestDeterminism:
    def test_byte_identical_repeats(self, asmdiag_file):
        first = run(["poly", "--model", "bigr", "--asm", asmdiag_file])
        second = run(["poly", "--model", "bigr", "--asm", asmdiag_file])
        assert first == second
        a = run(["facets", "--format", "structured", "--asm", asmdiag_file])
        b = run(["facets", "--format", "structured", "--asm", asmdiag_file])
        assert a == b
