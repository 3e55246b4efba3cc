"""What the benchmark's workloads read of the library, run here at small
sizes: the known-answer item, the Theorem 1 and facet checks on every
ASM(4), and the lattice check on every pair of ASM(3).  The workloads
module is loaded from ``perfbench/`` by path, and each check gets a
``call`` that only forwards, as the untraced benchmark run does."""

import importlib.util
import itertools
import sys
from pathlib import Path

import asmprism
from asmprism.asm import enumerate_asms, validate_asm

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def call(name, fn, *args):
    return fn(*args)


def test_known_answer():
    a = validate_asm(workloads.KNOWN_ASM)
    ok, _ = workloads.Known.check(asmprism, call, a)
    assert ok
    assert workloads.render_asm(a) == "0001/0100/1-10/0100"


def test_theorem1_and_facets_on_asm4():
    for a in enumerate_asms(4):
        for kind in (workloads.Theorem1, workloads.Facets):
            ok, data = kind.check(asmprism, call, a)
            assert ok, (kind.__name__, a)
            assert kind.render(a, data).startswith(workloads.render_asm(a) + " ")


def test_lattice_on_pairs_of_asm3():
    for pair in itertools.product(enumerate_asms(3), repeat=2):
        ok, data = workloads.Lattice.check(asmprism, call, pair)
        assert ok, pair
        assert len(workloads.Lattice.render(pair, data).split()) == 4
