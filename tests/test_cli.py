import io
import os
from contextlib import redirect_stdout, redirect_stderr

import pytest

from asmprism import cli
from asmprism.asm import render_asm, validate_asm


ASMDIAG_TEXT = "0 0 0 1\n0 1 0 0\n1 -1 1 0\n0 1 0 0\n"
NONEQI_TEXT = "0 0 1 0\n1 0 -1 1\n0 1 0 0\n0 0 1 0\n"


def run(argv, stdin=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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

    def test_jobs_flag_same_output(self):
        _, serial, _ = run(["verify", "theorem1", "--n", "3"])
        _, parallel, _ = run(["verify", "theorem1", "--n", "3", "--jobs", "2"])
        assert serial == parallel

    def test_failure_exits_2(self, monkeypatch):
        monkeypatch.setitem(cli.VERIFIERS, "theorem1", lambda n, jobs: (False, "0/7 ASMs"))
        code, out, _ = run(["verify", "theorem1", "--n", "3"])
        assert code == 2
        assert out.startswith("FAIL")
        assert "OK" not in out


class TestListingVerbs:
    def test_deg(self, noneqi_file):
        assert run(["deg", "--asm", noneqi_file])[1] == "3\n"

    def test_perm_set(self, noneqi_file):
        code, out, _ = run(["perm-set", "--asm", noneqi_file])
        assert out == "3 4 1 2\n4 1 2 3\n"

    def test_min_perm(self, noneqi_file):
        assert run(["min-perm", "--asm", noneqi_file])[1] == "4 1 2 3\n"

    def test_essential(self, asmdiag_file):
        assert run(["essential", "--asm", asmdiag_file])[1] == "1,3 2,1 3,2\n"

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


def test_jobs_clamped_to_core_count():
    cores = os.cpu_count() or 1
    assert cli._bounded_jobs(1) == 1
    assert cli._bounded_jobs(cores) == cores
    assert cli._bounded_jobs(cores + 7) == cores
    with pytest.raises(cli.CliError):
        cli._bounded_jobs(0)


class TestDeterminism:
    def test_byte_identical_repeats(self, asmdiag_file):
        first = run(["poly", "--model", "bigr", "--asm", asmdiag_file])
        second = run(["poly", "--model", "bigr", "--asm", asmdiag_file])
        assert first == second
        a = run(["facets", "--format", "structured", "--asm", asmdiag_file])
        b = run(["facets", "--format", "structured", "--asm", asmdiag_file])
        assert a == b
