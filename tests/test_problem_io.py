import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnls import (DeskScaleError, MixedSystem, ParseError, PolynomialSystem,
                  SparseMatrix)
from qnls.problem_io import (dumps_problem, parse_problem, parse_problem_file,
                             problem_kind, write_problem_file)


def small_homogeneous():
    a1 = SparseMatrix.from_dense(np.diag([1.0, 0.0]))
    a2 = SparseMatrix.from_dense(np.diag([0.0, 1.0]))
    return PolynomialSystem(2, 1, 1, (a1, a2))


def test_homogeneous_roundtrip():
    sys0 = small_homogeneous()
    text = dumps_problem(sys0)
    parsed = parse_problem(io.StringIO(text))
    assert problem_kind(parsed) == "homogeneous"
    assert dumps_problem(parsed) == text
    assert isinstance(parsed, PolynomialSystem)
    assert np.allclose(parsed.equations[0].to_dense(),
                       sys0.equations[0].to_dense())


def test_mixed_roundtrip_with_empty_nonlinear_rows():
    nl = small_homogeneous()
    ms = MixedSystem(2, np.array([0.25, 0.0]),
                     SparseMatrix.from_entries(2, 2, [(0, 1, -0.5)]), nl)
    text = dumps_problem(ms)
    parsed = parse_problem(io.StringIO(text))
    assert problem_kind(parsed) == "mixed"
    assert dumps_problem(parsed) == text
    assert np.allclose(parsed.constants, ms.constants)


def test_comments_and_blank_lines_ignored():
    text = dumps_problem(small_homogeneous())
    noisy = "# header comment\n\n" + text.replace(
        "equation 0", "equation 0   # first block")
    parsed = parse_problem(io.StringIO(noisy))
    assert dumps_problem(parsed) == text


def test_parse_rejects_bad_version_kind_and_directive():
    with pytest.raises(ParseError):
        parse_problem(io.StringIO("version 2\nkind homogeneous\nn 1\np 1\ns 1\n"))
    with pytest.raises(ParseError):
        parse_problem(io.StringIO("version 1\nkind wavefunction\nn 1\np 1\ns 1\n"))
    good = dumps_problem(small_homogeneous())
    with pytest.raises(ParseError):
        parse_problem(io.StringIO(good.replace("a 0 0", "alpha 0 0")))
    with pytest.raises(ParseError):
        parse_problem(io.StringIO(good[:-20]))   # truncated file


def test_parse_rejects_misplaced_sections():
    good = dumps_problem(small_homogeneous())
    bad = good.replace("equation 0\n", "equation 0\nconst 1.0\n")
    with pytest.raises(ParseError):
        parse_problem(io.StringIO(bad))


def _two_equation_file(kind, p, a_line):
    return (f"version 1\nkind {kind}\nn 2\np {p}\ns 1\n"
            f"equation 0\n{a_line}end\nequation 1\nend\n")


@pytest.mark.parametrize("kind", ["homogeneous", "mixed"])
@pytest.mark.parametrize("p", [13, 100])
def test_parse_checks_the_cap_before_building(kind, p):
    text = _two_equation_file(kind, p, "a 0 0 1\n")
    with pytest.raises(DeskScaleError,
                       match=f"n\\^p = {2 ** p} exceeds desk-scale cap 4096"):
        parse_problem(io.StringIO(text))


@pytest.mark.parametrize("kind", ["homogeneous", "mixed"])
def test_parse_names_an_unprintable_power_above_the_cap(kind):
    # 2^100000 has more digits than int-to-str conversion allows
    text = _two_equation_file(kind, 100000, "a 0 0 1\n")
    with pytest.raises(DeskScaleError,
                       match="n\\^p = 2\\^100000 exceeds desk-scale cap 4096"):
        parse_problem(io.StringIO(text))


def test_parse_mixed_without_a_lines_ignores_p():
    parsed = parse_problem(io.StringIO(_two_equation_file("mixed", 100, "")))
    assert isinstance(parsed, MixedSystem) and parsed.nonlinear is None


def test_file_roundtrip_atomic(tmp_path):
    path = tmp_path / "sys.qnls"
    sys0 = small_homogeneous()
    write_problem_file(sys0, str(path))
    parsed = parse_problem_file(str(path))
    assert dumps_problem(parsed) == dumps_problem(sys0)
    assert not list(tmp_path.glob("*.tmp"))


def test_float_precision_survives():
    a1 = SparseMatrix.from_entries(2, 2, [(0, 0, 1 / 3), (1, 1, np.pi / 4)])
    a2 = SparseMatrix.from_entries(2, 2, [(0, 1, 0.1), (1, 0, 0.1)])
    sys0 = PolynomialSystem(2, 1, 2, (a1, a2))
    parsed = parse_problem(io.StringIO(dumps_problem(sys0)))
    assert np.array_equal(parsed.equations[0].vals, sys0.equations[0].vals)


# ---------------------------------------------------------------------------
# write -> parse -> write fuzzing
# ---------------------------------------------------------------------------

_VALUES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _sparse(draw, d):
    index = st.integers(0, d - 1)
    cells = draw(st.lists(st.tuples(index, index), max_size=5, unique=True))
    return SparseMatrix.from_entries(d, d, [(r, c, draw(_VALUES))
                                            for r, c in cells])


@st.composite
def _homogeneous(draw, n):
    p = draw(st.integers(1, 2))
    eqs = [draw(_sparse(n ** p)) for _ in range(n)]
    used = max(a.symmetrized().sparsity() for a in eqs)
    s = max(1, used) + draw(st.integers(0, 2))
    return PolynomialSystem(n, p, s, tuple(eqs))


@st.composite
def _problems(draw):
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return draw(_homogeneous(n))
    constants = draw(st.lists(_VALUES, min_size=n, max_size=n))
    nonlinear = draw(st.none() | _homogeneous(n))
    return MixedSystem(n, np.array(constants), draw(_sparse(n)), nonlinear)


@given(_problems())
@settings(max_examples=300, deadline=None)
def test_write_parse_write_is_identical(problem):
    text = dumps_problem(problem)
    assert dumps_problem(parse_problem(io.StringIO(text))) == text
