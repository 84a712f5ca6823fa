"""Line-oriented problem file format (UTF-8 text, `#` comments).

Header: `version 1`, `kind homogeneous|mixed`, `n`, `p`, `s`.  Then one
`equation <i>` ... `end` block per equation containing `a <row> <col>
<value>` sparse entries of the homogeneous part (0-based, row-major over
n^p) and, for the mixed kind, `lin <j> <value>` linear coefficients and at
most one `const <value>`.  Floats are written with 17 significant digits
so that write -> parse -> write is bit-identical.
"""

from __future__ import annotations

import io
import os
import tempfile
from typing import TextIO, Union

import numpy as np

from .errors import ParseError
from .poly_system import (MixedSystem, PolynomialSystem, SparseMatrix,
                          capped_dim)

Problem = Union[PolynomialSystem, MixedSystem]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def problem_kind(problem: Problem) -> str:
    if isinstance(problem, PolynomialSystem):
        return "homogeneous"
    if isinstance(problem, MixedSystem):
        return "mixed"
    raise ParseError(f"unsupported problem type {type(problem).__name__}")


def dumps_problem(problem: Problem) -> str:
    kind = problem_kind(problem)
    stream = io.StringIO()
    stream.write("version 1\n")
    stream.write(f"kind {kind}\n")
    stream.write(f"n {problem.n}\n")
    if kind == "homogeneous":
        stream.write(f"p {problem.p}\n")
        stream.write(f"s {problem.sparsity}\n")
        for i, a in enumerate(problem.equations):
            stream.write(f"equation {i}\n")
            for r, c, v in a.entries():
                stream.write(f"a {r} {c} {_fmt(v)}\n")
            stream.write("end\n")
    else:
        nl = problem.nonlinear
        stream.write(f"p {nl.p if nl is not None else 1}\n")
        stream.write(f"s {nl.sparsity if nl is not None else 0}\n")
        for i in range(problem.n):
            stream.write(f"equation {i}\n")
            if problem.constants[i] != 0.0:
                stream.write(f"const {_fmt(problem.constants[i])}\n")
            mask = problem.linear.rows == i
            for c, v in zip(problem.linear.cols[mask], problem.linear.vals[mask]):
                stream.write(f"lin {int(c)} {_fmt(float(v))}\n")
            if nl is not None:
                for r, c, v in nl.equations[i].entries():
                    stream.write(f"a {r} {c} {_fmt(v)}\n")
            stream.write("end\n")
    return stream.getvalue()


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file and a rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_problem_file(problem: Problem, path: str) -> None:
    atomic_write(path, dumps_problem(problem))


class _Lines:
    def __init__(self, stream: TextIO):
        self.raw = []
        for lineno, line in enumerate(stream, start=1):
            body = line.split("#", 1)[0].strip()
            if body:
                self.raw.append((lineno, body))
        self.pos = 0

    def next(self):
        if self.pos == len(self.raw):
            raise ParseError("unexpected end of file")
        self.pos += 1
        return self.raw[self.pos - 1]


def _expect(lines: _Lines, keyword: str) -> list[str]:
    lineno, body = lines.next()
    parts = body.split()
    if parts[0] != keyword:
        raise ParseError(f"line {lineno}: expected '{keyword}', got '{parts[0]}'")
    return parts[1:]


def parse_problem(stream: TextIO) -> Problem:
    lines = _Lines(stream)
    try:
        (version,) = _expect(lines, "version")
        if version != "1":
            raise ParseError(f"unsupported version {version}")
        (kind,) = _expect(lines, "kind")
        if kind not in ("homogeneous", "mixed"):
            raise ParseError(f"unknown kind {kind!r}")
        (n,) = _expect(lines, "n")
        (p,) = _expect(lines, "p")
        (s,) = _expect(lines, "s")
        n, p, s = int(n), int(p), int(s)
        if n > (room := (len(lines.raw) - lines.pos) // 2):   # equation .. end
            raise ParseError(
                f"n = {n}, but the file has room for {room} equation blocks")
        if kind == "homogeneous":
            problem = _parse_homogeneous(lines, n, p, s)
        else:
            problem = _parse_mixed(lines, n, p, s)
        if lines.pos < len(lines.raw):
            raise ParseError(f"line {lines.raw[lines.pos][0]}: content after "
                             "the last equation block")
        return problem
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed problem file: {exc}") from exc


def parse_problem_file(path: str) -> Problem:
    """Parse a problem file; an unreadable file is a ParseError too."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_problem(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read problem file: {exc}") from exc


def _parse_equation_block(lines: _Lines, expected_index: int):
    args = _expect(lines, "equation")
    if int(args[0]) != expected_index:
        raise ParseError(f"expected equation {expected_index}, got {args[0]}")
    rows = {"a": [], "lin": [], "const": []}
    while True:
        lineno, body = lines.next()
        parts = body.split()
        key = parts[0]
        if key == "end":
            break
        if key == "a":
            rows["a"].append((int(parts[1]), int(parts[2]), float(parts[3])))
        elif key == "lin":
            rows["lin"].append((int(parts[1]), float(parts[2])))
        elif key == "const":
            if rows["const"]:
                raise ParseError(f"line {lineno}: repeated 'const' in "
                                 f"equation {expected_index}")
            rows["const"].append(float(parts[1]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {key!r}")
    return rows


def _homogeneous_system(n: int, p: int, s: int, a_entries) -> PolynomialSystem:
    """System of the parsed `a` entries; the cap is checked before any n^p matrix."""
    d = capped_dim(n, p)
    return PolynomialSystem(n, p, s, tuple(
        SparseMatrix.from_entries(d, d, ent) for ent in a_entries))


def _parse_homogeneous(lines: _Lines, n: int, p: int, s: int) -> PolynomialSystem:
    a_entries = []
    for i in range(n):
        rows = _parse_equation_block(lines, i)
        if rows["lin"] or rows["const"]:
            raise ParseError("homogeneous problems carry only 'a' entries")
        a_entries.append(rows["a"])
    return _homogeneous_system(n, p, s, a_entries)


def _parse_mixed(lines: _Lines, n: int, p: int, s: int) -> MixedSystem:
    b = np.zeros(n)
    lin_entries = []
    a_entries = []
    for i in range(n):
        rows = _parse_equation_block(lines, i)
        b[i] = rows["const"][0] if rows["const"] else 0.0
        for j, v in rows["lin"]:
            lin_entries.append((i, j, v))
        a_entries.append(rows["a"])
    nonlinear = _homogeneous_system(n, p, s, a_entries) if any(a_entries) else None
    return MixedSystem(n, b, SparseMatrix.from_entries(n, n, lin_entries),
                       nonlinear)
