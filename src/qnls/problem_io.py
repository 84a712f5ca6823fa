"""Line-oriented problem file format (UTF-8 text, `#` comments).

Header: `version 1`, `kind homogeneous|mixed`, `n`, `p`, `s`.  Then one
`equation <i>` ... `end` block per equation: at most one `const <value>`,
`lin <j> <value>` linear coefficients, then `a <row> <col> <value>` sparse
entries of the homogeneous part (0-based, row-major over n^p).  Both kinds
share one block writer and one block reader; a homogeneous block carries
only `a` entries.  Floats are written with 17 significant digits so that
write -> parse -> write is bit-identical.
"""

from __future__ import annotations

import os
from typing import TextIO, Union

import numpy as np

from .errors import ParseError
from .poly_system import (MixedSystem, PolynomialSystem, SparseMatrix,
                          capped_dim, system_parts)

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
    """Problem file text; both kinds write their blocks from `system_parts`."""
    kind = problem_kind(problem)
    hom, lin, const = system_parts(problem)
    out = ["version 1", f"kind {kind}", f"n {problem.n}",
           f"p {hom.p if hom is not None else 1}",
           f"s {hom.sparsity if hom is not None else 0}"]
    for i in range(problem.n):
        out.append(f"equation {i}")
        if const is not None and const[i] != 0.0:
            out.append(f"const {_fmt(const[i])}")
        if lin is not None:
            mask = lin.rows == i
            out += [f"lin {int(c)} {_fmt(float(v))}"
                    for c, v in zip(lin.cols[mask], lin.vals[mask])]
        if hom is not None:
            out += [f"a {r} {c} {_fmt(v)}" for r, c, v in hom.equations[i].entries()]
        out.append("end")
    return "\n".join(out) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file beside it and a rename;
    the file is created as `open()` creates one, so the umask applies."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
        problem = _parse_equations(lines, kind, n, p, s)
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


def _parse_equations(lines: _Lines, kind: str, n: int, p: int, s: int) -> Problem:
    """The n blocks of either kind; a mixed file without `a` lines has no
    homogeneous part, so its p is not checked."""
    b = np.zeros(n)
    lin_entries, a_entries = [], []
    for i in range(n):
        rows = _parse_equation_block(lines, i)
        if kind == "homogeneous" and (rows["lin"] or rows["const"]):
            raise ParseError("homogeneous problems carry only 'a' entries")
        b[i] = rows["const"][0] if rows["const"] else 0.0
        lin_entries += [(i, j, v) for j, v in rows["lin"]]
        a_entries.append(rows["a"])
    hom = None
    if kind == "homogeneous" or any(a_entries):
        d = capped_dim(n, p)        # the cap is checked before any n^p matrix
        hom = PolynomialSystem(n, p, s, tuple(
            SparseMatrix.from_entries(d, d, ent) for ent in a_entries))
    if kind == "homogeneous":
        return hom
    return MixedSystem(n, b, SparseMatrix.from_entries(n, n, lin_entries), hom)
