"""File formats.

Native problem format (UTF-8, line oriented, '#' starts a comment):

    q                      number of blocks
    n_1 ... n_q            block orders
    m ineq_start           constraint count, 1-based first inequality index
    r_1 ... r_m            right-hand side (may span lines)
    cons block row col value
    ...                    one entry per line; cons 0 is the cost matrix,
                           cons 1..m the constraints; block/row/col 1-based,
                           upper or lower triangle accepted

SDPA sparse import (.dat-s): F0 becomes the cost, F_j the j-th equality
constraint, the scalar vector the right-hand side; a negative block size -s
denotes a diagonal block and expands into s blocks of order 1. Lines whose
first nonblank character is '*' or '"' are comments.

Solution and warm-start files share one section grammar (see the section
on them below); numbers are written with repr so binary64 values
round-trip exactly (warm-start files store double-double values as hi/lo
pairs, also exact).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .ddouble import DOUBLE, DOUBLE_DOUBLE, DDouble, ScalarKind, kind_by_name, to_float_array
from .errors import FormatError
from .instances import Graph
from .problem import SdpProblem, SymMatrix, validate
from .solver import ErrorReport, Solution, WarmStart


class _Tokens:
    """Whitespace tokenizer that remembers line numbers for error messages."""

    def __init__(self, text: str, path=None, comment_chars=("#",), strip_punct=False):
        self.path = path
        self.items: List[Tuple[str, int]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.lstrip()
            if not stripped or stripped[0] in comment_chars:
                continue
            if strip_punct:
                for ch in "{}(),":
                    line = line.replace(ch, " ")
            for tok in line.split():
                self.items.append((tok, lineno))
        self.pos = 0
        self.last_line = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.items):
            raise FormatError(f"unexpected end of file, expected {what}", self.path, self.last_line or None)
        tok, line = self.items[self.pos]
        self.pos += 1
        self.last_line = line
        return tok

    def next_int(self, what: str) -> int:
        tok = self.next(what)
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"expected {what} (an integer), got {tok!r}", self.path, self.last_line) from None

    def next_float(self, what: str, allow_none: bool = False):
        tok = self.next(what)
        if allow_none and tok == "none":
            return None
        try:
            return float(tok)
        except ValueError:
            raise FormatError(f"expected {what} (a number), got {tok!r}", self.path, self.last_line) from None

    def next_count(self, what: str) -> int:
        count = self.next_int(what)
        if count < 0:
            raise FormatError(f"{what} must be nonnegative, got {count}", self.path, self.last_line)
        return count

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.items)

    # -- sections of solution and warm-start files

    def expect(self, name: str) -> None:
        tag = self.next(repr(name))
        if tag != name:
            raise FormatError(f"expected {name!r}, got {tag!r}", self.path, self.last_line)

    def scalars(self, count: int, kind: ScalarKind) -> np.ndarray:
        """The next `count` values of `kind`, each a hi/lo token pair at
        double-double, converted in one pass over the tokens."""
        need = (2 if kind.is_extended else 1) * count
        chunk = self.items[self.pos : self.pos + need]
        try:
            words = [float(tok) for tok, _ in chunk]
        except ValueError:
            words = []
        if len(words) < need:
            for _ in range(need):
                self.next_float("value")  # raises at the first token that is missing or not a number
        self.pos += need
        if need:
            self.last_line = chunk[-1][1]
        if not kind.is_extended:
            return np.array(words, dtype=np.float64)
        out = np.empty(count, dtype=object)
        out[:] = [DDouble(hi, lo) for hi, lo in zip(words[::2], words[1::2])]
        return out

    def vector(self, name: str, kind: ScalarKind) -> np.ndarray:
        """Section `name length`, then its values."""
        self.expect(name)
        return self.scalars(self.next_count(f"{name} length"), kind)

    def matrix(self, tag: str, b: int, kind: ScalarKind, square: bool = False) -> np.ndarray:
        """Section `tag b rows cols` (`tag b n` when square) of block b (0-based), then its rows."""
        self.expect(tag)
        idx = self.next_int(f"{tag} block index")
        if idx != b + 1:
            raise FormatError(f"{tag} blocks out of order: got {idx}, expected {b + 1}", self.path, self.last_line)
        rows = self.next_count(f"{tag} rows")
        cols = rows if square else self.next_count(f"{tag} columns")
        return self.scalars(rows * cols, kind).reshape(rows, cols)

    def finish(self) -> None:
        """Reject any token after the last section."""
        if not self.exhausted:
            tok, line = self.items[self.pos]
            raise FormatError(f"unexpected {tok!r} after the last section", self.path, line)


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- native problem format ----------------------------------------------------


def _assemble(sizes, cost_entries, con_entries, rhs, ineq_start) -> SdpProblem:
    """The validated problem of parsed (row, col, value) triplets: a list per
    block for the costs, a dict of block to list for each constraint."""
    costs = [SymMatrix.from_entries(n, ents) for n, ents in zip(sizes, cost_entries)]
    constraints = [{b: SymMatrix.from_entries(sizes[b], ents) for b, ents in con.items()} for con in con_entries]
    problem = SdpProblem.build(sizes, costs, constraints, np.array(rhs), ineq_start)
    validate(problem)
    return problem


def parse_native(path) -> SdpProblem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    toks = _Tokens(text, path=path)
    q = toks.next_int("block count")
    if q < 1:
        raise FormatError(f"block count must be positive, got {q}", path, toks.last_line)
    sizes = [toks.next_int(f"size of block {b + 1}") for b in range(q)]
    m = toks.next_int("constraint count")
    if m < 0:
        raise FormatError(f"constraint count must be nonnegative, got {m}", path, toks.last_line)
    ineq_start = toks.next_int("ineq_start")
    rhs = [toks.next_float(f"rhs entry {j + 1}") for j in range(m)]

    cost_entries = [[] for _ in range(q)]
    con_entries = [dict() for _ in range(m)]
    while not toks.exhausted:
        cons = toks.next_int("constraint index")
        block = toks.next_int("block index")
        row = toks.next_int("row")
        col = toks.next_int("column")
        val = toks.next_float("value")
        line = toks.last_line
        if not (0 <= cons <= m):
            raise FormatError(f"constraint index {cons} out of range 0..{m}", path, line)
        if not (1 <= block <= q):
            raise FormatError(f"block index {block} out of range 1..{q}", path, line)
        n = sizes[block - 1]
        if not (1 <= row <= n and 1 <= col <= n):
            raise FormatError(f"entry ({row},{col}) out of range for block of order {n}", path, line)
        if cons == 0:
            cost_entries[block - 1].append((row - 1, col - 1, val))
        else:
            con_entries[cons - 1].setdefault(block - 1, []).append((row - 1, col - 1, val))

    return _assemble(sizes, cost_entries, con_entries, rhs, ineq_start)


def write_native(problem: SdpProblem, path) -> None:
    lines = ["# sdpmix problem"]
    lines.append(str(problem.q))
    lines.append(" ".join(str(n) for n in problem.block_sizes))
    lines.append(f"{problem.m} {problem.ineq_start}")
    rhs64 = to_float_array(problem.rhs)
    lines.append(" ".join(repr(float(v)) for v in rhs64) if problem.m else "")

    def emit(cons_idx, block_idx, mat: SymMatrix):
        vals = to_float_array(mat.vals)
        for r, c, v in zip(mat.rows.tolist(), mat.cols.tolist(), vals.tolist()):
            lines.append(f"{cons_idx} {block_idx + 1} {r + 1} {c + 1} {v!r}")

    for b, cmat in enumerate(problem.costs):
        emit(0, b, cmat)
    for j, con in enumerate(problem.constraints):
        for b, mat in con:
            emit(j + 1, b, mat)
    _write_lines(path, lines)


# -- SDPA sparse import --------------------------------------------------------


def parse_sdpa(path) -> SdpProblem:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    toks = _Tokens(text, path=path, comment_chars=("*", '"'), strip_punct=True)
    m = toks.next_int("constraint count")
    if m < 0:
        raise FormatError(f"malformed header: negative constraint count {m}", path, toks.last_line)
    nblocks = toks.next_int("block count")
    if nblocks < 1:
        raise FormatError(f"malformed header: block count {nblocks}", path, toks.last_line)
    raw_sizes = [toks.next_int(f"size of block {b + 1}") for b in range(nblocks)]
    for s in raw_sizes:
        if s == 0:
            raise FormatError("malformed header: zero block size", path, toks.last_line)
    rhs = [toks.next_float(f"rhs entry {j + 1}") for j in range(m)]

    # expand diagonal (negative-size) blocks into 1x1 blocks
    offsets, sizes = [], []
    for s in raw_sizes:
        offsets.append(len(sizes))
        if s < 0:
            sizes.extend([1] * (-s))
        else:
            sizes.append(s)

    cost_entries = [[] for _ in sizes]
    con_entries = [dict() for _ in range(m)]
    while not toks.exhausted:
        matno = toks.next_int("matrix index")
        blkno = toks.next_int("block index")
        i = toks.next_int("row")
        j = toks.next_int("column")
        val = toks.next_float("value")
        line = toks.last_line
        if not (0 <= matno <= m):
            raise FormatError(f"matrix index {matno} out of range 0..{m}", path, line)
        if not (1 <= blkno <= nblocks):
            raise FormatError(f"block index {blkno} out of range 1..{nblocks}", path, line)
        raw = raw_sizes[blkno - 1]
        order = abs(raw)
        if not (1 <= i <= order and 1 <= j <= order):
            raise FormatError(f"entry ({i},{j}) out of range for block of order {order}", path, line)
        if raw < 0:
            if i != j:
                raise FormatError(f"off-diagonal entry ({i},{j}) in a diagonal block", path, line)
            block, r, c = offsets[blkno - 1] + (i - 1), 0, 0
        else:
            block, r, c = offsets[blkno - 1], i - 1, j - 1
        if matno == 0:
            cost_entries[block].append((r, c, val))
        else:
            con_entries[matno - 1].setdefault(block, []).append((r, c, val))

    return _assemble(sizes, cost_entries, con_entries, rhs, ineq_start=m + 1)


def parse_problem(path) -> SdpProblem:
    """Dispatch on extension: .dat-s goes through the SDPA reader."""
    p = str(path)
    if p.endswith(".dat-s"):
        return parse_sdpa(path)
    return parse_native(path)


# -- graph files ---------------------------------------------------------------


def read_graph(path) -> Graph:
    """Edge-list text: 'n m' header, then one edge per line 'i j [w]'
    (1-based, weight defaults to 1)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()
    lines = []
    for lineno, line in enumerate(raw_lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((lineno, stripped))
    if not lines:
        raise FormatError("empty graph file", path)
    head = lines[0][1].split()
    if len(head) != 2:
        raise FormatError("expected 'n m' header", path, lines[0][0])
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("expected 'n m' header", path, lines[0][0]) from None
    if len(lines) - 1 != m:
        raise FormatError(f"header declares {m} edges but file has {len(lines) - 1}", path, lines[0][0])
    edges = []
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) not in (2, 3):
            raise FormatError(f"expected 'i j [w]', got {line!r}", path, lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise FormatError(f"expected 'i j [w]', got {line!r}", path, lineno) from None
        edges.append((i - 1, j - 1, w))
    return Graph.build(n, edges)


# -- solution and warm-start files ---------------------------------------------
#
# Both hold an iterate in one section grammar: `blocks q`, then per block a
# header `<tag> b rows cols` and its rows, then `ya length` and `yb length`,
# each followed by one line of values. A solution may end with the sections
# `Z b n` of the dual slack. Blocks come in order; nothing may follow the
# last section.

_REPORT_KEYS = ("pinf", "gap", "dinf", "compl", "compl_star")


def _words(values, extended: bool) -> np.ndarray:
    """The binary64 words of an array: one per value, or hi then lo per value when extended."""
    values = np.asarray(values)
    if not extended:
        return to_float_array(values)
    pairs = [(d.hi, d.lo) for d in map(DOUBLE_DOUBLE.coerce_scalar, values.reshape(-1))]
    return np.array(pairs, dtype=np.float64).reshape(values.shape[:-1] + (2 * values.shape[-1],))


def _section(lines, header: str, rows, extended: bool = False) -> None:
    """A header line, then one line of words per nonempty row (a vector is one row)."""
    lines.append(header)
    lines.extend(" ".join(map(repr, row)) for row in np.atleast_2d(_words(rows, extended)).tolist() if row)


def _write_iterate(lines, tag: str, blocks, y_a, y_b, extended: bool = False) -> None:
    lines.append(f"blocks {len(blocks)}")
    for b, V in enumerate(blocks):
        _section(lines, f"{tag} {b + 1} {V.shape[0]} {V.shape[1]}", V, extended)
    _section(lines, f"ya {len(y_a)}", y_a, extended)
    _section(lines, f"yb {len(y_b)}", y_b, extended)


def _read_iterate(toks: _Tokens, tag: str, kind: ScalarKind):
    """(blocks, y_a, y_b) as _write_iterate writes them."""
    toks.expect("blocks")
    blocks = [toks.matrix(tag, b, kind) for b in range(toks.next_count("block count"))]
    return blocks, toks.vector("ya", kind), toks.vector("yb", kind)


def write_solution(sol: Solution, path, include_z: bool = True) -> None:
    lines = ["# sdpmix solution", f"status {sol.status}", f"iterations {sol.iterations}", f"elapsed {sol.elapsed!r}"]
    lines.append(f"objective {float(sol.objective)!r}")
    rep = sol.report.as_dict() if sol.report is not None else {}
    for key in _REPORT_KEYS:
        val = rep.get(key)
        lines.append(f"{key} {'none' if val is None else repr(val)}")
    _write_iterate(lines, "factor", sol.factor, sol.y_a, sol.y_b)
    if include_z and sol.Z is not None:
        for b, Z in enumerate(sol.Z):
            _section(lines, f"Z {b + 1} {len(Z)}", Z)
    _write_lines(path, lines)


def read_solution(path) -> Solution:
    with open(path, "r", encoding="utf-8") as fh:
        toks = _Tokens(fh.read(), path=path)
    toks.expect("status")
    status = toks.next("status value")
    toks.expect("iterations")
    iterations = toks.next_int("iterations")
    toks.expect("elapsed")
    elapsed = toks.next_float("elapsed")
    toks.expect("objective")
    objective = toks.next_float("objective")
    rep = {}
    for key in _REPORT_KEYS:
        toks.expect(key)
        rep[key] = toks.next_float(key, allow_none=True)
    factor, y_a, y_b = _read_iterate(toks, "factor", DOUBLE)
    Z = None if toks.exhausted else [toks.matrix("Z", b, DOUBLE, square=True) for b in range(len(factor))]
    toks.finish()
    return Solution(
        factor=factor,
        y_a=y_a,
        y_b=y_b,
        Z=Z,
        status=status,
        report=None if rep["pinf"] is None else ErrorReport(**rep),
        iterations=iterations,
        elapsed=elapsed,
        objective=objective,
    )


def write_warmstart(warm: WarmStart, path) -> None:
    ext = warm.kind.is_extended
    mu = " ".join(map(repr, _words([warm.mu], ext).tolist()))
    lines = ["# sdpmix warmstart", f"kind {warm.kind.name}", f"mu {mu}"]
    _write_iterate(lines, "V", warm.V_blocks, warm.y_a, warm.y_b, ext)
    _write_lines(path, lines)


def read_warmstart(path) -> WarmStart:
    with open(path, "r", encoding="utf-8") as fh:
        toks = _Tokens(fh.read(), path=path)
    toks.expect("kind")
    try:
        kind = kind_by_name(toks.next("scalar kind"))
    except ValueError as exc:
        raise FormatError(str(exc), path, toks.last_line) from None
    toks.expect("mu")
    (mu,) = toks.scalars(1, kind).tolist()
    V_blocks, y_a, y_b = _read_iterate(toks, "V", kind)
    toks.finish()
    return WarmStart(V_blocks, y_a, y_b, mu)
