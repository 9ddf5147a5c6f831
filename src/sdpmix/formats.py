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
from .problem import SdpProblem, validate
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

    def scalars(self, count: int, kind: ScalarKind, what: str = "value") -> np.ndarray:
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
                self.next_float(what)  # raises at the first token that is missing or not a number
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

    def entry_lines(self, names):
        """The remaining tokens as entry lines of four integers (`names`)
        and a value, converted in one pass: the four int64 columns, the
        values and each line's number."""
        rest = self.items[self.pos :]
        try:
            if len(rest) % 5:
                raise ValueError
            ints = [np.array([int(tok) for tok, _ in rest[k::5]], dtype=np.int64) for k in range(4)]
            vals = np.array([float(tok) for tok, _ in rest[4::5]], dtype=np.float64)
        except (ValueError, OverflowError):
            while not self.exhausted:  # raises at the first token that is missing or not a number
                for what in names:
                    self.next_int(what)
                self.next_float("value")
            raise FormatError("entry index too large", self.path) from None
        self.pos = len(self.items)
        return ints, vals, np.array([line for _, line in rest[4::5]], dtype=np.int64)

    def finish(self) -> None:
        """Reject any token after the last section."""
        if not self.exhausted:
            tok, line = self.items[self.pos]
            raise FormatError(f"unexpected {tok!r} after the last section", self.path, line)


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# -- native problem format ----------------------------------------------------


def _reject(path, lines, checks) -> None:
    """Raise FormatError at the first entry line that fails a check; checks
    are (mask of failing entries, message of failing entry t) pairs."""
    bad = np.zeros(len(lines), dtype=bool)
    for mask, _ in checks:
        bad |= mask
    if bad.any():
        t = int(np.argmax(bad))
        raise FormatError(next(message(t) for mask, message in checks if mask[t]), path, int(lines[t]))


def _problem(sizes, rhs, ineq_start, cons, block, row, col, val) -> SdpProblem:
    """The validated problem of 0-based entry columns whose constraint 0 is the cost."""
    m = len(rhs)
    problem = SdpProblem.from_entries(sizes, rhs, ineq_start, np.where(cons == 0, m, cons - 1), block, row, col, val)
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
    rhs = toks.scalars(m, DOUBLE, "rhs entry")

    (cons, block, row, col), val, lines = toks.entry_lines(("constraint index", "block index", "row", "column"))
    n = np.array(sizes)[np.clip(block, 1, q) - 1]
    _reject(path, lines, (
        ((cons < 0) | (cons > m), lambda t: f"constraint index {cons[t]} out of range 0..{m}"),
        ((block < 1) | (block > q), lambda t: f"block index {block[t]} out of range 1..{q}"),
        ((row < 1) | (row > n) | (col < 1) | (col > n),
         lambda t: f"entry ({row[t]},{col[t]}) out of range for block of order {n[t]}"),
    ))
    return _problem(sizes, rhs, ineq_start, cons, block - 1, row - 1, col - 1, val)


def write_native(problem: SdpProblem, path) -> None:
    """One entry line per table entry: the costs first (constraint 0), then
    the constraints, each block by block in (row, col) order."""
    lines = ["# sdpmix problem"]
    lines.append(str(problem.q))
    lines.append(" ".join(str(n) for n in problem.block_sizes))
    lines.append(f"{problem.m} {problem.ineq_start}")
    lines.append(" ".join(map(repr, to_float_array(problem.rhs).tolist())))

    con, row, col, val = (np.concatenate(column) for column in zip(*problem.entries))
    block = np.repeat(np.arange(1, problem.q + 1), [len(c) for c, *_ in problem.entries])
    cons = (con + 1) % (problem.m + 1)
    order = np.lexsort((block, cons))  # stable: each matrix keeps its (row, col) order
    columns = (cons[order], block[order], row[order] + 1, col[order] + 1)
    lines.extend(f"{j} {b} {r} {c} {v!r}" for j, b, r, c, v in
                 zip(*(a.tolist() for a in columns), to_float_array(val)[order].tolist()))
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
    rhs = toks.scalars(m, DOUBLE, "rhs entry")

    # a diagonal (negative-size) block expands into 1x1 blocks
    raw = np.array(raw_sizes)
    offsets = np.concatenate([[0], np.cumsum(np.where(raw < 0, -raw, 1))])
    sizes = np.ones(offsets[-1], dtype=np.int64)
    sizes[offsets[:-1][raw > 0]] = raw[raw > 0]

    (matno, blkno, i, j), val, lines = toks.entry_lines(("matrix index", "block index", "row", "column"))
    b = np.clip(blkno, 1, nblocks) - 1
    order, diagonal = np.abs(raw[b]), raw[b] < 0
    _reject(path, lines, (
        ((matno < 0) | (matno > m), lambda t: f"matrix index {matno[t]} out of range 0..{m}"),
        ((blkno < 1) | (blkno > nblocks), lambda t: f"block index {blkno[t]} out of range 1..{nblocks}"),
        ((i < 1) | (i > order) | (j < 1) | (j > order),
         lambda t: f"entry ({i[t]},{j[t]}) out of range for block of order {order[t]}"),
        (diagonal & (i != j), lambda t: f"off-diagonal entry ({i[t]},{j[t]}) in a diagonal block"),
    ))
    block = offsets[b] + np.where(diagonal, i - 1, 0)
    row, col = np.where(diagonal, 0, i - 1), np.where(diagonal, 0, j - 1)
    return _problem(sizes, rhs, m + 1, matno, block, row, col, val)


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
