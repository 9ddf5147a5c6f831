"""File formats.

Native problem format (UTF-8, line oriented; a comment is a whole line whose
first nonblank character is '#'):

    q                      number of blocks
    n_1 ... n_q            block orders
    m ineq_start           constraint count, 1-based first inequality index
    r_1 ... r_m            right-hand side (may span lines)
    cons block row col value
    ...                    exactly one entry per line; cons 0 is the cost matrix,
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

import warnings
from itertools import compress

import numpy as np

from .ddouble import DOUBLE, DOUBLE_DOUBLE, DDArray, ScalarKind, kind_by_name, to_float_array
from .errors import FormatError
from .instances import Graph
from .problem import SdpProblem, validate
from .solver import ErrorReport, Solution, WarmStart


_PUNCT = str.maketrans("{}(),", "     ")
_ENTRY = np.dtype("i8,i8,i8,i8,f8")  # an entry line: four indices and a value


class _Tokens:
    """The whitespace tokens of a file, each line split only when a token of
    it is asked for; remembers line numbers for error messages.

    A comment is a whole line whose first nonblank character is one of
    `comment_chars`; `strip_punct` reads the characters {}(), as blanks.
    """

    def __init__(self, path, comment_chars="#", strip_punct=False):
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.path, self.comment_chars, self.strip_punct = path, comment_chars, strip_punct
        self.pos = 0  # lines read
        self.tokens, self.col, self.line = [], 0, 0  # the tokens of line `line`; the next one is at `col`
        self.last_line = 0

    def _text(self, line: str):
        """The text of a line to split, or None for a blank or comment line."""
        text = line.strip()
        if not text or text[0] in self.comment_chars:
            return None
        if self.strip_punct:
            text = text.translate(_PUNCT).strip()
        return text or None

    def more(self) -> bool:
        """Whether a token is left, reading lines until one is."""
        while self.col >= len(self.tokens):
            if self.pos >= len(self.lines):
                return False
            self.pos += 1
            text = self._text(self.lines[self.pos - 1])
            self.tokens, self.col, self.line = text.split() if text else [], 0, self.pos
        return True

    def next(self, what: str) -> str:
        if not self.more():
            raise FormatError(f"unexpected end of file, expected {what}", self.path, self.last_line or None)
        self.col += 1
        self.last_line = self.line
        return self.tokens[self.col - 1]

    def _convert(self, tok: str, what: str, convert):
        """`convert(tok)` for int or float: the one conversion of a token that
        names it. A token that does not convert or an int beyond int64 is a
        FormatError at `last_line`."""
        try:
            value = convert(tok)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            raise FormatError(f"expected {what} ({kind}), got {tok!r}", self.path, self.last_line) from None
        if convert is int and not -(2**63) <= value < 2**63:
            raise FormatError(f"{what} {tok} too large", self.path, self.last_line)
        return value

    def next_int(self, what: str) -> int:
        return self._convert(self.next(what), what, int)

    def next_float(self, what: str, allow_none: bool = False):
        tok = self.next(what)
        if allow_none and tok == "none":
            return None
        return self._convert(tok, what, float)

    def next_count(self, what: str) -> int:
        count = self.next_int(what)
        if count < 0:
            raise FormatError(f"{what} must be nonnegative, got {count}", self.path, self.last_line)
        return count

    def rest(self):
        """The remaining nonblank, noncomment lines as texts, and their line
        numbers; a line partly read comes whole."""
        start = self.pos - (self.col < len(self.tokens))
        stripped = list(map(str.strip, self.lines[start:]))
        comment = self.comment_chars
        keep = [text[:1] not in comment for text in stripped]  # '' is in every string: blank lines go too
        texts = list(compress(stripped, keep))
        numbers = list(compress(range(start + 1, len(self.lines) + 1), keep))
        if self.strip_punct:
            texts = [text.translate(_PUNCT).strip() for text in texts]
            numbers = list(compress(numbers, texts))
            texts = list(filter(None, texts))
        self.pos, self.col = len(self.lines), len(self.tokens)
        return texts, numbers

    # -- sections of solution and warm-start files

    def expect(self, name: str) -> None:
        tag = self.next(repr(name))
        if tag != name:
            raise FormatError(f"expected {name!r}, got {tag!r}", self.path, self.last_line)

    def scalars(self, count: int, kind: ScalarKind, what: str = "value") -> np.ndarray:
        """The next `count` values of `kind`, each a hi/lo token pair at
        double-double; they may span lines."""
        need = (2 if kind.is_extended else 1) * count
        words = []
        while len(words) < need and self.more():
            take = self.tokens[self.col : self.col + need - len(words)]
            self.col += len(take)
            self.last_line = self.line
            try:
                words += [float(tok) for tok in take]
            except ValueError:
                words += [self._convert(tok, what, float) for tok in take]  # raises at the bad token
        if len(words) < need:
            self.next(what)  # raises: the file ends inside the section
        if not kind.is_extended:
            return np.array(words, dtype=np.float64)
        return DDArray(np.array(words[::2], dtype=np.float64), np.array(words[1::2], dtype=np.float64))

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
        """The remaining lines as entry lines, one per line, of four integers
        (`names`) and a value: the four int64 columns, the values and each
        line's number."""
        texts, numbers = self.rest()
        try:
            if not texts:
                raise ValueError  # np.loadtxt warns on empty input
            with warnings.catch_warnings():
                # older numpy reads an int field such as '2.7' through a float and
                # only warns; make that fail, whatever the caller's filters
                warnings.simplefilter("error", DeprecationWarning)
                columns = np.loadtxt(texts, dtype=_ENTRY, comments=None, unpack=True, ndmin=1)
        except (ValueError, DeprecationWarning):  # the walk names the bad line, or converts what np.loadtxt does not
            fields = [(what, int) for what in names] + [("value", float)]
            flat = []
            for text, line in zip(texts, numbers):
                self.last_line = line
                tokens = text.split()
                if len(tokens) != len(fields):
                    raise FormatError(f"expected {len(fields)} fields, got {len(tokens)}", self.path, self.last_line)
                flat += [self._convert(tok, what, convert) for tok, (what, convert) in zip(tokens, fields)]
            columns = [np.array(flat[k :: len(fields)], dtype=_ENTRY[k]) for k in range(len(fields))]
        return (*columns, np.array(numbers, dtype=np.int64))

    def finish(self) -> None:
        """Reject any token after the last section."""
        if self.more():
            raise FormatError(f"unexpected {self.tokens[self.col]!r} after the last section", self.path, self.line)


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
    toks = _Tokens(path)
    q = toks.next_int("block count")
    if q < 1:
        raise FormatError(f"block count must be positive, got {q}", path, toks.last_line)
    sizes = [toks.next_int(f"size of block {b + 1}") for b in range(q)]
    m = toks.next_count("constraint count")
    ineq_start = toks.next_int("ineq_start")
    rhs = toks.scalars(m, DOUBLE, "rhs entry")

    cons, block, row, col, val, lines = toks.entry_lines(("constraint index", "block index", "row", "column"))
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
    toks = _Tokens(path, comment_chars='*"', strip_punct=True)
    m = toks.next_int("constraint count")
    if m < 0:
        raise FormatError(f"malformed header: negative constraint count {m}", path, toks.last_line)
    nblocks = toks.next_int("block count")
    if nblocks < 1:
        raise FormatError(f"malformed header: block count {nblocks}", path, toks.last_line)
    raw_sizes = [toks.next_int(f"size of block {b + 1}") for b in range(nblocks)]
    if 0 in raw_sizes:
        raise FormatError("malformed header: zero block size", path, toks.last_line)
    rhs = toks.scalars(m, DOUBLE, "rhs entry")

    # a diagonal (negative-size) block expands into 1x1 blocks
    raw = np.array(raw_sizes)
    offsets = np.concatenate([[0], np.cumsum(np.where(raw < 0, -raw, 1))])
    sizes = np.ones(offsets[-1], dtype=np.int64)
    sizes[offsets[:-1][raw > 0]] = raw[raw > 0]

    matno, blkno, i, j, val, lines = toks.entry_lines(("matrix index", "block index", "row", "column"))
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
    texts, numbers = _Tokens(path).rest()
    if not texts:
        raise FormatError("empty graph file", path)
    try:
        n, m = map(int, texts[0].split())
    except ValueError:
        raise FormatError("expected 'n m' header", path, numbers[0]) from None
    if len(texts) - 1 != m:
        raise FormatError(f"header declares {m} edges but file has {len(texts) - 1}", path, numbers[0])
    edges = []
    for text, line in zip(texts[1:], numbers[1:]):
        parts = text.split()
        try:
            if len(parts) not in (2, 3):
                raise ValueError
            edges.append((int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2]) if len(parts) == 3 else 1.0))
        except ValueError:
            raise FormatError(f"expected 'i j [w]', got {text!r}", path, line) from None
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
    if not extended:
        return to_float_array(values)
    dd = DOUBLE_DOUBLE.asarray(values)
    return np.stack([dd.hi, dd.lo], axis=-1).reshape(dd.shape[:-1] + (2 * dd.shape[-1],))


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
    toks = _Tokens(path)
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
    Z = [toks.matrix("Z", b, DOUBLE, square=True) for b in range(len(factor))] if toks.more() else None
    toks.finish()
    report = None if rep["pinf"] is None else ErrorReport(**rep)
    return Solution(factor, y_a, y_b, Z=Z, status=status, report=report,
                    iterations=iterations, elapsed=elapsed, objective=objective)


def write_warmstart(warm: WarmStart, path) -> None:
    ext = warm.kind.is_extended
    mu = warm.kind.coerce_scalar(warm.mu)
    mu_words = f"{float(mu.hi)!r} {float(mu.lo)!r}" if ext else repr(mu)
    lines = ["# sdpmix warmstart", f"kind {warm.kind.name}", f"mu {mu_words}"]
    _write_iterate(lines, "V", warm.V_blocks, warm.y_a, warm.y_b, ext)
    _write_lines(path, lines)


def read_warmstart(path) -> WarmStart:
    toks = _Tokens(path)
    toks.expect("kind")
    try:
        kind = kind_by_name(toks.next("scalar kind"))
    except ValueError as exc:
        raise FormatError(str(exc), path, toks.last_line) from None
    toks.expect("mu")
    mu = kind.coerce_scalar(toks.scalars(1, kind)[0])
    V_blocks, y_a, y_b = _read_iterate(toks, "V", kind)
    toks.finish()
    return WarmStart(V_blocks, y_a, y_b, mu)
