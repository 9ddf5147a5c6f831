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

Solution and warm-start files are sectioned key/value text; numbers are
written with repr so binary64 values round-trip exactly (warm-start files
store double-double values as hi/lo pairs, also exact).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .ddouble import DDouble, ScalarKind, kind_by_name, to_float_array
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

    def next_float(self, what: str) -> float:
        tok = self.next(what)
        try:
            return float(tok)
        except ValueError:
            raise FormatError(f"expected {what} (a number), got {tok!r}", self.path, self.last_line) from None

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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


# -- solution files --------------------------------------------------------------


def _write_vector(lines, name, vec):
    lines.append(f"{name} {len(vec)}")
    if len(vec):
        lines.append(" ".join(repr(float(x)) for x in to_float_array(vec)))


def _read_vector(toks, name):
    tag = toks.next("section name")
    if tag != name:
        raise FormatError(f"expected section {name!r}, got {tag!r}", toks.path, toks.last_line)
    count = toks.next_int(f"{name} length")
    return np.array([toks.next_float(f"{name}[{t}]") for t in range(count)], dtype=np.float64)


def write_solution(sol: Solution, path, include_z: bool = True) -> None:
    lines = ["# sdpmix solution"]
    lines.append(f"status {sol.status}")
    lines.append(f"iterations {sol.iterations}")
    lines.append(f"elapsed {sol.elapsed!r}")
    lines.append(f"objective {float(sol.objective)!r}")
    rep = sol.report.as_dict() if sol.report is not None else {}
    for key in ("pinf", "gap", "dinf", "compl", "compl_star"):
        val = rep.get(key)
        lines.append(f"{key} {'none' if val is None else repr(val)}")
    lines.append(f"blocks {len(sol.factor)}")
    for b, F in enumerate(sol.factor):
        F64 = to_float_array(F)
        lines.append(f"factor {b + 1} {F64.shape[0]} {F64.shape[1]}")
        for r in range(F64.shape[0]):
            lines.append(" ".join(repr(v) for v in F64[r].tolist()))
    _write_vector(lines, "ya", sol.y_a)
    _write_vector(lines, "yb", sol.y_b)
    if include_z and sol.Z is not None:
        for b, Z in enumerate(sol.Z):
            Z64 = to_float_array(Z)
            lines.append(f"Z {b + 1} {Z64.shape[0]}")
            for r in range(Z64.shape[0]):
                lines.append(" ".join(repr(v) for v in Z64[r].tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_solution(path) -> Solution:
    with open(path, "r", encoding="utf-8") as fh:
        toks = _Tokens(fh.read(), path=path)

    def expect(name):
        tag = toks.next("key")
        if tag != name:
            raise FormatError(f"expected {name!r}, got {tag!r}", path, toks.last_line)

    expect("status")
    status = toks.next("status value")
    expect("iterations")
    iterations = toks.next_int("iterations")
    expect("elapsed")
    elapsed = toks.next_float("elapsed")
    expect("objective")
    objective = toks.next_float("objective")
    rep = {}
    for key in ("pinf", "gap", "dinf", "compl", "compl_star"):
        expect(key)
        tok = toks.next(key)
        rep[key] = None if tok == "none" else float(tok)
    expect("blocks")
    q = toks.next_int("block count")
    factor = []
    for b in range(q):
        expect("factor")
        idx = toks.next_int("factor block index")
        k = toks.next_int("factor rows")
        n = toks.next_int("factor cols")
        if idx != b + 1:
            raise FormatError(f"factor blocks out of order: got {idx}, expected {b + 1}", path, toks.last_line)
        F = np.array([[toks.next_float("factor entry") for _ in range(n)] for _ in range(k)])
        factor.append(F.reshape(k, n))
    y_a = _read_vector(toks, "ya")
    y_b = _read_vector(toks, "yb")
    Z = None
    if not toks.exhausted:
        Z = []
        for b in range(q):
            tag = toks.next("section name")
            if tag != "Z":
                raise FormatError(f"expected 'Z', got {tag!r}", path, toks.last_line)
            idx = toks.next_int("Z block index")
            n = toks.next_int("Z order")
            if idx != b + 1:
                raise FormatError(f"Z blocks out of order: got {idx}, expected {b + 1}", path, toks.last_line)
            Z.append(np.array([[toks.next_float("Z entry") for _ in range(n)] for _ in range(n)]).reshape(n, n))
    report = None
    if rep["pinf"] is not None:
        report = ErrorReport(
            pinf=rep["pinf"], gap=rep["gap"], compl_star=rep["compl_star"], dinf=rep["dinf"], compl=rep["compl"]
        )
    return Solution(
        X=[F.T @ F for F in factor],
        factor=factor,
        y_a=y_a,
        y_b=y_b,
        Z=Z,
        status=status,
        report=report,
        iterations=iterations,
        elapsed=elapsed,
        objective=objective,
    )


# -- warm-start files ------------------------------------------------------------


def _scalar_tokens(x, extended: bool) -> str:
    if extended:
        d = x if isinstance(x, DDouble) else DDouble.from_float(float(x))
        return f"{d.hi!r} {d.lo!r}"
    return repr(float(x))


def _next_scalar(toks, kind: ScalarKind, what: str):
    hi = toks.next_float(what)
    if kind.is_extended:
        lo = toks.next_float(what + " (low word)")
        return DDouble(hi, lo)
    return hi


def write_warmstart(warm: WarmStart, path) -> None:
    kind = warm.kind
    ext = kind.is_extended
    lines = ["# sdpmix warmstart", f"kind {kind.name}", f"mu {_scalar_tokens(warm.mu, ext)}"]
    lines.append(f"blocks {len(warm.V_blocks)}")
    for b, V in enumerate(warm.V_blocks):
        lines.append(f"V {b + 1} {V.shape[0]} {V.shape[1]}")
        for r in range(V.shape[0]):
            lines.append(" ".join(_scalar_tokens(x, ext) for x in V[r].tolist()))
    for name, vec in (("ya", warm.y_a), ("yb", warm.y_b)):
        lines.append(f"{name} {len(vec)}")
        if len(vec):
            lines.append(" ".join(_scalar_tokens(x, ext) for x in vec.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_warmstart(path) -> WarmStart:
    with open(path, "r", encoding="utf-8") as fh:
        toks = _Tokens(fh.read(), path=path)

    def expect(name):
        tag = toks.next("key")
        if tag != name:
            raise FormatError(f"expected {name!r}, got {tag!r}", path, toks.last_line)

    expect("kind")
    try:
        kind = kind_by_name(toks.next("scalar kind"))
    except ValueError as exc:
        raise FormatError(str(exc), path, toks.last_line) from None
    expect("mu")
    mu = _next_scalar(toks, kind, "mu")
    expect("blocks")
    q = toks.next_int("block count")
    V_blocks = []
    for b in range(q):
        expect("V")
        toks.next_int("V block index")
        k = toks.next_int("V rows")
        n = toks.next_int("V cols")
        V = kind.zeros((k, n))
        for r in range(k):
            for c in range(n):
                V[r, c] = _next_scalar(toks, kind, "V entry")
        V_blocks.append(V)
    vecs = {}
    for name in ("ya", "yb"):
        expect(name)
        count = toks.next_int(f"{name} length")
        vec = kind.zeros(count)
        for t in range(count):
            vec[t] = _next_scalar(toks, kind, f"{name}[{t}]")
        vecs[name] = vec
    return WarmStart(V_blocks, vecs["ya"], vecs["yb"], mu)
