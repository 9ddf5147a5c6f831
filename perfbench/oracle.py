"""Independent correctness gate: KKT errors recomputed without sdpmix.

Reads the native problem file and the solution with its own parsers and
recomputes the four normalized measures the solver reports:

    pinf  = max(|a - A(X)|_inf, |max(b - B(X), 0)|_inf) / (1 + max(|a|_inf, |b|_inf))
    gap   = |<C,X> - a.y_a - b.y_b| / (1 + |<C,X>| + |a.y_a + b.y_b|)
    dinf  = |S - Z|_F / (1 + |C|_F),  S = C - sum_j y_j A_j,  Z = PSD part of S
    compl = |<X, Z>| / (1 + |<C,X>| + |a.y_a + b.y_b|)

with X = F^T F from the stored factor F. Binary64 solutions are checked in
dense numpy with np.linalg.eigh; double-double solutions in mpmath at 50
digits. Max-Cut bounds are compared with the brute-force maximum cut.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MP_DIGITS = 50


def read_problem(path):
    """Native .sdp file -> (sizes, ineq_start, rhs, entries) with 0-based entries."""
    tokens = []
    for line in Path(path).read_text().splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    pos = 0

    def take(n):
        nonlocal pos
        out = tokens[pos:pos + n]
        pos += n
        return out

    q = int(take(1)[0])
    sizes = [int(t) for t in take(q)]
    m, ineq_start = (int(t) for t in take(2))
    rhs = [float(t) for t in take(m)]
    rest = tokens[pos:]
    entries = [(int(rest[t]), int(rest[t + 1]) - 1, int(rest[t + 2]) - 1, int(rest[t + 3]) - 1, float(rest[t + 4]))
               for t in range(0, len(rest), 5)]
    return sizes, ineq_start, rhs, entries


def read_solution_file(path):
    """Status, objective, factor blocks and duals of a solution file."""
    tokens = []
    for line in Path(path).read_text().splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    it = iter(tokens)
    fields = {}
    while True:
        key = next(it)
        if key == "blocks":
            break
        fields[key] = next(it)

    def expect(tag):
        got = next(it)
        if got != tag:
            raise ValueError(f"{path}: expected {tag!r}, found {got!r}")

    factor = []
    for _ in range(int(next(it))):
        expect("factor")
        _, k, n = int(next(it)), int(next(it)), int(next(it))
        factor.append(np.array([float(next(it)) for _ in range(k * n)]).reshape(k, n))
    duals = {}
    for name in ("ya", "yb"):
        expect(name)
        duals[name] = np.array([float(next(it)) for _ in range(int(next(it)))])
    return fields["status"], float(fields["objective"]), factor, duals["ya"], duals["yb"]


def kkt_numpy(problem, factor, y_a, y_b) -> dict:
    sizes, ineq_start, rhs, entries = problem
    m = len(rhs)
    C = [np.zeros((n, n)) for n in sizes]
    A = [np.zeros((m, n, n)) for n in sizes]
    for cons, b, r, c, v in entries:
        M = C[b] if cons == 0 else A[b][cons - 1]
        M[r, c] = M[c, r] = v
    X = [F.T @ F for F in factor]
    vals = sum(np.tensordot(A[b], X[b], axes=([1, 2], [0, 1])) for b in range(len(sizes)))
    pobj = sum(float(np.sum(C[b] * X[b])) for b in range(len(sizes)))
    m_eq = ineq_start - 1
    rhs = np.array(rhs)
    a, bvec = rhs[:m_eq], rhs[m_eq:]
    y = np.concatenate([y_a, y_b])
    r = a - vals[:m_eq]
    s = np.maximum(bvec - vals[m_eq:], 0.0)
    inf = lambda v: float(np.max(np.abs(v))) if len(v) else 0.0  # noqa: E731
    pinf = max(inf(r), inf(s)) / (1.0 + max(inf(a), inf(bvec)))
    dobj = float(a @ y_a + bvec @ y_b)
    denom = 1.0 + abs(pobj) + abs(dobj)
    resid_sq = cost_sq = xz = 0.0
    for b in range(len(sizes)):
        S = C[b] - np.tensordot(y, A[b], axes=1)
        w, U = np.linalg.eigh(S)
        Z = (U * np.maximum(w, 0.0)) @ U.T
        resid_sq += float(np.sum((S - Z) ** 2))
        cost_sq += float(np.sum(C[b] ** 2))
        xz += float(np.sum(X[b] * Z))
    return {"pinf": pinf, "gap": abs(pobj - dobj) / denom, "dinf": resid_sq ** 0.5 / (1.0 + cost_sq ** 0.5),
            "compl": abs(xz) / denom, "pobj": pobj, "y_b_min": float(np.min(y_b)) if len(y_b) else 0.0}


def kkt_mpmath(problem, factor, y_a, y_b) -> dict:
    """Same measures in mpmath; factor and duals are lists of exact mpf values."""
    import mpmath as mp

    mp.mp.dps = MP_DIGITS
    sizes, ineq_start, rhs, entries = problem
    m = len(rhs)
    C = [mp.zeros(n, n) for n in sizes]
    A = [[mp.zeros(n, n) for _ in range(m)] for n in sizes]
    for cons, b, r, c, v in entries:
        M = C[b] if cons == 0 else A[b][cons - 1]
        M[r, c] = M[c, r] = mp.mpf(v)
    X = [F.T * F for F in factor]

    def inner(P, Q):
        return mp.fsum(P[i, j] * Q[i, j] for i in range(P.rows) for j in range(P.cols))

    vals = [mp.fsum(inner(A[b][j], X[b]) for b in range(len(sizes))) for j in range(m)]
    pobj = mp.fsum(inner(C[b], X[b]) for b in range(len(sizes)))
    m_eq = ineq_start - 1
    rhs = [mp.mpf(v) for v in rhs]
    y = list(y_a) + list(y_b)
    r = [rhs[j] - vals[j] for j in range(m_eq)]
    s = [max(rhs[j] - vals[j], 0) for j in range(m_eq, m)]
    inf = lambda v: max((abs(t) for t in v), default=mp.mpf(0))  # noqa: E731
    pinf = max(inf(r), inf(s)) / (1 + max(inf(rhs[:m_eq]), inf(rhs[m_eq:])))
    dobj = mp.fsum(rhs[j] * y[j] for j in range(m))
    denom = 1 + abs(pobj) + abs(dobj)
    resid_sq = cost_sq = xz = mp.mpf(0)
    for b, n in enumerate(sizes):
        S = C[b] - sum((y[j] * A[b][j] for j in range(m)), mp.zeros(n, n))
        w, U = mp.eigsy(S)
        Z = U * mp.diag([max(w[i], 0) for i in range(n)]) * U.T
        resid_sq += inner(S - Z, S - Z)
        cost_sq += inner(C[b], C[b])
        xz += inner(X[b], Z)
    return {"pinf": float(pinf), "gap": float(abs(pobj - dobj) / denom),
            "dinf": float(mp.sqrt(resid_sq) / (1 + mp.sqrt(cost_sq))), "compl": float(abs(xz) / denom),
            "pobj": pobj, "y_b_min": float(min(y_b, default=0))}


def read_exact(path):
    """The (hi, lo) dump the worker writes -> factor matrices and duals as mpf."""
    import mpmath as mp

    mp.mp.dps = MP_DIGITS
    data = json.loads(Path(path).read_text())

    def mpf_list(pair):
        hi, lo = np.ravel(pair["hi"]), np.ravel(pair["lo"])
        return [mp.mpf(h) + mp.mpf(l) for h, l in zip(hi.tolist(), lo.tolist())]

    factor = []
    for pair in data["factor"]:
        k, n = np.shape(pair["hi"])
        vals = mpf_list(pair)
        factor.append(mp.matrix([[vals[i * n + j] for j in range(n)] for i in range(k)]))
    return data["status"], mpf_list(data["objective"])[0], factor, mpf_list(data["y_a"]), mpf_list(data["y_b"])


def max_cut(graph_path) -> tuple:
    """(total weight, brute-force maximum cut) of a graph file."""
    head, *lines = [ln.split() for ln in Path(graph_path).read_text().splitlines() if ln.strip()]
    n = int(head[0])
    I = np.array([int(e[0]) - 1 for e in lines])
    J = np.array([int(e[1]) - 1 for e in lines])
    W = np.array([float(e[2]) if len(e) > 2 else 1.0 for e in lines])
    # bit v of the cut index is vertex v's side; vertex n-1 stays on side 0
    side = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n)) & 1
    cuts = (side[:, I] != side[:, J]) @ W
    return float(W.sum()), float(cuts.max())


def gate(workload, problem_path, solution_path, exact_path, graph_path=None) -> dict:
    """Recompute the errors; `ok` needs status tol and every error below the gate."""
    problem = read_problem(problem_path)
    if workload.precision == "dd":
        status, objective, factor, y_a, y_b = read_exact(exact_path)
        errors = kkt_mpmath(problem, factor, y_a, y_b)
    else:
        status, objective, factor, y_a, y_b = read_solution_file(solution_path)
        errors = kkt_numpy(problem, factor, y_a, y_b)
    worst = max(errors[k] for k in ("pinf", "gap", "dinf", "compl"))
    report = {"status": status, "max_error": worst, "limit": workload.gate,
              **{k: errors[k] for k in ("pinf", "gap", "dinf", "compl")}}
    ok = status == "tol" and worst < workload.gate and errors["y_b_min"] >= 0.0
    # the objective the program reports must be the one its X attains
    ok = ok and abs(objective - errors["pobj"]) <= workload.gate * (1.0 + abs(errors["pobj"]))
    if graph_path is not None:
        total, best = max_cut(graph_path)
        bound = total / 2.0 - objective  # maximize <L/4, X>: the solver minimized its negation
        report.update(maxcut_bound=bound, maxcut_brute_force=best)
        ok = ok and bound >= best - workload.gate * (1.0 + best)
    report["ok"] = bool(ok)
    return report
