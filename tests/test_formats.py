"""File format round trips and error reporting."""

import re
import warnings

import numpy as np
import pytest

from sdpmix.ddouble import DDArray, DOUBLE, DOUBLE_DOUBLE
from sdpmix.errors import FormatError, ValidationError
from sdpmix.formats import (
    parse_native,
    parse_problem,
    parse_sdpa,
    read_graph,
    read_solution,
    read_warmstart,
    write_native,
    write_solution,
    write_warmstart,
)
from sdpmix.precision import promote
from sdpmix.solver import SolverOptions, WarmStart, solve

from helpers import build_problem, dense_row, problem_equals, random_problem, words_equal


def reflowed(lines, rng):
    """The same native file with its rhs split over two lines and blank and
    comment lines (indented or not) between its lines."""
    rhs = lines[4].split()
    lines = lines[:4] + [" ".join(rhs[:1]), " ".join(rhs[1:])] + lines[5:]
    out = []
    for line in lines:
        out.append(line)
        out.extend(rng.choice(["", "   ", "# note", "  \t# 1 1 1 1 1.0"], size=rng.integers(0, 2)).tolist())
    return out


def test_native_round_trip_100_random_problems(tmp_path):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        blocks = tuple(int(b) for b in rng.integers(1, 5, size=rng.integers(1, 4)))
        m_ineq = int(rng.integers(0, 3))
        m_eq = int(rng.integers(1, 4))
        p = random_problem(seed, block_sizes=blocks, m_eq=m_eq, m_ineq=m_ineq, density=0.5)
        path = tmp_path / f"p{seed}.sdp"
        write_native(p, path)
        q = parse_native(path)
        assert problem_equals(q, p), f"round trip failed for seed {seed}"
        path.write_text("\n".join(reflowed(path.read_text().splitlines(), rng)) + "\n")
        assert problem_equals(parse_native(path), p), f"reflowed file failed for seed {seed}"


def test_native_unconstrained_problem(tmp_path):
    p = build_problem((2,), [[(0, 1, 1.0)]], [], [], ineq_start=1)
    path = tmp_path / "empty.sdp"
    write_native(p, path)
    q = parse_native(path)
    assert problem_equals(q, p) and q.m == 0


def test_native_malformed_triplet_reports_line(tmp_path):
    path = tmp_path / "bad.sdp"
    path.write_text("1\n2\n1 2\n1.0\n1 1 1 x 5.0\n")
    with pytest.raises(FormatError, match=r"bad\.sdp:5"):
        parse_native(path)


def test_native_out_of_range_indices(tmp_path):
    path = tmp_path / "bad2.sdp"
    path.write_text("1\n2\n1 2\n1.0\n1 1 3 3 5.0\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_native(path)
    path.write_text("1\n2\n1 2\n1.0\n2 1 1 1 5.0\n")
    with pytest.raises(FormatError, match="constraint index"):
        parse_native(path)


def test_native_invariant_violation_via_validate(tmp_path):
    # duplicate entry is a data invariant, reported through validation
    path = tmp_path / "dup.sdp"
    path.write_text("1\n2\n1 2\n1.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n0 1 1 1 1.0\n")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_native(path)


def test_native_comments_and_mirrored_entries(tmp_path):
    path = tmp_path / "c.sdp"
    # the second file spells an index and a value in Python syntax that np.loadtxt rejects
    for entries in ("0 1 1 1 1.0\n1 1 3 1 0.5\n", "0 1 1 1 1.0\n1 1 0_3 1 0.500_0\n"):
        path.write_text("# header comment\n1\n3\n1 2\n2.5\n" + entries)
        p = parse_native(path)
        con, row, col, val = p.entries[0]
        assert con.tolist() == [0, 1] and row.tolist() == [0, 0] and col.tolist() == [2, 0]
        assert val.tolist() == [0.5, 1.0]


SDPA_MINIMAL = """\
* toy: min <I, X> s.t. trace(X) = 1
1
1
2
1.0
0 1 1 1 1.0
0 1 2 2 1.0
1 1 1 1 1.0
1 1 2 2 1.0
"""


def test_sdpa_minimal(tmp_path):
    path = tmp_path / "toy.dat-s"
    path.write_text(SDPA_MINIMAL)
    p = parse_sdpa(path)
    assert p.q == 1 and p.block_sizes == (2,) and p.m == 1 and p.ineq_start == 2
    assert float(p.rhs[0]) == 1.0
    assert dense_row(p, p.m, 0).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_sdpa_lp_block_expansion(tmp_path):
    content = "* comment\n  \" comment\n2\n2\n{2, -2}\n1.0 2.0\n0 1 1 2 0.5\n0 2 1 1 3.0\n1 1 1 1 1.0\n1 2 2 2 1.5\n2 1 2 2 1.0\n2 2 1 1 2.0\n"
    path = tmp_path / "lp.dat-s"
    path.write_text(content)
    p = parse_sdpa(path)
    assert p.block_sizes == (2, 1, 1)
    # diagonal block entry (1,1) landed in the first expanded 1x1 block
    assert float(dense_row(p, p.m, 1)[0, 0]) == 3.0
    assert float(dense_row(p, 1, 1)[0, 0]) == 2.0


def test_sdpa_offdiagonal_in_lp_block_rejected(tmp_path):
    path = tmp_path / "bad.dat-s"
    path.write_text("1\n1\n-2\n1.0\n1 1 1 2 1.0\n")
    with pytest.raises(FormatError, match="diagonal block"):
        parse_sdpa(path)


def test_sdpa_declared_constraints_without_data_rejected(tmp_path):
    # 3 constraints declared, matrices given only for 2 of them
    content = "3\n1\n2\n1.0 2.0 3.0\n1 1 1 1 1.0\n2 1 2 2 1.0\n"
    path = tmp_path / "missing.dat-s"
    path.write_text(content)
    with pytest.raises(ValidationError, match="touches no block"):
        parse_sdpa(path)


def test_sdpa_short_rhs_is_malformed(tmp_path):
    path = tmp_path / "short.dat-s"
    path.write_text("3\n1\n2\n1.0 2.0\n")
    with pytest.raises(FormatError):
        parse_sdpa(path)


def test_parse_problem_dispatch(tmp_path):
    path = tmp_path / "toy.dat-s"
    path.write_text(SDPA_MINIMAL)
    assert parse_problem(path).m == 1
    p = random_problem(0)
    native = tmp_path / "x.sdp"
    write_native(p, native)
    assert problem_equals(parse_problem(native), p)


def test_read_graph_weighted_and_default(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n4 3\n1 2 2.5\n2 3\n1 4 -1\n")
    g = read_graph(path)
    assert g.n == 4
    assert g.edges == ((0, 1, 2.5), (0, 3, -1.0), (1, 2, 1.0))


def test_read_graph_errors(tmp_path):
    for t, (text, line, message) in enumerate([
        ("3\n1 2\n", 1, "expected 'n m' header"),
        ("# c\n\n3 x\n1 2\n", 3, "expected 'n m' header"),
        ("3 2 1\n1 2\n", 1, "expected 'n m' header"),
        ("3 2\n1 2\n", 1, "header declares 2 edges but file has 1"),
        ("3 2\n1 2\n# c\n\n2\n", 5, "expected 'i j [w]', got '2'"),
        ("3 1\n 1 2 1.0 4 \n", 2, "expected 'i j [w]', got '1 2 1.0 4'"),
        ("3 2\n1 2\n2 x\n", 3, "expected 'i j [w]', got '2 x'"),
        ("3 1\n1 2 w\n", 2, "expected 'i j [w]', got '1 2 w'"),
        ("# only a comment\n\n", None, "empty graph file"),
    ]):
        path = tmp_path / f"bad{t}.txt"
        path.write_text(text)
        where = path if line is None else f"{path}:{line}"
        with pytest.raises(FormatError, match=re.escape(f"{where}: {message}")):
            read_graph(path)


NATIVE_HEAD = "1\n2\n1 2\n1.0\n"
SDPA_HEAD = '* c\n" c\n1\n2\n{2, -2}\n1.0\n'


PROBLEM_REJECTIONS = [
    ("four.sdp", NATIVE_HEAD + "0 1 1 1 1.0\n1 1 1 1\n", 6, "expected 5 fields, got 4"),
    ("six.sdp", NATIVE_HEAD + "1 1 1 1 1.0 2.0\n", 5, "expected 5 fields, got 6"),
    ("wrapped.sdp", NATIVE_HEAD + "1 1 1\n1 1.0\n", 5, "expected 5 fields, got 3"),
    ("rhs_line.sdp", "1\n2\n1 2\n1.0 1 1 1 1 1.0\n", 4, "expected 5 fields, got 6"),
    ("trailing.sdp", NATIVE_HEAD + "1 1 1 1 1.0 # note\n", 5, "expected 5 fields, got 7"),
    ("after_comments.sdp", NATIVE_HEAD + "0 1 1 1 1.0\n\n# c\n  # c\n\n1 1 x 1 1.0\n", 10,
     "expected row (an integer), got 'x'"),
    ("big.sdp", NATIVE_HEAD + "1 1 1 99999999999999999999 5.0\n", 5, "column 99999999999999999999 too large"),
    ("value.sdp", NATIVE_HEAD + "1 1 1 1 1.0x\n", 5, "expected value (a number), got '1.0x'"),
    ("float_row.sdp", NATIVE_HEAD + "1 1 2.5 1 1.0\n", 5, "expected row (an integer), got '2.5'"),
    ("float_one.sdp", NATIVE_HEAD + "1 1 1.0 1 1.0\n", 5, "expected row (an integer), got '1.0'"),
    ("exponent.sdp", NATIVE_HEAD + "1 1e0 1 1 1.0\n", 5, "expected block index (an integer), got '1e0'"),
    ("big.dat-s", SDPA_HEAD + "1 1 1 99999999999999999999 5.0\n", 7, "column 99999999999999999999 too large"),
    ("after_comments.dat-s", SDPA_HEAD + "0 1 1 1 1.0\n* c\n\n\" c\n{1 2 2 2 x}\n", 11,
     "expected value (a number), got 'x'"),
    ("float_one.dat-s", SDPA_HEAD + "1 1 1 1.0 1.0\n", 7, "expected column (an integer), got '1.0'"),
    ("wrapped.dat-s", SDPA_HEAD + "1 1 1\n1 1.0\n", 7, "expected 5 fields, got 3"),
    ("range.dat-s", SDPA_HEAD + "* c\n1 2 1 2 1.0\n", 8, "off-diagonal entry (1,2) in a diagonal block"),
]


@pytest.mark.parametrize("name, text, line, message", PROBLEM_REJECTIONS, ids=[case[0] for case in PROBLEM_REJECTIONS])
def test_problem_file_rejections_name_path_and_line(tmp_path, name, text, line, message):
    """Under the default filters of a CLI run, which ignore a DeprecationWarning:
    the rejection may not depend on a numpy warning being raised as an error."""
    path = tmp_path / name
    path.write_text(text)
    with warnings.catch_warnings(), pytest.raises(FormatError, match=re.escape(f"{path}:{line}: {message}")):
        warnings.simplefilter("ignore")
        parse_problem(path)


def test_entry_conversion_ignores_caller_warning_filters(tmp_path, monkeypatch):
    """Older numpy's loadtxt reads an int field spelled '2.5' by truncation
    and only warns; with that loadtxt and the warning ignored, the entry is
    still rejected at its line."""
    loadtxt = np.loadtxt

    def warns_only(texts, **kw):
        warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
        return loadtxt([" ".join(str(int(float(tok))) for tok in text.split()) for text in texts], **kw)

    monkeypatch.setattr(np, "loadtxt", warns_only)
    path = tmp_path / "float_row.sdp"
    path.write_text(NATIVE_HEAD + "1 1 2.5 1 1.0\n")
    with warnings.catch_warnings(), pytest.raises(FormatError, match=re.escape(f"{path}:5: expected row")):
        warnings.simplefilter("ignore")
        parse_native(path)


def test_solution_round_trip(tmp_path):
    p = random_problem(3, block_sizes=(3, 2), m_eq=3, m_ineq=1)
    sol, _ = solve(p, SolverOptions(max_iters=20))
    path = tmp_path / "s.sol"
    write_solution(sol, path)
    back = read_solution(path)
    assert back.status == sol.status and back.iterations == sol.iterations
    for F1, F2 in zip(back.factor, sol.factor):
        assert np.array_equal(F1, F2)
    assert np.array_equal(back.y_a, sol.y_a) and np.array_equal(back.y_b, sol.y_b)
    for Z1, Z2 in zip(back.Z, sol.Z):
        assert np.array_equal(Z1, Z2)
    assert back.report.as_dict() == sol.report.as_dict()
    for X1, X2 in zip(back.X, sol.X):
        assert np.array_equal(X1, X2)  # X rebuilt from the stored factor
    again = tmp_path / "again.sol"
    write_solution(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_solution_without_z(tmp_path):
    p = random_problem(4, block_sizes=(3,), m_eq=2, m_ineq=0)
    sol, _ = solve(p, SolverOptions(max_iters=5))
    path = tmp_path / "noz.sol"
    write_solution(sol, path, include_z=False)
    back = read_solution(path)
    assert back.Z is None
    again = tmp_path / "again.sol"
    write_solution(back, again)
    assert again.read_bytes() == path.read_bytes()


def more_warm_starts(kind):
    """Two blocks; a k = 0 factor with empty ya and yb (an m = 0 problem);
    at double-double, nonzero low words in V, ya, yb and mu."""
    rng = np.random.default_rng(2)
    two = WarmStart([rng.standard_normal((3, 4)), rng.standard_normal((3, 2))], rng.standard_normal(2),
                    np.abs(rng.standard_normal(1)), 0.75)
    empty = WarmStart([np.zeros((0, 3)), np.zeros((0, 1))], np.zeros(0), np.zeros(0), 2.0)
    out = [promote(w, kind) for w in (two, empty)]
    if kind is DOUBLE_DOUBLE:
        def low(a):
            return DDArray(a.hi, a.hi * 2.0**-60)

        out.append(WarmStart([low(V) for V in out[0].V_blocks], low(out[0].y_a), low(out[0].y_b),
                             DDArray(np.float64(0.75), np.float64(2.0**-70))))
    return out


def assert_warmstart_round_trip(warm, path):
    """write then read gives the same kind, shapes and words; read then write the same bytes."""
    write_warmstart(warm, path)
    back = read_warmstart(path)
    assert back.kind is warm.kind and len(back.V_blocks) == len(warm.V_blocks)
    for got, want in zip(back.V_blocks + [back.y_a, back.y_b], warm.V_blocks + [warm.y_a, warm.y_b]):
        assert words_equal(got, want)
    assert words_equal(back.mu, warm.mu)
    again = path.with_suffix(".again")
    write_warmstart(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_warmstart_round_trip_double(tmp_path):
    rng = np.random.default_rng(0)
    warm = WarmStart([rng.standard_normal((2, 3))], rng.standard_normal(2), np.abs(rng.standard_normal(1)), 1.5)
    path = tmp_path / "w.ws"
    write_warmstart(warm, path)
    back = read_warmstart(path)
    assert back.kind.name == "double"
    assert np.array_equal(back.V_blocks[0], warm.V_blocks[0])
    assert np.array_equal(back.y_a, warm.y_a) and np.array_equal(back.y_b, warm.y_b)
    assert back.mu == warm.mu
    for t, more in enumerate([warm] + more_warm_starts(DOUBLE)):
        assert_warmstart_round_trip(more, tmp_path / f"w{t}.ws")


def test_warmstart_round_trip_double_double(tmp_path):
    rng = np.random.default_rng(1)
    warm = promote(
        WarmStart([rng.standard_normal((2, 2))], rng.standard_normal(1), np.zeros(0), 2.25),
        DOUBLE_DOUBLE,
    )
    tweaked = warm.V_blocks[0].copy()
    tweaked[0, 0] = DDArray(np.float64(1.0), np.float64(2.0**-80))  # exercise a nonzero low word
    warm = WarmStart([tweaked], warm.y_a, warm.y_b, warm.mu)
    path = tmp_path / "w.ws"
    write_warmstart(warm, path)
    back = read_warmstart(path)
    assert back.kind.name == "dd"
    assert back.V_blocks[0][0, 0].hi == 1.0 and back.V_blocks[0][0, 0].lo == 2.0**-80
    assert all(
        x == y for x, y in zip(back.V_blocks[0].reshape(-1), warm.V_blocks[0].reshape(-1))
    )
    for t, more in enumerate([warm] + more_warm_starts(DOUBLE_DOUBLE)):
        assert_warmstart_round_trip(more, tmp_path / f"w{t}.ws")


def test_warmstart_unknown_kind(tmp_path):
    path = tmp_path / "w.ws"
    path.write_text("kind float128\nmu 1.0\nblocks 0\nya 0\nyb 0\n")
    with pytest.raises(FormatError, match="float128"):
        read_warmstart(path)


@pytest.fixture(scope="module")
def iterate_files(tmp_path_factory):
    """Lines of a solution file with and without Z and of a warm-start file, two blocks each."""
    tmp = tmp_path_factory.mktemp("iterate")
    sol, warm = solve(random_problem(5, block_sizes=(3, 2), m_eq=2, m_ineq=1), SolverOptions(max_iters=2))
    write_solution(sol, tmp / "z.sol")
    write_solution(sol, tmp / "noz.sol", include_z=False)
    write_warmstart(warm, tmp / "w.ws")
    return {name: (tmp / name).read_text().splitlines() for name in ("z.sol", "noz.sol", "w.ws")}


def renumber(prefix, new):
    """A mutation that rewrites the header line starting with `prefix`."""
    def mutate(lines):
        t = next(t for t, line in enumerate(lines) if line.startswith(prefix))
        return lines[:t] + [new + lines[t][len(prefix):]] + lines[t + 1 :], t + 1

    return mutate


def replace_token(prefix, token):
    """A mutation that puts `token` second on the row after the header starting with `prefix`."""
    def mutate(lines):
        t = next(t for t, line in enumerate(lines) if line.startswith(prefix)) + 1
        row = lines[t].split()
        return lines[:t] + [" ".join(row[:1] + [token] + row[2:])] + lines[t + 1 :], t + 1

    return mutate


@pytest.mark.parametrize(
    "source, mutate, message",
    [
        ("z.sol", lambda lines: (lines + ["1.0 2.0 garbage"], len(lines) + 1), "unexpected '1.0' after the last section"),
        ("noz.sol", lambda lines: (lines + ["1.0 2.0 garbage"], len(lines) + 1), "expected 'Z', got '1.0'"),
        ("w.ws", lambda lines: (lines + ["junk 1 2 3"], len(lines) + 1), "unexpected 'junk' after the last section"),
        ("z.sol", renumber("factor 2 ", "factor 3 "), "factor blocks out of order: got 3, expected 2"),
        ("w.ws", renumber("V 1 ", "V 7 "), "V blocks out of order: got 7, expected 1"),
        ("z.sol", renumber("Z 2 ", "Z 1 "), "Z blocks out of order: got 1, expected 2"),
        ("z.sol", lambda lines: (lines[:-1], len(lines) - 1), "unexpected end of file"),
        ("w.ws", replace_token("V 2 ", "1.0x"), "expected value (a number), got '1.0x'"),
        ("noz.sol", renumber("ya 2", "ya -2"), "ya length must be nonnegative, got -2"),
        ("noz.sol", renumber("pinf ", "pinf abc "), "expected pinf (a number), got 'abc'"),
        ("z.sol", renumber("dinf ", "dinf none "), "expected dinf (a number), got 'none'"),
    ],
    ids=["trailing_after_z", "trailing_without_z", "trailing_warm_start", "factor_order", "V_order", "Z_order",
         "truncated", "not_a_number", "negative_length", "report_value", "report_none"],
)
def test_iterate_file_rejections_name_path_and_line(tmp_path, iterate_files, source, mutate, message):
    lines, line = mutate(iterate_files[source])
    path = tmp_path / source
    path.write_text("\n".join(lines) + "\n")
    read = read_warmstart if source.endswith(".ws") else read_solution
    with pytest.raises(FormatError, match=re.escape(f"{path}:{line}: {message}")):
        read(path)
