"""CLI flows and exit codes."""

import argparse
import dataclasses
import re
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sdpmix.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_OK, build_parser, main
from sdpmix.formats import parse_native, parse_problem, read_solution, read_warmstart, write_native, write_solution, write_warmstart

from sdpmix.instances import gen_random_sdp
from sdpmix.solver import SolverOptions, solve

from helpers import dense_adjoint_oracle, dense_cost, start_at_mu


K3 = "3 3\n1 2\n1 3\n2 3\n"
C5 = "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
K4 = "4 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"

TOY = """\
1
2
1 2
1.0
0 1 1 1 1.0
0 1 2 2 1.0
1 1 1 1 1.0
1 1 2 2 1.0
"""


def test_verbose_rows_show_the_dual_slack_checks(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SDPMIX_VERBOSE", "2")
    prob = tmp_path / "rand.sdp"
    write_native(gen_random_sdp((6,), 4, 1.0, seed=3), prob)
    assert main(["solve", str(prob), "-o", str(tmp_path / "rand.sol"), "--tol", "1e-9"]) == EXIT_OK
    captured = capsys.readouterr()
    rows = [line for line in captured.err.splitlines() if line.startswith("iter")]
    assert len(rows) == int(re.search(r"iterations (\d+)", captured.out).group(1))
    # rows without a check show "-"; the last row's check passed, earlier ones failed
    zcheck = [re.search(r"zcheck +(\S+)", line).group(1) for line in rows]
    assert zcheck[0] == "-" and float(zcheck[-1]) < 1e-9
    assert all(z == "-" or float(z) >= 1e-9 for z in zcheck[:-1])


def test_verbose_rows_show_the_anderson_counts(tmp_path, capsys, monkeypatch):
    # each row prints the running counts of kept and undone Anderson steps,
    # as its progress record holds them
    monkeypatch.setenv("SDPMIX_VERBOSE", "2")
    prob = tmp_path / "rand.sdp"
    write_native(gen_random_sdp((15,), 10, 0.5, seed=5), prob)
    records = []
    solve(parse_native(prob), SolverOptions(tol=1e-9), progress=records.append)
    assert main(["solve", str(prob), "-o", str(tmp_path / "rand.sol"), "--tol", "1e-9"]) == EXIT_OK
    rows = [line for line in capsys.readouterr().err.splitlines() if line.startswith("iter")]
    shown = [tuple(map(int, re.search(r" aa (\d+)/(\d+) ", line).groups())) for line in rows]
    assert shown == [(r["aa_accepted"], r["aa_rejected"]) for r in records]
    assert shown[-1][0] > 0


def test_a_verbosity_that_is_no_integer_prints_no_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SDPMIX_VERBOSE", "loud")
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    assert main(["solve", str(prob), "-o", str(tmp_path / "toy.sol")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_solve_toy_exit_ok(tmp_path, capsys):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    out = tmp_path / "toy.sol"
    code = main(["solve", str(prob), "-o", str(out), "--tol", "1e-10", "--max-iters", "500"])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "status tol" in stdout
    sol = read_solution(out)
    assert sol.status == "tol"
    assert abs(sol.objective - 1.0) < 1e-8


def test_solve_missing_file_exit_1(tmp_path):
    assert main(["solve", str(tmp_path / "nope.sdp")]) == EXIT_INPUT


def test_solve_time_limit_exit_2(tmp_path):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    code = main(["solve", str(prob), "-o", str(tmp_path / "o.sol"), "--time-limit", "1e-9"])
    assert code == EXIT_LIMIT


def test_solve_bad_options_exit_1(tmp_path):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    assert main(["solve", str(prob), "--tol", "-1"]) == EXIT_INPUT

TOY3 = """\
1
3
1 2
1.0
0 1 1 1 1.0
0 1 2 2 1.0
0 1 3 3 1.0
1 1 1 1 1.0
1 1 2 2 1.0
1 1 3 3 1.0
"""


@pytest.mark.parametrize("flag", ["tol"])
def test_solve_infinite_option_exit_1(tmp_path, capsys, flag):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    assert main(["solve", str(prob), f"--{flag}", "inf"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {flag.replace('-', '_')} must be finite\n"


def test_solve_overflowing_penalty_aborts_without_traceback(tmp_path, capsys):
    # the solve's own start but at mu = 1e308, near the binary64 range,
    # overflows the column Hessians to inf, on which LAPACK's eigensolver
    # fails; the column moves are abandoned and the nonfinite duals stop the
    # solve. The solver checks finiteness itself, so numpy's overflow
    # warnings stay off stderr
    prob, out, ws = tmp_path / "r.sdp", tmp_path / "r.sol", tmp_path / "r.ws"
    assert main(["generate", "rand", "--blocks", "5", "--m", "3", "--seed", "1", "-o", str(prob)]) == EXIT_OK
    capsys.readouterr()
    write_warmstart(start_at_mu(parse_native(prob), 1e308), ws)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", str(prob), "-o", str(out), "--warm-start", str(ws), "--max-iters", "200"])
    assert code == EXIT_LIMIT
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert re.fullmatch(r"solver aborted: nonfinite duals at outer iteration 2 \(mu=[^\n]*\)\n", capsys.readouterr().err)


def test_solve_overflowing_warm_factor_aborts_without_traceback(tmp_path, capsys):
    # a warm-start file whose finite factor entries (1e200) have squares
    # that overflow: the first sweep's refreshed cache is not finite
    prob, out, ws = tmp_path / "r.sdp", tmp_path / "r.sol", tmp_path / "r.ws"
    assert main(["generate", "rand", "--blocks", "5", "--m", "3", "--seed", "1", "-o", str(prob)]) == EXIT_OK
    capsys.readouterr()
    warm = start_at_mu(parse_native(prob), 1.0)
    write_warmstart(replace(warm, V_blocks=[np.full_like(V, 1e200) for V in warm.V_blocks]), ws)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", str(prob), "-o", str(out), "--warm-start", str(ws)])
    assert code == EXIT_LIMIT
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert re.fullmatch(r"solver aborted: nonfinite iterate at outer iteration 1 \(mu=[^\n]*\)\n",
                        capsys.readouterr().err)


def test_solve_negative_seed_exit_1(tmp_path, capsys):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    assert main(["solve", str(prob), "-o", str(tmp_path / "o.sol"), "--seed", "-1"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"


def test_solve_saves_and_resumes_warm_start(tmp_path):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    ws = tmp_path / "toy.ws"
    code = main(["solve", str(prob), "-o", str(tmp_path / "a.sol"), "--max-iters", "3",
                 "--save-warm-start", str(ws)])
    assert code == EXIT_LIMIT
    warm = read_warmstart(ws)
    assert warm.V_blocks[0].shape == (2, 2)
    code = main(["solve", str(prob), "-o", str(tmp_path / "b.sol"), "--tol", "1e-10",
                 "--max-iters", "500", "--warm-start", str(ws)])
    assert code == EXIT_OK


def test_dd_solve_saves_and_resumes_warm_start(tmp_path, capsys):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    ws = tmp_path / "toy.ws"
    flags = ["--precision", "dd", "--tol", "1e-14", "--max-iters", "500"]
    code = main(["solve", str(prob), "-o", str(tmp_path / "a.sol"), *flags, "--save-warm-start", str(ws)])
    assert code == EXIT_OK
    assert read_warmstart(ws).kind.name == "dd"
    code = main(["solve", str(prob), "-o", str(tmp_path / "b.sol"), *flags, "--warm-start", str(ws)])
    assert code == EXIT_OK
    assert "status tol" in capsys.readouterr().out


def test_dd_solve_max_iters_counts_both_stages(tmp_path, capsys):
    # dd_refine's instance: 65 binary64 and 39 double-double iterations uncapped
    prob = tmp_path / "rand.sdp"
    assert main(["generate", "rand", "--blocks", "10", "--m", "10", "--seed", "42", "-o", str(prob)]) == EXIT_OK
    code = main(["solve", str(prob), "-o", str(tmp_path / "rand.sol"), "--precision", "dd", "--tol", "1e-20",
                 "--max-iters", "70"])
    out = capsys.readouterr().out
    assert code == EXIT_LIMIT and "status iter\n" in out and "iterations 70\n" in out


def test_solve_mismatched_warm_start_exit_1(tmp_path, capsys):
    small = tmp_path / "toy.sdp"
    small.write_text(TOY)
    ws = tmp_path / "toy.ws"
    main(["solve", str(small), "-o", str(tmp_path / "a.sol"), "--max-iters", "3", "--save-warm-start", str(ws)])
    big = tmp_path / "toy3.sdp"
    big.write_text(TOY3)
    capsys.readouterr()
    for precision in ("double", "dd"):
        code = main(["solve", str(big), "-o", str(tmp_path / "b.sol"), "--warm-start", str(ws),
                     "--precision", precision])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "warm start block 1: 2 columns, block size 3" in err
        assert "solver aborted" not in err


def test_solve_nonfinite_warm_start_exit_1(tmp_path, capsys):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    ws = tmp_path / "toy.ws"
    main(["solve", str(prob), "-o", str(tmp_path / "a.sol"), "--max-iters", "3", "--save-warm-start", str(ws)])
    capsys.readouterr()
    lines = ws.read_text().splitlines()
    row = lines.index(next(ln for ln in lines if ln.startswith("V 1 "))) + 1
    lines[row] = " ".join(["nan"] + lines[row].split()[1:])
    bad = tmp_path / "bad.ws"
    bad.write_text("\n".join(lines) + "\n")
    for precision in ("double", "dd"):
        code = main(["solve", str(prob), "-o", str(tmp_path / "b.sol"), "--warm-start", str(bad),
                     "--precision", precision])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: {bad}: warm start field V 1 has a nonfinite value" in err
        assert "solver aborted" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("ya 1\n", "ya 2\n0.5\n"), "warm start dual vector lengths do not match the problem"),
    (lambda text: re.sub(r"^mu .*$", "mu 0.0", text, flags=re.M), "warm start has nonpositive mu"),
    (lambda text: re.sub(r"^mu .*$", "mu -1.5", text, flags=re.M), "warm start has nonpositive mu"),
], ids=["dual_lengths", "zero_mu", "negative_mu"])
def test_solve_warm_start_that_does_not_fit_the_problem_exit_1(tmp_path, capsys, edit, message):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    ws = tmp_path / "toy.ws"
    main(["solve", str(prob), "-o", str(tmp_path / "a.sol"), "--max-iters", "3", "--save-warm-start", str(ws)])
    capsys.readouterr()
    bad = tmp_path / "bad.ws"
    bad.write_text(edit(ws.read_text()))
    for precision in ("double", "dd"):
        code = main(["solve", str(prob), "-o", str(tmp_path / "b.sol"), "--warm-start", str(bad),
                     "--precision", precision, "--max-iters", "5"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("name, text, line, message", [
    ("no_blocks.sdp", "0\n", 1, "block count must be positive, got 0"),
    ("negative_m.dat-s", "-1\n1\n2\n", 1, "malformed header: negative constraint count -1"),
    ("no_blocks.dat-s", "1\n0\n", 2, "malformed header: block count 0"),
    ("zero_size.dat-s", "1\n2\n{2, 0}\n1.0\n", 3, "malformed header: zero block size"),
])
def test_solve_malformed_header_names_path_and_line(tmp_path, capsys, name, text, line, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["solve", str(path), "-o", str(tmp_path / "x.sol")]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}:{line}: {message}\n"


def test_solve_vacuous_constraint_names_the_problem_file(tmp_path, capsys):
    prob = tmp_path / "vacuous.sdp"
    prob.write_text(TOY.replace("1 1 1 1 1.0\n1 1 2 2 1.0\n", "1 1 1 1 0.0\n"))
    assert main(["solve", str(prob), "-o", str(tmp_path / "v.sol")]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {prob}: constraint 1: zero-norm matrix (vacuous constraint)\n"


def test_generate_rand_counts(tmp_path, capsys):
    out = tmp_path / "r.sdp"
    code = main(["generate", "rand", "--blocks", "8", "--m", "5", "--density", "1.0",
                 "--seed", "7", "-o", str(out)])
    assert code == EXIT_OK
    assert "m_a 5 m_b 0" in capsys.readouterr().out
    p = parse_native(out)
    assert p.block_sizes == (8,) and p.m_eq == 5 and p.m_ineq == 0


def test_generate_rand_at_a_tiny_density_ends(tmp_path, capsys):
    # a constraint drawn empty gets one entry in place of a redraw, which at
    # density 1e-9 would take about 1e9 draws
    out = tmp_path / "tiny.sdp"
    start = time.perf_counter()
    code = main(["generate", "rand", "--blocks", "1", "--m", "2", "--density", "1e-9", "-o", str(out)])
    assert code == EXIT_OK and time.perf_counter() - start < 1.0
    p = parse_problem(out)
    assert p.block_sizes == (1,) and p.m_eq == 2
    assert len(p.entries.con) == 2 and set(p.entries.con.tolist()) == {0, 1}  # A_1 = I and one entry of A_2


def test_generate_rand_multiblock_spec(tmp_path, capsys):
    out = tmp_path / "r2.sdp"
    code = main(["generate", "rand", "--blocks", "2x4", "--m", "3", "-o", str(out)])
    assert code == EXIT_OK
    p = parse_native(out)
    assert p.block_sizes == (4, 4)


@pytest.mark.parametrize("spec", ["2x", "x4", "2xa", "1.5", "-2x5,3", "0x5,3"])
def test_generate_rand_bad_block_spec_exit_1(tmp_path, capsys, spec):
    out = tmp_path / "r.sdp"
    # --blocks=<spec>: argparse would read a separate "-2x5,3" as a flag
    assert main(["generate", "rand", f"--blocks={spec}", "--m", "3", "-o", str(out)]) == EXIT_INPUT
    assert f"bad block specification {spec!r}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_missing_output_directory_exit_1(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "r.sdp"
    assert main(["generate", "rand", "--blocks", "3", "--m", "2", "-o", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()


def test_generate_negative_seed_exit_1(tmp_path, capsys):
    out = tmp_path / "r.sdp"
    code = main(["generate", "rand", "--blocks", "3", "--m", "2", "--seed", "-1", "-o", str(out)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_generate_maxcut_triangle_counts(tmp_path, capsys):
    g = tmp_path / "k3.txt"
    g.write_text(K3)
    out = tmp_path / "mc.sdp"
    code = main(["generate", "maxcut", "--graph", str(g), "--triangles", "-o", str(out)])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "m_a 3 m_b 4" in stdout
    assert "objective_map" in stdout


def test_generate_theta_counts(tmp_path, capsys):
    g = tmp_path / "c5.txt"
    g.write_text(C5)
    out = tmp_path / "th.sdp"
    code = main(["generate", "theta", "--graph", str(g), "--strengthened", "-o", str(out)])
    assert code == EXIT_OK
    assert "m_a 6 m_b 5" in capsys.readouterr().out


def test_generate_bad_graph_exit_1(tmp_path):
    assert main(["generate", "maxcut", "--graph", str(tmp_path / "no.txt"), "-o", str(tmp_path / "x.sdp")]) == EXIT_INPUT


@pytest.mark.parametrize("text, line, message", [
    pytest.param("3 2\n1 2\n2 4\n", 3, "edge (2,4) out of range for 3 vertices", id="out_of_range"),
    pytest.param("# c\n3 3\n1 2\n2 3\n\n2 1 0.5\n", 6, "duplicate edge (1,2)", id="duplicate"),
    pytest.param("3 2\n1 2\n3 3\n", 3, "graph has a loop at vertex 3", id="loop"),
    pytest.param("3 2\n1 2 nan\n2 3\n", 2, "edge (1,2) has nonfinite weight", id="nan_weight"),
    pytest.param("0 0\n", 1, "graph needs at least one vertex, got 0", id="no_vertex"),
])
def test_generate_graph_fault_names_file_and_line(tmp_path, capsys, text, line, message):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    for family in ("maxcut", "theta"):
        assert main(["generate", family, "--graph", str(graph), "-o", str(tmp_path / "x.sdp")]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {graph}:{line}: {message}\n"


@pytest.mark.parametrize("command", ["solve", "solve-dd", "check"])
def test_iterate_that_does_not_fit_names_its_file(tmp_path, capsys, command):
    # a warm start or solution of the order-2 toy given with the order-3 one
    small, big = tmp_path / "toy.sdp", tmp_path / "toy3.sdp"
    small.write_text(TOY)
    big.write_text(TOY3)
    sol, ws = tmp_path / "toy.sol", tmp_path / "toy.ws"
    main(["solve", str(small), "-o", str(sol), "--max-iters", "3", "--save-warm-start", str(ws)])
    capsys.readouterr()
    if command == "check":
        argv, message = ["check", str(big), str(sol)], f"{sol}: solution block 1: 2 columns, block size 3"
    else:
        argv = ["solve", str(big), "-o", str(tmp_path / "b.sol"), "--warm-start", str(ws)]
        argv += ["--precision", "dd"] if command == "solve-dd" else []
        message = f"{ws}: warm start block 1: 2 columns, block size 3"
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_reproduces_solver_errors(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    write_native(gen_random_sdp((4,), 3, 1.0, seed=5), prob)
    out = tmp_path / "p.sol"
    code = main(["solve", str(prob), "-o", str(out), "--tol", "1e-9", "--max-iters", "8000"])
    assert code == EXIT_OK
    solve_out = capsys.readouterr().out
    reported = {}
    for line in solve_out.splitlines():
        parts = line.split()
        if parts[0] in ("pinf", "gap", "dinf", "compl", "compl_star"):
            reported[parts[0]] = float(parts[1])
    code = main(["check", str(prob), str(out), "--threshold", "1e-7"])
    assert code == EXIT_OK
    check_out = capsys.readouterr().out
    for line in check_out.splitlines():
        parts = line.split()
        if parts[0] in reported:
            assert abs(float(parts[1]) - reported[parts[0]]) <= 1e-14


def test_check_without_stored_z(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    write_native(gen_random_sdp((3,), 3, 1.0, seed=6), prob)
    out = tmp_path / "p.sol"
    main(["solve", str(prob), "-o", str(out), "--tol", "1e-9",
          "--max-iters", "8000", "--no-z"])
    capsys.readouterr()
    code = main(["check", str(prob), str(out), "--threshold", "1e-6"])
    assert code == EXIT_OK


def test_check_threshold_exit_2(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    write_native(gen_random_sdp((3,), 2, 1.0, seed=7), prob)
    out = tmp_path / "p.sol"
    main(["solve", str(prob), "-o", str(out), "--max-iters", "3"])
    capsys.readouterr()
    code = main(["check", str(prob), str(out), "--threshold", "1e-15"])
    assert code == EXIT_LIMIT


def test_check_passes_a_tol_solution_at_its_tol(tmp_path, capsys):
    prob = tmp_path / "r.sdp"
    out = tmp_path / "r.sol"
    assert main(["generate", "rand", "--blocks", "12", "--m", "8", "--seed", "1", "-o", str(prob)]) == EXIT_OK
    assert main(["solve", str(prob), "-o", str(out), "--tol", "1e-10"]) == EXIT_OK
    assert "status tol" in capsys.readouterr().out
    assert main(["check", str(prob), str(out), "--threshold", "1e-10"]) == EXIT_OK


def test_check_perturbed_duals_show_dinf(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    write_native(gen_random_sdp((3,), 2, 1.0, seed=8), prob)
    out = tmp_path / "p.sol"
    main(["solve", str(prob), "-o", str(out), "--tol", "1e-9", "--max-iters", "8000"])
    capsys.readouterr()
    # perturb a dual in the solution file
    text = out.read_text().splitlines()
    for t, line in enumerate(text):
        if line.startswith("ya "):
            vals = text[t + 1].split()
            vals[0] = repr(float(vals[0]) + 0.25)
            text[t + 1] = " ".join(vals)
            break
    out.write_text("\n".join(text) + "\n")
    code = main(["check", str(prob), str(out), "--threshold", "1e-6"])
    assert code == EXIT_LIMIT
    check_out = capsys.readouterr().out
    dinf = float([l.split()[1] for l in check_out.splitlines() if l.startswith("dinf")][0])
    assert dinf > 1e-6


def test_check_an_overflowing_dual_slack_exit_1(tmp_path, capsys):
    # a finite dual of 1e308 passes the reader and check_fit, but its dual
    # slack C - A^T y overflows: an input error naming the solution file
    prob, out = tmp_path / "p.sdp", tmp_path / "p.sol"
    assert main(["generate", "rand", "--blocks", "4", "--m", "3", "--seed", "1", "-o", str(prob)]) == EXIT_OK
    assert main(["solve", str(prob), "-o", str(out), "--tol", "1e-6"]) == EXIT_OK
    text = out.read_text().splitlines()
    t = text.index("ya 3") + 1
    text[t] = " ".join(["1e308"] + text[t].split()[1:])
    bad = tmp_path / "bad.sol"
    bad.write_text("\n".join(text) + "\n")
    capsys.readouterr()
    assert main(["check", str(prob), str(bad)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: ") and "nonfinite" in captured.err and captured.out == ""


def check_report(capsys, problem, solution):
    """Exit code and printed measures of `sdpmix check`."""
    code = main(["check", str(problem), str(solution)])
    return code, {key: float(val) for key, val in (line.split() for line in capsys.readouterr().out.splitlines())}


def solve_generated(tmp_path, capsys, instance, *flags):
    """Generate `instance` (Max-Cut K4 with triangles, or a multi-block
    random SDP), solve it to 1e-8, and return the two file paths."""
    prob, out = tmp_path / f"{instance}.sdp", tmp_path / f"{instance}.sol"
    if instance == "k4":
        (tmp_path / "k4.txt").write_text(K4)
        gen = ["maxcut", "--graph", str(tmp_path / "k4.txt"), "--triangles"]
    else:
        gen = ["rand", "--blocks", "3,2x4", "--m", "6", "--seed", "2"]
    assert main(["generate", *gen, "-o", str(prob)]) == EXIT_OK
    assert main(["solve", str(prob), "-o", str(out), "--tol", "1e-8", *flags]) == EXIT_OK
    capsys.readouterr()
    return prob, out


@pytest.mark.parametrize("flags", [[], ["--no-z"]], ids=["z", "no-z"])
@pytest.mark.parametrize("instance", ["k4", "rand"])
def test_check_prints_the_stored_report_bit_for_bit(tmp_path, capsys, instance, flags):
    prob, out = solve_generated(tmp_path, capsys, instance, *flags)
    assert (read_solution(out).Z is None) == bool(flags)
    code, printed = check_report(capsys, prob, out)
    assert code == EXIT_OK
    for key, val in read_solution(out).report.as_dict().items():
        assert printed[key] == val, key


def test_check_projects_the_slack_and_ignores_a_stored_z(tmp_path, capsys):
    # shifting the duals of two diagonal constraints by +-0.5 keeps b^T y
    # and compl*, but makes C - A^T y indefinite; a file that stores that
    # unprojected slack as Z must fail on dinf like a file without Z
    prob, out = solve_generated(tmp_path, capsys, "k4")
    sol, problem = read_solution(out), parse_native(prob)
    y_a = sol.y_a + np.array([0.5, -0.5, 0.0, 0.0])
    adjoint = dense_adjoint_oracle(problem, np.concatenate([y_a, sol.y_b]))
    slack = [C - A for C, A in zip(dense_cost(problem), adjoint)]
    assert np.linalg.eigvalsh(slack[0])[0] < -0.4
    write_solution(replace(sol, y_a=y_a, Z=slack), tmp_path / "tampered.sol")
    write_solution(replace(sol, y_a=y_a), tmp_path / "no_z.sol", include_z=False)
    code, tampered = check_report(capsys, prob, tmp_path / "tampered.sol")
    assert code == EXIT_LIMIT
    assert check_report(capsys, prob, tmp_path / "no_z.sol") == (EXIT_LIMIT, tampered)
    assert tampered["dinf"] > 0.2


@pytest.mark.parametrize("threshold", ["nan", "-1", "0", "inf"])
def test_check_bad_threshold_exit_1(tmp_path, capsys, threshold):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    assert main(["solve", str(prob), "-o", str(tmp_path / "toy.sol"), "--max-iters", "2"]) == EXIT_LIMIT
    capsys.readouterr()
    assert main(["check", str(prob), str(tmp_path / "toy.sol"), "--threshold", threshold]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: threshold must be positive and finite")


def test_check_shape_mismatch_exit_1(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    write_native(gen_random_sdp((3,), 2, 1.0, seed=9), prob)
    out = tmp_path / "p.sol"
    main(["solve", str(prob), "-o", str(out), "--max-iters", "2"])
    capsys.readouterr()
    other = tmp_path / "q.sdp"
    write_native(gen_random_sdp((5,), 2, 1.0, seed=10), other)
    lines = out.read_text().splitlines()
    t = lines.index("Z 1 3")
    # the header says order 2 but three rows of three follow: the reader stops after four values
    short_z = tmp_path / "short_z.sol"
    short_z.write_text("\n".join(lines[:t] + ["Z 1 2"] + lines[t + 1 :]) + "\n")
    # a well-formed Z block of order 2 for a block of order 3
    order_2 = tmp_path / "order_2.sol"
    rows = [" ".join(row.split()[:2]) for row in lines[t + 1 : t + 3]]
    order_2.write_text("\n".join(lines[:t] + ["Z 1 2"] + rows) + "\n")
    cases = ((other, out, rf"error: {re.escape(str(out))}: solution block 1: 3 columns, block size 5"),
             (prob, short_z, rf"error: {re.escape(str(short_z))}:{t + 3}: unexpected '\S+' after the last section"),
             (prob, order_2, rf"error: {re.escape(str(order_2))}: solution Z block 1 has order 2, block size is 3"))
    for problem, solution, message in cases:
        assert main(["check", str(problem), str(solution)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert re.fullmatch(message + "\n", err), err


def test_solver_flags_cover_every_option_field():
    names = [f.name for f in dataclasses.fields(SolverOptions)]
    args = build_parser().parse_args(["solve", "x.sdp"])
    assert SolverOptions(**{name: getattr(args, name) for name in names}) == SolverOptions()
    args = build_parser().parse_args(["solve", "x.sdp", "--tol", "1e-9", "--time-limit", "2.5", "--max-iters", "9",
                                      "--seed", "3"])
    got = SolverOptions(**{name: getattr(args, name) for name in names})
    assert got == SolverOptions(tol=1e-9, time_limit=2.5, max_iters=9, seed=3)


@pytest.mark.parametrize("argv, message", [
    (["solve", "x.sdp", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
    (["solve", "x.sdp", "--shuffling"], "unrecognized arguments: --shuffling"),
    ([], "the following arguments are required: command"),
    (["solve", "x.sdp", "--no-scaling"], "unrecognized arguments: --no-scaling"),
    # the tuning constants are fixed in the solver module, not flags
    *[(["solve", "x.sdp", flag, "1"], f"unrecognized arguments: {flag} 1")
      for flag in ("--mu-start", "--iters-z", "--p", "--delta", "--epsilon", "--max-evals", "--tau", "--rat-min",
                   "--rat-max")],
])
def test_usage_error_exit_1(capsys, argv, message):
    # argparse exits 2 by default, which the exit contract gives to a stopped solve
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: sdpmix") and captured.err.endswith(f"error: {message}\n")


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["solve", "--help"])
    assert stop.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: sdpmix solve")


def test_readme_solver_table_matches_the_generated_flags():
    # README's "Solver parameters" table repeats the SolverOptions defaults by hand
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Solver parameters", 1)[1].split("\n#", 1)[0]
    documented = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            flags, defaults = [cell.strip() for cell in line.strip("|").split("|")][:2]
            documented.update(zip(re.findall(r"`(--[a-z-]+)`", flags), defaults.split(" / "), strict=True))
    solve_parser = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices["solve"]
    fields = {f.name: f for f in dataclasses.fields(SolverOptions)}
    generated = {a.option_strings[0]: fields[a.dest].default for a in solve_parser._actions if a.dest in fields}
    assert documented.keys() == generated.keys()
    for flag, default in generated.items():
        if isinstance(default, bool):  # a switch: the flag is off unless given
            assert documented[flag] == "off", flag
        elif default is None:
            assert documented[flag] == "none", flag
        else:
            assert float(documented[flag]) == default, flag


def test_readme_progress_keys_match_a_record(tmp_path):
    # README's "Progress records" table names every key of a progress record
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("### Progress records", 1)[1].split("\n#", 1)[0]
    documented = [re.match(r"\| `(\w+)` \|", line).group(1) for line in table.splitlines() if line.startswith("| `")]
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    rows = []
    solve(parse_native(prob), SolverOptions(max_iters=2), progress=rows.append)
    assert len(documented) == len(set(documented)) and set(documented) == set(rows[-1])


def test_solve_missing_output_directory_exit_1(tmp_path, capsys):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    missing = tmp_path / "missing_dir"
    for flags in (["-o", str(missing / "x.sol")],
                  ["-o", str(tmp_path / "x.sol"), "--save-warm-start", str(missing / "w.ws")]):
        code = main(["solve", str(prob), "--max-iters", "3", *flags])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing_dir" in err
    assert not missing.exists()
    # a warm-start path that is a directory fails when it is written, after the solve
    assert main(["solve", str(prob), "--max-iters", "3", "-o", str(tmp_path / "x.sol"),
                 "--save-warm-start", str(tmp_path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_check_nonfinite_solution_value_exit_1(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    write_native(gen_random_sdp((3,), 2, 1.0, seed=11), prob)
    out = tmp_path / "p.sol"
    main(["solve", str(prob), "-o", str(out), "--max-iters", "2", "--no-z"])
    capsys.readouterr()
    text = out.read_text().splitlines()
    t = next(t for t, line in enumerate(text) if line.startswith("ya "))
    text[t + 1] = " ".join(["nan"] + text[t + 1].split()[1:])
    out.write_text("\n".join(text) + "\n")
    assert main(["check", str(prob), str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"error: {out}: solution field ya has a nonfinite value" in err


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    # argparse objects form reference cycles; one parser per process leaves
    # none for the cycle collector per call
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    assert main(["solve", str(prob), "-o", str(tmp_path / "toy.sol")]) == EXIT_OK
    built.clear()
    assert main(["check", str(prob), str(tmp_path / "toy.sol")]) == EXIT_OK
    assert main(["solve", str(prob), "-o", str(tmp_path / "toy.sol")]) == EXIT_OK
    assert built == []
    assert build_parser() is build_parser()
