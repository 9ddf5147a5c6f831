"""CLI flows and exit codes."""

import argparse
import dataclasses
import re

from sdpmix.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_OK, _options_from, build_parser, main
from sdpmix.formats import parse_native, read_solution, read_warmstart, write_native

from sdpmix.instances import gen_random_sdp
from sdpmix.solver import SolverOptions


K3 = "3 3\n1 2\n1 3\n2 3\n"
C5 = "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"

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


def test_solve_toy_exit_ok(tmp_path, capsys):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    out = tmp_path / "toy.sol"
    code = main(["solve", str(prob), "-o", str(out), "--tol", "1e-10", "--iters-z", "5", "--max-iters", "500"])
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
                 "--iters-z", "5", "--max-iters", "500", "--warm-start", str(ws)])
    assert code == EXIT_OK


def test_dd_solve_saves_and_resumes_warm_start(tmp_path, capsys):
    prob = tmp_path / "toy.sdp"
    prob.write_text(TOY)
    ws = tmp_path / "toy.ws"
    flags = ["--precision", "dd", "--tol", "1e-14", "--iters-z", "5", "--max-iters", "500"]
    code = main(["solve", str(prob), "-o", str(tmp_path / "a.sol"), *flags, "--save-warm-start", str(ws)])
    assert code == EXIT_OK
    assert read_warmstart(ws).kind.name == "dd"
    code = main(["solve", str(prob), "-o", str(tmp_path / "b.sol"), *flags, "--warm-start", str(ws)])
    assert code == EXIT_OK
    assert "status tol" in capsys.readouterr().out


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
        assert "error: warm start field V 1 has a nonfinite value" in err
        assert "solver aborted" not in err


def test_generate_rand_counts(tmp_path, capsys):
    out = tmp_path / "r.sdp"
    code = main(["generate", "rand", "--blocks", "8", "--m", "5", "--density", "1.0",
                 "--seed", "7", "-o", str(out)])
    assert code == EXIT_OK
    assert "m_a 5 m_b 0" in capsys.readouterr().out
    p = parse_native(out)
    assert p.block_sizes == (8,) and p.m_eq == 5 and p.m_ineq == 0


def test_generate_rand_multiblock_spec(tmp_path, capsys):
    out = tmp_path / "r2.sdp"
    code = main(["generate", "rand", "--blocks", "2x4", "--m", "3", "-o", str(out)])
    assert code == EXIT_OK
    p = parse_native(out)
    assert p.block_sizes == (4, 4)


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


def test_check_reproduces_solver_errors(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    write_native(gen_random_sdp((4,), 3, 1.0, seed=5), prob)
    out = tmp_path / "p.sol"
    code = main(["solve", str(prob), "-o", str(out), "--tol", "1e-9", "--iters-z", "5", "--max-iters", "8000"])
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
    main(["solve", str(prob), "-o", str(out), "--tol", "1e-9", "--iters-z", "5",
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
    assert main(["solve", str(prob), "-o", str(out), "--tol", "1e-10", "--iters-z", "10"]) == EXIT_OK
    assert "status tol" in capsys.readouterr().out
    assert main(["check", str(prob), str(out), "--threshold", "1e-10"]) == EXIT_OK


def test_check_perturbed_duals_show_dinf(tmp_path, capsys):
    prob = tmp_path / "p.sdp"
    write_native(gen_random_sdp((3,), 2, 1.0, seed=8), prob)
    out = tmp_path / "p.sol"
    main(["solve", str(prob), "-o", str(out), "--tol", "1e-9", "--iters-z", "5", "--max-iters", "8000"])
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
    cases = ((other, out, r"error: solution block 1: 3 columns, block size 5"),
             (prob, short_z, rf"error: {re.escape(str(short_z))}:{t + 3}: unexpected '\S+' after the last section"),
             (prob, order_2, r"error: solution Z block 1 has order 2, block size is 3"))
    for problem, solution, message in cases:
        assert main(["check", str(problem), str(solution)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert re.fullmatch(message + "\n", err), err


def test_solver_flags_cover_every_option_field():
    args = build_parser().parse_args(["solve", "x.sdp"])
    for f in dataclasses.fields(SolverOptions):
        assert getattr(args, f.name) == f.default, f.name
    assert _options_from(args) == SolverOptions()
    args = build_parser().parse_args(["solve", "x.sdp", "--iters-z", "7", "--no-scaling", "--shuffling",
                                      "--max-iters", "9", "--mu-start", "0.5", "--rat-max", "1.5"])
    assert _options_from(args) == SolverOptions(iters_Z=7, scaling=False, shuffling=True, max_iters=9,
                                                mu_start=0.5, rat_max=1.5)


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
    assert "error: solution field ya has a nonfinite value" in err


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
