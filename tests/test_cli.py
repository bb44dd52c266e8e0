import pytest

from chordcrit import cli
from chordcrit.cli import EXIT_OK, EXIT_PARAM, EXIT_TIMEOUT, EXIT_VERIFY_FAIL, _exit_code, main
from chordcrit.criticality import verify_edge_criticality
from chordcrit.graph import parse_graph

from helpers import PINNED, sha256


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_gn_dimacs(capsys):
    code, out, _ = run(capsys, "generate", "gn", "--n", "5", "--format", "dimacs")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "p edge 5 5"
    assert len(lines) == 6


def test_generate_mycielski_structured(capsys):
    code, out, _ = run(capsys, "generate", "mycielski_k", "--k", "4", "--format", "structured")
    assert code == EXIT_OK
    g = parse_graph(out)
    assert (g.n, g.edge_count) == (11, 20)


def test_generate_kneser_petersen(capsys):
    code, out, _ = run(capsys, "generate", "kneser", "--n", "5", "--k", "2")
    assert code == EXIT_OK
    assert out.splitlines()[0] == "p edge 10 15"


def test_generate_requires_n(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "gn"])
    assert err.value.code == EXIT_PARAM


def test_generate_param_error_exit_code(capsys):
    code, _, err = run(capsys, "generate", "gn", "--n", "3")
    assert code == EXIT_PARAM
    assert "error:" in err


def test_verify_edge_critical(capsys):
    code, out, _ = run(capsys, "verify", "edge-critical", "--n", "6")
    assert code == EXIT_OK
    assert "certificates 16/16 valid at n=6" in out


def test_verify_edge_critical_writes_the_rendered_report(capsys, tmp_path):
    """The report is written a line at a time, to stdout or to --out, and
    the bytes are those of render()."""
    expected = verify_edge_criticality(8, use_solver=True).render()
    code, out, _ = run(capsys, "verify", "edge-critical", "--n", "8", "--with-solver")
    assert (code, out) == (EXIT_OK, expected)
    out_path = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "edge-critical", "--n", "8", "--with-solver",
                       "--out", str(out_path))
    assert (code, out) == (EXIT_OK, "")
    assert out_path.read_text() == expected


def test_verify_edge_critical_with_solver(capsys):
    code, out, _ = run(capsys, "verify", "edge-critical", "--n", "5", "--with-solver")
    assert code == EXIT_OK
    assert "not 2-colourable: confirmed" in out


def test_verify_edge_critical_solver_timeout_exit_code(capsys):
    # the unsatisfiability proof at n=12 takes 45k backtracks, so it cannot
    # finish before the solver's first clock read, at 1,024
    code, out, _ = run(
        capsys, "verify", "edge-critical", "--n", "12", "--with-solver",
        "--budget-seconds", "1e-9",
    )
    assert code == EXIT_TIMEOUT
    assert "not 9-colourable: timeout" in out


def assert_workers_rejected(capsys, workers):
    with pytest.raises(SystemExit) as err:
        main(["verify", "edge-critical", "--n", "6", "--workers", workers])
    assert err.value.code == EXIT_PARAM
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_verify_edge_critical_workers_below_one_is_param_error(capsys, workers):
    # --workers is gone; values below one stay usage errors, as before
    assert_workers_rejected(capsys, workers)


def test_verify_edge_critical_rejects_workers_option(capsys):
    assert_workers_rejected(capsys, "2")


def test_verify_nan_budget_is_param_error(capsys):
    code, out, err = run(
        capsys, "verify", "chromatic", "--n", "5", "--budget-seconds", "nan"
    )
    assert code == EXIT_PARAM
    assert out == ""
    assert "time_budget" in err


@pytest.mark.parametrize("target", ["chromatic", "ratio"])
def test_negative_seed_is_param_error_naming_the_seed(capsys, target):
    # Every verify target builds the solver config, so each rejects it.
    code, out, err = run(capsys, "verify", target, "--n", "6", "--seed", "-1")
    assert code == EXIT_PARAM
    assert out == ""
    assert err == "error: seed must be an int >= 0\n"


def test_unwritable_out_is_param_error(capsys, tmp_path):
    for out_path in (tmp_path, tmp_path / "missing" / "chi.txt"):
        code, out, err = run(
            capsys, "verify", "chromatic", "--n", "5", "--out", str(out_path)
        )
        assert code == EXIT_PARAM
        assert out == ""
        assert err.startswith("error: ")


def test_verify_chromatic(capsys):
    code, out, _ = run(capsys, "verify", "chromatic", "--n", "7")
    assert code == EXIT_OK
    assert "chi(G_7) = 5 expected 5 [exact]" in out


def test_verify_chromatic_timeout_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "chromatic", "--n", "8", "--budget-seconds", "1e-9"
    )
    assert code == EXIT_TIMEOUT
    assert "timeout_with_bounds" in out


def test_verify_homomorphism(capsys):
    code, out, _ = run(capsys, "verify", "homomorphism", "--n", "8")
    assert code == EXIT_OK
    assert "certified lower bound: chi(G_8) >= 6" in out


def test_verify_ratio(capsys):
    code, out, _ = run(capsys, "verify", "ratio", "--n-max", "20")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "n crossing transverse lateral nested1 ratio_num ratio_den"
    assert lines[1] == "5 5 0 0 0 1 1"
    assert lines[2] == "6 15 1 1 1 8 9"
    assert lines[-1].startswith("final ratio ")


def test_verify_ratio_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "ratio", "--n-max", "200")
    assert code == EXIT_OK
    assert sha256(out) == PINNED["verify_ratio"]["200"]


def test_verify_vertex_critical(capsys):
    code, out, _ = run(
        capsys, "verify", "vertex-critical", "--family", "sg", "--n", "6"
    )
    assert code == EXIT_OK
    assert "vertex deletions dropping chi: 9/9" in out


def test_diagram_to_file(capsys, tmp_path):
    out_path = tmp_path / "pair.svg"
    code, _, _ = run(
        capsys, "diagram", "--n", "6", "--chords", "26,35", "--out", str(out_path)
    )
    assert code == EXIT_OK
    assert out_path.read_text().startswith("<svg")


def test_diagram_certificate(capsys):
    code, out, _ = run(capsys, "diagram", "--n", "6", "--certificate-edge", "26,35")
    assert code == EXIT_OK
    assert out.count("<line") == 9


@pytest.mark.parametrize("n, edge", [(6, "26,35"), (7, "14,36"), (8, "25,37")])
def test_diagram_certificate_output_is_pinned(capsys, n, edge):
    """One certificate diagram per case: transverse, crossing with 1 and
    crossing without 1."""
    code, out, _ = run(capsys, "diagram", "--n", str(n), "--certificate-edge", edge)
    assert code == EXIT_OK
    assert sha256(out) == PINNED["diagram_certificate"][f"{n}/{edge}"]


def test_diagram_no_chords_is_param_error(capsys):
    code, _, err = run(capsys, "diagram", "--n", "6")
    assert code == EXIT_PARAM


def test_repeated_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "generate", "gn", "--n", "8", "--format", "structured")
    _, second, _ = run(capsys, "generate", "gn", "--n", "8", "--format", "structured")
    assert first == second
    _, r1, _ = run(capsys, "verify", "edge-critical", "--n", "6")
    _, r2, _ = run(capsys, "verify", "edge-critical", "--n", "6")
    assert r1 == r2


def test_exit_code_mapping():
    assert _exit_code(True) == EXIT_OK
    assert _exit_code(False) == EXIT_VERIFY_FAIL
    assert _exit_code(True, timed_out=True) == EXIT_TIMEOUT
    assert _exit_code(False, timed_out=True) == EXIT_TIMEOUT


def test_parser_is_built_once_and_reused(capsys, tmp_path):
    """Calls in one process share a parser and give what a first call does."""
    out_path = tmp_path / "chi.txt"
    calls = [["generate", "gn"],
             ["verify", "chromatic", "--n", "5", "--out", str(out_path)],
             ["verify", "chromatic", "--n", "5"]]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = out_path.read_text() if out_path.exists() else None
        out_path.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(call(argv))
    cli._parser.cache_clear()
    assert [call(argv) for argv in calls] == first
    assert cli._parser.cache_info().misses == 1
    assert first[0][0] == EXIT_PARAM and "--n is required" in first[0][2]
    assert first[1] == (EXIT_OK, "", "", "chi(G_5) = 3 expected 3 [exact]\n")
    assert first[2] == (EXIT_OK, "chi(G_5) = 3 expected 3 [exact]\n", "", None)
    assert cli.build_parser() is not cli._parser()
