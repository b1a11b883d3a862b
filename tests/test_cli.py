"""End-to-end tests of the command line interface, run in process; the
parser-reuse tests also run each call in a fresh interpreter."""

import math
import os
import subprocess
import sys

import pytest

import oracles
from sk1 import cli
from sk1.cli import EXIT_GUARD, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from sk1.metacyclic import genetic_basis_metacyclic, make_metacyclic
from sk1.snf import CyclicDecomposition


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_abelian_human(capsys):
    rc, out, _ = run(capsys, "abelian", "--prime", "3", "--orders", "27,27")
    assert rc == EXIT_OK
    assert out == "SK1 = (C3)^8 x (C9)^2\n"


def test_abelian_trivial(capsys):
    rc, out, _ = run(capsys, "abelian", "--prime", "3", "--orders", "3,3")
    assert rc == EXIT_OK
    assert out == "SK1 = 0\n"


def test_abelian_tsv(capsys):
    rc, out, _ = run(capsys, "abelian", "--prime", "3", "--orders", "27,27", "--format", "tsv")
    assert rc == EXIT_OK
    assert out.splitlines() == ["3\t8", "9\t2"]


def test_abelian_exhaustive_strategy(capsys):
    rc, out, _ = run(
        capsys, "abelian", "--prime", "3", "--orders", "9,9", "--strategy", "exhaustive"
    )
    assert rc == EXIT_OK
    assert out == "SK1 = (C3)^2\n"


def test_metacyclic_human(capsys):
    rc, out, _ = run(capsys, "metacyclic", "--prime", "3", "--n", "4")
    assert rc == EXIT_OK
    assert out == "SK1 = (C3)^4\n"


def test_rank(capsys):
    rc, out, _ = run(capsys, "rank", "--family", "abelian", "--prime", "3", "--n", "2")
    assert (rc, out) == (EXIT_OK, "24\n")
    rc, out, _ = run(capsys, "rank", "--family", "metacyclic", "--prime", "3", "--n", "4")
    assert (rc, out) == (EXIT_OK, "8\n")


def test_basis_abelian(capsys):
    rc, out, _ = run(capsys, "basis", "--prime", "3", "--orders", "3,3")
    lines = out.splitlines()
    assert rc == EXIT_OK
    assert len(lines) == 5
    assert lines[0] == "index 1  tuple 0,0"
    rc, out, _ = run(capsys, "basis", "--prime", "3", "--orders", "3,3", "--format", "tsv")
    assert out.splitlines()[0] == "1\t0,0"


def test_basis_metacyclic(capsys):
    rc, out, _ = run(capsys, "basis", "--prime", "3", "--n", "4")
    lines = out.splitlines()
    assert rc == EXIT_OK
    assert len(lines) == 9
    assert "index 27  quotient 9  <b>" in lines
    rc, out, _ = run(capsys, "basis", "--prime", "3", "--n", "4", "--format", "tsv")
    assert "<b>\t27\t9" in out.splitlines()


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4)])
def test_basis_metacyclic_index_matches_member_sets(capsys, p, n):
    # The printed index is read off each member; it must equal |G| / |S|
    # counted on the explicit member set.
    rc, out, _ = run(capsys, "basis", "--prime", str(p), "--n", str(n), "--format", "tsv")
    assert rc == EXIT_OK
    G = make_metacyclic(p, n)
    want = [
        f"{S.label}\t{G.order // len(oracles.meta_members(S))}\t{S.quotient_order}"
        for S in genetic_basis_metacyclic(G)
    ]
    assert out.splitlines() == want


def parse_human(out):
    body = out.removeprefix("SK1 = ").strip()
    if body == "0":
        return {}
    terms = {}
    for term in body.split(" x "):
        base, exp = term.split(")^")
        terms[int(base.removeprefix("(C"))] = int(exp)
    return terms


def parse_tsv(out):
    terms = {}
    for line in out.splitlines():
        d, m = line.split("\t")
        terms[int(d)] = int(m)
    return terms


@pytest.mark.parametrize(
    "argv",
    [
        ("abelian", "--prime", "3", "--orders", "27,27"),
        ("abelian", "--prime", "3", "--orders", "3,3"),
        ("metacyclic", "--prime", "3", "--n", "5"),
    ],
)
def test_formats_round_trip(capsys, argv):
    rc, human, _ = run(capsys, *argv)
    assert rc == EXIT_OK
    rc, tsv, _ = run(capsys, *argv, "--format", "tsv")
    assert rc == EXIT_OK
    assert parse_human(human) == parse_tsv(tsv)


def test_conjecture_prediction(capsys):
    rc, out, _ = run(capsys, "conjecture", "--prime", "3", "--n", "3")
    assert rc == EXIT_OK
    assert out == "predicted SK1 = (C3)^8 x (C9)^2\n"


def test_conjecture_prediction_prints_its_multiplicities(capsys):
    # C_3^59 has about 3^57 times as many factors as an index can count: the
    # prediction prints its multiplicities and lists no factor.
    from sk1.conjecture import predicted_decomposition

    rc, out, _ = run(capsys, "conjecture", "--prime", "3", "--n", "60", "--format", "tsv")
    assert rc == EXIT_OK
    want = predicted_decomposition(3, 60).multiplicities
    assert out.splitlines() == [f"{3**i}\t{m}" for i, m in sorted(want.items())]
    assert len(want) == 59


@pytest.mark.parametrize("extra", [(), ("--format", "tsv"), ("--verify",)])
def test_conjecture_past_the_printable_is_a_guard(capsys, extra):
    # 3^9100 and its predicted multiplicities have more than the 4300
    # digits Python prints: the prediction is refused whole, and --verify
    # by the int64 refusal, whose message names C3^9100.
    rc, out, err = run(capsys, "conjecture", "--prime", "3", "--n", "9100", *extra)
    assert rc == EXIT_GUARD
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    if extra == ("--verify",):
        assert "C3^9100xC3^9100" in err and "int64" in err


@pytest.mark.parametrize("family", ["abelian", "metacyclic"])
def test_rank_past_the_printable_is_a_guard(capsys, family):
    # The rank of C_{3^20000}^2 or of M_20000(3) has more than the 4300
    # digits Python prints: exit 4 with nothing on stdout, as conjecture.
    rc, out, err = run(capsys, "rank", "--family", family, "--prime", "3", "--n", "20000")
    assert rc == EXIT_GUARD
    assert out == ""
    assert err.startswith("error: the rank cannot be printed") and "Traceback" not in err


@pytest.mark.parametrize("n", [9014, 9100, 10**9])
def test_metacyclic_basis_past_the_printable_is_refused_up_front(capsys, monkeypatch, n):
    # The listing holds the index 3^(n-1) of <b>, more than 4300 digits from
    # n = 9014 on: refused from p and n, before any member is built.
    def build(G):
        raise AssertionError(f"{G} was built")

    monkeypatch.setattr(cli, "genetic_basis_metacyclic", build)
    rc, out, err = run(capsys, "basis", "--prime", "3", "--n", str(n))
    assert rc == EXIT_GUARD
    assert out == ""
    assert f"M_{n}(3)" in err and f"3^{n - 1}" in err


@pytest.mark.parametrize("p", [3, 5, 7, 1009])
def test_printable_power_guard_is_exact(p):
    # Around the last printable power, the guard admits p^x exactly when
    # str() prints it.
    near = int(sys.get_int_max_str_digits() / math.log10(p))
    seen = set()
    for x in range(near - 3, near + 4):
        try:
            str(p**x)
            printable = True
        except ValueError:
            printable = False
        seen.add(printable)
        if printable:
            cli._guard_printable_power(p, x, "listing")
        else:
            with pytest.raises(cli.TooLarge, match=f"{p}\\^{x},"):
                cli._guard_printable_power(p, x, "listing")
    assert seen == {True, False}


def test_conjecture_verify_match(capsys):
    rc, out, _ = run(capsys, "conjecture", "--prime", "3", "--n", "2", "--verify")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "i\tpredicted\tcomputed"
    assert lines[1] == "1\t2\t2"
    assert lines[-1] == "MATCH"


def test_conjecture_verify_tsv(capsys):
    rc, out, _ = run(
        capsys, "conjecture", "--prime", "3", "--n", "3", "--verify", "--format", "tsv"
    )
    assert rc == EXIT_OK
    assert out.splitlines() == ["1\t8\t8", "2\t2\t2"]


def test_conjecture_verify_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(
        "sk1.cli.sk1",
        lambda G, strategy=None, max_order=None: CyclicDecomposition((3,)),
    )
    rc, out, _ = run(capsys, "conjecture", "--prime", "3", "--n", "3", "--verify")
    assert rc == EXIT_MISMATCH
    assert out.splitlines()[-1] == "MISMATCH"


def test_bad_prime_is_usage_error(capsys):
    rc, _, err = run(capsys, "abelian", "--prime", "2", "--orders", "4,4")
    assert rc == EXIT_USAGE
    assert err.startswith("error:")


def test_exhaustive_guard_exit_code(capsys):
    rc, _, err = run(
        capsys, "abelian", "--prime", "3", "--orders", "81,81", "--strategy", "exhaustive"
    )
    assert rc == EXIT_GUARD
    assert "error:" in err


def test_basis_enumeration_guard_exit_code(capsys):
    # 2 * 3^14 coefficient tuples x 15 generators > 10^7: the abelian basis
    # refuses before allocating them.
    rc, _, err = run(capsys, "basis", "--prime", "3", "--orders", ",".join(["3"] * 15))
    assert rc == EXIT_GUARD
    assert "error:" in err


def test_cyclic_group_beyond_the_element_cap(capsys):
    # C_{3^15}: 16 basis members and a trivial SK1, which prints nothing as TSV.
    rc, out, _ = run(capsys, "basis", "--prime", "3", "--orders", "14348907", "--format", "tsv")
    assert rc == EXIT_OK
    assert len(out.splitlines()) == 16
    rc, out, _ = run(capsys, "abelian", "--prime", "3", "--orders", "14348907", "--format", "tsv")
    assert rc == EXIT_OK
    assert out == ""


def test_metacyclic_guard_and_override(capsys):
    rc, _, err = run(capsys, "metacyclic", "--prime", "3", "--n", "7")
    assert rc == EXIT_GUARD
    rc, out, _ = run(
        capsys, "metacyclic", "--prime", "3", "--n", "7", "--max-order", "2187"
    )
    assert rc == EXIT_OK
    assert out == "SK1 = (C3)^10\n"


def test_metacyclic_int64_refusal_exits_4_from_m22_3(capsys):
    # The Smith form's modulus limit, q**2 < 2**63 for q = p^(n-2), is a
    # tripped guard: M_21(3) is the largest p = 3 group it admits.
    rc, out, _ = run(
        capsys, "metacyclic", "--prime", "3", "--n", "21", "--max-order", str(3**21),
        "--format", "tsv",
    )
    assert (rc, out) == (EXIT_OK, "3\t38\n")
    rc, out, err = run(capsys, "metacyclic", "--prime", "3", "--n", "22", "--max-order", str(3**22))
    assert rc == EXIT_GUARD == 4
    assert out == "" and "M_22(3)" in err and "q**2 >= 2**63" in err


@pytest.mark.parametrize("n", [9100, 10**9])
def test_metacyclic_guard_on_orders_past_the_printable(capsys, n):
    # 3^9100 has more than the 4300 digits Python prints, and 3^(10^9)
    # would take minutes to build: the guard compares n, not |G|.
    rc, out, err = run(capsys, "metacyclic", "--prime", "3", "--n", str(n))
    assert rc == EXIT_GUARD
    assert out == ""
    assert f"M_{n}(3)" in err and "729" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["metacyclic", "--prime", "3", "--n", "4", "--max-order", "0"],
        ["abelian", "--prime", "3", "--orders", "3,3", "--max-order", "-1",
         "--strategy", "exhaustive"],
        ["abelian", "--prime", "3", "--orders", "3,3", "--max-order", "0"],
        ["metacyclic", "--prime", "3", "--n", "4", "--max-order", "many"],
    ],
)
def test_max_order_below_one_is_invalid_input(argv, capsys):
    # A guard no group can pass is a bad argument (exit 2), not a tripped
    # guard (exit 4).
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "--max-order" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [("--strategy", "exhaustive"), ("--max-order", "0")])
def test_conjecture_takes_no_strategy_or_max_order(extra, capsys):
    # conjecture --verify always solves through representatives, so it has
    # neither option: each is an unknown argument (exit 2).
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "--prime", "3", "--n", "2", "--verify", *extra])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_empty_orders_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["abelian", "--prime", "3", "--orders", ","])
    assert exc.value.code == EXIT_USAGE


# ``main`` parses through one parser per process.  Each call below runs in
# this process after the ones before it, and must print what the same
# call prints in a new interpreter, whose parser has seen nothing else.
FRESH = "import sys; from sk1.cli import main; sys.exit(main(sys.argv[1:]))"
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-c", FRESH, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    return done.returncode, done.stdout, done.stderr


def in_process(capsys, argv):
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize(
    "calls",
    [
        (
            (("conjecture", "--prime", "3", "--n", "2", "--verify"), EXIT_OK, "i\tpredicted"),
            (("conjecture", "--prime", "3", "--n", "2"), EXIT_OK, "predicted SK1 = (C3)^2"),
        ),
        (
            (("basis", "--prime", "3", "--orders", "3,3"), EXIT_OK, "index 1  tuple 0,0"),
            (("basis", "--prime", "3", "--n", "4"), EXIT_OK, "index 1  quotient 1  G"),
        ),
        (
            (("abelian", "--prime", "3", "--orders", "9,9", "--strategy", "exhaustive"),
             EXIT_OK, "SK1 = (C3)^2"),
            # Order 2187: refused by the exhaustive guard, answered by default.
            (("abelian", "--prime", "3", "--orders", "27,27,3"), EXIT_OK, "SK1 = (C3)^45"),
        ),
        (
            (("abelian", "--prime", "3"), EXIT_USAGE, ""),
            (("rank", "--family", "abelian", "--prime", "3", "--n", "2"), EXIT_OK, "24"),
        ),
        (
            (("metacyclic", "--prime", "3", "--n", "4", "--format", "tsv"), EXIT_OK, "3\t4"),
            (("abelian", "--help"), EXIT_OK, "usage: sk1 abelian"),
        ),
    ],
    ids=["verify-predict", "orders-n", "exhaustive-default", "error-valid", "help-after-calls"],
)
def test_shared_parser_matches_a_fresh_process(capsys, monkeypatch, calls):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, rc, head in calls:
        got = in_process(capsys, argv)
        assert got == fresh_process(argv), argv
        assert got[0] == rc and got[1].startswith(head), argv


def test_shared_parser_looks_up_the_solver_per_call(capsys, monkeypatch):
    # The parser is built before the solver is replaced; the replacement
    # must still answer, and see each call's own strategy.
    main(["rank", "--family", "abelian", "--prime", "3", "--n", "1"])
    strategies = []

    def spy(G, strategy=None, max_order=None):
        strategies.append(strategy)
        return CyclicDecomposition(())

    monkeypatch.setattr(cli, "sk1", spy)
    argv = ["abelian", "--prime", "3", "--orders", "9,9"]
    assert main([*argv, "--strategy", "exhaustive"]) == EXIT_OK
    assert main(argv) == EXIT_OK
    assert strategies == ["exhaustive", "representatives"]
    assert capsys.readouterr().out.splitlines()[-2:] == ["SK1 = 0", "SK1 = 0"]


def test_main_builds_at_most_one_parser(capsys, monkeypatch):
    build_parser = cli.build_parser
    assert build_parser() is not build_parser()
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        main(["rank", "--family", "abelian", "--prime", "3", "--n", "2"])
        main(["rank", "--family", "metacyclic", "--prime", "3", "--n", "4"])
    finally:
        cli._parser.cache_clear()
    assert capsys.readouterr().out == "24\n8\n"
    assert len(built) <= 1
