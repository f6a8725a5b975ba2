"""Command line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from funcfields import GF
from funcfields import class_number, cli
from funcfields.cli import run, EXIT_FAULT, EXIT_OK, EXIT_REFUSED, EXIT_UNKNOWN, EXIT_USAGE
from funcfields.fq import parse_field
from funcfields.poly import InternalFault


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_table(capsys):
    code, out, _ = _capture(capsys, ["analyze", "--cubic", "--q", "7", "--A", "x^2", "--B", "1"])
    assert code == EXIT_OK
    assert "(1,1,1,1,1,1)" in out
    assert "genus = 1" in out
    assert "unit rank = 2" in out


def test_analyze_json_roundtrip_and_determinism(capsys):
    argv = ["analyze", "--cubic", "--q", "7", "--A", "x^2", "--B", "1", "--format", "json"]
    code1, out1, _ = _capture(capsys, argv)
    code2, out2, _ = _capture(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["model"]["kind"] == "cubic"
    assert payload["genus"]["genus"] == 1


def test_analyze_reducible_is_usage_error(capsys):
    code, _, err = _capture(capsys, ["analyze", "--cubic", "--q", "7", "--A", "x", "--B", "x - 1"])
    assert code == EXIT_USAGE
    assert "not irreducible" in err


def test_analyze_hypothesis_refusal_exit_code(capsys):
    # char-2 discriminant with B not cubefree refuses with exit 3
    code, _, err = _capture(capsys, ["analyze", "--cubic", "--q", "2", "--A", "x^2+x+1", "--B", "x^3"])
    assert code == EXIT_REFUSED


def test_places_unknown_exit_code(capsys):
    code, out, _ = _capture(
        capsys, ["places", "--quartic", "--q", "7", "--A", "x", "--B", "x", "--C", "x", "--max-deg", "2"]
    )
    assert code == EXIT_UNKNOWN
    assert "unknown" in out


def test_places_table(capsys):
    code, out, _ = _capture(
        capsys, ["places", "--cubic", "--q", "7", "--A", "x^2", "--B", "1", "--max-deg", "1"]
    )
    assert code == EXIT_OK
    assert out.count("\n") == 8  # infinity line plus 7 linear places


def test_basis_and_verification(capsys):
    code, out, _ = _capture(capsys, ["basis", "--cubic", "--q", "7", "--A", "x^2", "--B", "1"])
    assert code == EXIT_OK
    assert "verified: True" in out


def test_hbound_json(capsys):
    code, out, _ = _capture(
        capsys,
        ["hbound", "--pure-B", "x^2+x", "--q", "7", "--lambda", "2", "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    lo, hi = payload["interval"]
    assert lo <= 9 <= hi  # exact h of this model is 9
    assert payload["lambda"] == 2


def test_hexact(capsys):
    code, out, _ = _capture(capsys, ["hexact", "--pure-B", "x^2+x", "--q", "7"])
    assert code == EXIT_OK
    assert "h = 9" in out


def test_certify(capsys):
    code, out, _ = _capture(capsys, ["certify", "--pure-B", "x^2+x", "--q", "7", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["certificates"][0]["modulus"] == 3


def test_search_divisor(capsys):
    code, out, _ = _capture(
        capsys, ["search-divisor", "--pure-B", "x^2+x", "--q", "7", "--p", "3", "--budget", "1"]
    )
    assert code == EXIT_OK
    assert "witness" in out


@pytest.mark.parametrize("argv, count", [
    (["units", "--q", "7", "--A", "10*x^4+6*x", "--a", "x", "--construct", "thm247"], "10380877164 candidates"),
    (["search-divisor", "--q", "11", "--pure-B", "10*x^5+2*x^3+8", "--p", "5", "--budget", "1"], "1771561 triples"),
    # 512 triples, but in characteristic 2 every residue is a square, so a
    # candidate goes on to the p-th root search: 8^6 triples
    (["search-divisor", "--q", "8", "--pure-B", "9*x^4+6*x^3+11*x^2+2*x+2", "--p", "2", "--budget", "0"],
     "262144 triples"),
])
def test_exhaustive_searches_over_budget_are_refused_at_once(capsys, argv, count):
    t0 = time.perf_counter()
    code, out, err = _capture(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_REFUSED and out == ""
    assert "search-budget" in err and count in err


@pytest.mark.parametrize("argv", [
    # 72 p-th root searches of 729 triples each
    ["search-divisor", "--q", "9", "--pure-B", "x+12", "--p", "2", "--budget", "0"],
    # 7 p-th root searches of 15,625 triples each
    ["search-divisor", "--q", "5", "--pure-B", "10*x^5+12*x^4+6*x^3+10*x^2+2*x+8", "--p", "2", "--budget", "0"],
])
def test_divisor_search_budget_covers_all_its_root_searches(capsys, monkeypatch, argv):
    # each root search fits the budget on its own, their sum does not
    monkeypatch.setattr(class_number, "DIVISOR_SEARCH_BUDGET", 20_000)
    code, out, err = _capture(capsys, argv)
    assert code == EXIT_REFUSED and out == ""
    assert "search-budget" in err and "p-th root searches" in err


def test_units_construction(capsys):
    code, out, _ = _capture(
        capsys,
        ["units", "--q", "7", "--A", "x^3", "--a", "x", "--construct", "thm245"],
    )
    assert code == EXIT_OK
    assert "R = 3" in out


def test_units_refusal_exit(capsys):
    code, _, err = _capture(
        capsys,
        ["units", "--q", "7", "--A", "x^3", "--a", "x^2", "--construct", "thm245"],
    )
    assert code == EXIT_REFUSED


@pytest.mark.parametrize("argv", [
    # D = 4A^3 - 27B^2 = 3 x^4 (x^2 + 3) over F_7: x occurs to the fourth power
    ["units", "--q", "7", "--A", "3*x^2", "--a", "1", "--kappa", "6", "--construct", "thm245"],
    # B = a (a^2 - A) + kappa = 1 + 4 = 0 over F_5, so D = 0
    ["units", "--q", "5", "--A", "0", "--a", "1", "--kappa", "4", "--construct", "thm246"],
])
def test_units_refuses_d_not_d1_times_d2_squared(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == EXIT_REFUSED and out == ""
    assert "D-squarefree-split" in err


def test_hexact_over_the_place_budget_is_refused_at_once(capsys):
    # genus 6 over F_31: q^g = 887,503,681 places to enumerate
    t0 = time.perf_counter()
    code, out, err = _capture(capsys, ["hexact", "--pure-B", "x^7+x+1", "--q", "31"])
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_REFUSED and out == ""
    assert "place-budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        # 11^9, 11^99 and 11^(10^9) places of degree <= lambda, 7^12 of degree <= max-deg
        ["hbound", "--pure-B", "x^5+x+1", "--q", "11", "--lambda", "9"],
        ["hbound", "--pure-B", "x^5+x+1", "--q", "11", "--lambda", "99"],
        ["hbound", "--pure-B", "x^5+x+1", "--q", "11", "--lambda", "1000000000"],
        ["places", "--quartic", "--q", "7", "--A", "x", "--B", "x^2+1", "--C", "x^3+2", "--max-deg", "12"],
    ],
)
def test_sweeps_over_the_place_budget_are_refused_at_once(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = _capture(capsys, argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_REFUSED and out == ""
    assert "place-budget" in err


def test_place_budget_is_the_one_bound():
    # q^d at the budget is enumerated, one more place is refused
    assert class_number.PLACE_BUDGET == 10 ** 7
    for q, d in ((10, 7), (10 ** 7, 1), (2, 23), (3162, 2), (7, 8)):
        assert q ** d <= 10 ** 7
        class_number.check_place_budget(q, d, "d")
    for q, d in ((10, 8), (10 ** 7 + 1, 1), (2, 24), (3163, 2), (7, 9)):
        assert q ** d > 10 ** 7
        with pytest.raises(class_number.HypothesisRefused):
            class_number.check_place_budget(q, d, "d")


@pytest.mark.parametrize(
    "extra",
    [["--quartic"], ["--cubic"], ["--pure-B", "x^2"], ["--B", "5"], ["--C", "x"], ["--model-file", "model.txt"]],
)
def test_units_rejects_model_flags(capsys, extra):
    # units builds its own model from --q, --A and --a, so a model flag is a usage error
    code, out, err = _capture(
        capsys,
        ["units", "--q", "7", "--A", "x^3", "--a", "x", "--construct", "thm245"] + extra,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "unrecognized arguments" in err


def test_usage_error(capsys):
    code, _, _ = _capture(capsys, ["analyze", "--q", "7"])
    assert code == EXIT_USAGE


def test_model_file_input(tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text("cubic q=7 A=x^2 B=1\n")
    code, out, _ = _capture(capsys, ["analyze", "--model-file", str(path)])
    assert code == EXIT_OK
    assert "genus = 1" in out


def test_missing_model_file_is_usage_error(tmp_path, capsys):
    code, out, err = _capture(capsys, ["analyze", "--model-file", str(tmp_path / "absent.txt")])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: cannot read --model-file")


@pytest.mark.parametrize("argv, flags", [
    (["analyze", "--quartic", "--pure-B", "x^2+1", "--q", "7", "--A", "x", "--C", "x"], "--pure-B and --quartic"),
    (["search-divisor", "--q", "9", "--cubic", "--quartic", "--pure-B", "x+12", "--p", "2", "--budget", "0"],
     "--pure-B and --cubic and --quartic"),
    (["analyze", "--model-file", "absent.txt", "--cubic", "--q", "7", "--A", "x^2", "--B", "1"],
     "--model-file and --cubic"),
])
def test_more_than_one_model_source_is_usage_error(capsys, argv, flags):
    # the first source found used to win and the others went unread
    code, out, err = _capture(capsys, argv)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: give one model source, not %s\n" % flags


@pytest.mark.parametrize("budget", ["-1", "-2"])
def test_search_divisor_refuses_a_negative_budget(capsys, budget):
    code, out, err = _capture(
        capsys, ["search-divisor", "--pure-B", "x^2+x", "--q", "7", "--p", "3", "--budget", budget]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: the coordinate degree bound %s is negative\n" % budget


@pytest.mark.parametrize("argv, message", [
    (["places", "--cubic", "--q", "7", "--A", "x^2", "--B", "1", "--max-deg", "-1"], "the max-deg bound -1 is negative"),
    (["hexact", "--pure-B", "x^5+x+1", "--q", "7", "--max-genus", "-1"], "the genus budget -1 is negative"),
])
def test_negative_sweep_bounds_are_usage_errors(capsys, argv, message):
    # places used to print infinity alone and exit 0, hexact to refuse the genus with exit 3
    code, out, err = _capture(capsys, argv)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: %s\n" % message


def test_zero_sweep_bounds_stay_valid(capsys):
    code, out, _ = _capture(capsys, ["places", "--cubic", "--q", "7", "--A", "x^2", "--B", "1", "--max-deg", "0"])
    assert code == EXIT_OK and out == "infinity: (1,1,1,1,1,1)\n"
    code, out, _ = _capture(capsys, ["hexact", "--pure-B", "x+1", "--q", "7", "--max-genus", "0"])
    assert code == EXIT_OK and out.startswith("h = 1\n")
    code, _, err = _capture(capsys, ["hexact", "--pure-B", "x^5+x+1", "--q", "7", "--max-genus", "0"])
    assert code == EXIT_REFUSED and "genus 3 exceeds the oracle budget 0" in err


@pytest.mark.parametrize("p", ["0", "1", "-3", "4"])
def test_search_divisor_refuses_a_non_prime(capsys, p):
    code, out, err = _capture(
        capsys, ["search-divisor", "--pure-B", "x^2+x", "--q", "7", "--p", p, "--budget", "0"]
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: p = %s is not a prime\n" % p


def test_model_file_without_field_is_usage_error(tmp_path, capsys):
    path = tmp_path / "model.txt"
    path.write_text("cubic A=x^2 B=1\n")
    code, _, err = _capture(capsys, ["analyze", "--model-file", str(path)])
    assert code == EXIT_USAGE
    assert "q=" in err


def test_missing_field_flag_is_usage_error(capsys):
    code, _, err = _capture(capsys, ["analyze", "--cubic", "--A", "x", "--B", "1"])
    assert code == EXIT_USAGE
    assert "--q" in err


def test_no_seed_or_jobs_flags(capsys):
    for flag in ("--seed", "--jobs"):
        code, _, _ = _capture(capsys, ["analyze", "--cubic", "--q", "7", "--A", "x^2", "--B", "1", flag, "1"])
        assert code == EXIT_USAGE


def test_internal_fault_is_not_a_usage_error(monkeypatch, capsys):
    def broken(args):
        raise InternalFault("degree ledger broken")

    monkeypatch.setitem(cli._HANDLERS, "analyze", broken)
    code, out, err = _capture(capsys, ["analyze", "--cubic", "--q", "7", "--A", "x^2", "--B", "1"])
    assert code == EXIT_FAULT
    assert out == ""
    assert err == "internal fault: degree ledger broken\n"


@pytest.mark.parametrize("text, p, k", [("4", 2, 2), ("9", 3, 2), ("2^2", 2, 2), ("7", 7, 1)])
def test_parse_field_prime_powers(text, p, k):
    F = parse_field(text)
    assert (F.p, F.k) == (p, k)
    assert F is (GF(p) if k == 1 else GF(p, k))


@pytest.mark.parametrize("text", ["6", "1", "12"])
def test_parse_field_refuses_non_prime_powers(text):
    with pytest.raises(ValueError, match=r"not a prime power; write the field as p or p\^k"):
        parse_field(text)


def test_q_as_prime_power_matches_p_k_form(capsys):
    model = ["--pure-B", "x^2+x", "--format", "json"]
    code4, out4, _ = _capture(capsys, ["analyze", "--q", "4"] + model)
    code22, out22, _ = _capture(capsys, ["analyze", "--q", "2^2"] + model)
    assert code4 == code22 == EXIT_OK
    assert out4 == out22
    code, out, err = _capture(capsys, ["analyze", "--q", "6"] + model)
    assert code == EXIT_USAGE
    assert out == ""
    assert "p^k" in err


# -- fuzz: every argv ends in a documented exit code ---------------------------

SUBCOMMANDS = ("analyze", "places", "basis", "units", "hbound", "hexact", "certify", "search-divisor")
FIELDS = ("2", "3", "4", "5", "7", "8", "9", "11", "13", "2^2", "3^2")
NOT_FIELDS = ("6", "1", "0", "-3", "abc", "", "7^0")
# Garbage has no digits, so it never asks for a huge degree
GARBAGE = st.text(alphabet="x^+-*() =abq.", max_size=7)
# hypothesis favours the low end of integers(), so rare events are drawn this way
RARELY = st.sampled_from((False,) * 19 + (True,))
DOCUMENTED_EXITS = {EXIT_OK, EXIT_USAGE, EXIT_REFUSED, EXIT_UNKNOWN, EXIT_FAULT}


@st.composite
def poly_text(draw, degrees=st.integers(0, 6)):
    if draw(RARELY):
        return draw(GARBAGE)
    d = draw(degrees)
    coeffs = draw(st.lists(st.integers(0, 12), min_size=d + 1, max_size=d + 1))
    coeffs[d] = coeffs[d] or 1
    terms = ["%d*x^%d" % (c, e) for e, c in enumerate(coeffs) if c]
    return "+".join(reversed(terms)) or "0"


@st.composite
def cli_argv(draw, model_file):
    """A subcommand with its flags; models of degree <= 6 over q <= 13.

    Work stays small: hexact gets --max-genus <= 3, hbound --lambda <= 2,
    places --max-deg <= 2, and search-divisor a coordinate budget of 1 only
    over GF(2) and GF(3).  units --construct thm247 gets deg A in {0, 1,
    3, 4}: its search for intermediate units, exhaustive in q^(2 deg A),
    refuses more than units.UNIT_SEARCH_BUDGET candidates, which leaves
    deg A >= 3 refused at once for q <= 13, while deg A = 2 over GF(7) is
    accepted and takes about 5 s (tests/test_units.py runs deg A = 2 over
    GF(5)).
    """
    # valid choices come several times over, so most runs get past argument parsing
    sub = draw(st.sampled_from(SUBCOMMANDS * 3 + ("bogus",)))
    q = draw(st.sampled_from(FIELDS * 3 + NOT_FIELDS + (None,)))
    argv = [sub] + ([] if q is None else ["--q", q])
    if sub == "units":
        construct = draw(st.sampled_from(("thm245", "thm246", "thm247") * 3 + ("thm999",)))
        degrees = st.sampled_from((0, 1, 3, 4)) if construct == "thm247" else st.integers(0, 6)
        argv += ["--construct", construct, "--A", draw(poly_text(degrees)),
                 "--a", draw(poly_text()), "--kappa", str(draw(st.integers(-2, 13)))]
    else:
        kind = draw(st.sampled_from(("cubic", "quartic", "pure", "file") * 3 + ("missing-file", "none", "all")))
        if kind == "cubic":
            argv += ["--cubic", "--A", draw(poly_text()), "--B", draw(poly_text())]
        elif kind == "quartic":
            argv += ["--quartic", "--A", draw(poly_text()), "--B", draw(poly_text()), "--C", draw(poly_text())]
        elif kind == "pure":
            argv += ["--pure-B", draw(poly_text())]
        elif kind == "all":
            argv += ["--cubic", "--quartic", "--pure-B", draw(poly_text())]
        elif kind == "file":
            head = draw(st.sampled_from(("cubic", "quartic") * 3 + ("", "sextic")))
            q = draw(st.sampled_from(FIELDS * 3 + NOT_FIELDS))  # the file's field is the one used
            polys = [draw(poly_text()).replace(" ", "") for _ in range(3)]
            with open(model_file, "w") as fh:
                fh.write("%s q=%s A=%s B=%s C=%s" % (head, q, *polys))
            argv += ["--model-file", model_file]
        elif kind == "missing-file":
            argv += ["--model-file", model_file + ".absent"]
        if sub == "places":
            argv += ["--max-deg", str(draw(st.sampled_from((1, 2) * 3 + (0, -1))))]
        elif sub == "hbound":
            argv += ["--lambda", str(draw(st.sampled_from((1, 2) * 3 + (0, -1))))]
        elif sub == "hexact":
            argv += ["--max-genus", str(draw(st.sampled_from((1, 2, 3) * 2 + (0, -1))))]
        elif sub == "search-divisor":
            top = 1 if q in ("2", "3") else 0
            p = draw(st.sampled_from((2, 3, 5, 7) * 2 + (-1, 0, 1, 4)))
            argv += ["--p", str(p), "--budget", str(draw(st.integers(-3, top)))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("json", "table") * 3 + ("xml",)))]
    if draw(RARELY):
        argv += ["--seed", "1"]
    return argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_argv_ends_in_a_documented_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(cli_argv(os.path.join(tmp, "model.txt")))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in DOCUMENTED_EXITS, argv
