"""Command line interface: subcommands, formats, exit codes, determinism."""

import json

import pytest

from funcfields import GF
from funcfields import cli
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
