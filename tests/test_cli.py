import json
import os
import subprocess
import sys
import time

from fractions import Fraction

import pytest

import malgrange
from malgrange import groebner, parsing
from malgrange.cli import _Printer, main, run
from malgrange.parsing import (MAX_COEFFICIENT_BITS, MAX_NESTING,
                               MAX_PRODUCT_WORK, ParseError, parse_poly)
from malgrange.rings import Poly, ring
from malgrange.session import parse_session

INTEGRATOR = "ring Q[d]; system S = [[d, -1]] vars x, u;"
FREE_DRIFT = "ring Q[d]; system S = [[d]] vars x;"
MIXED_MODULE = "ring Q[d]; module M = coker [[d, 0], [0, 1]];"


def invoke(args, env_extra=None, timeout=None):
    env = dict(os.environ, MALGRANGE_COLOR="never")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "malgrange", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def session_file(tmp_path, text):
    p = tmp_path / "session.mg"
    p.write_text(text)
    return str(p)


# -- command output -----------------------------------------------------------------


def test_analyze_controllable_system(tmp_path):
    r = invoke(["analyze", session_file(tmp_path, INTEGRATOR)])
    assert r.returncode == 0
    assert r.stdout == ("analyze S: controllable: yes, autonomy: 0\n"
                        "  torsion = defect: ok\n")


def test_analyze_autonomous_system(tmp_path):
    r = invoke(["analyze", session_file(tmp_path, FREE_DRIFT)])
    assert r.returncode == 0
    assert r.stdout == ("analyze S: controllable: no, autonomy: 1\n"
                        "  generator x: witness d\n"
                        "  torsion = defect: ok\n")


# A = P*C over Q[x,y,z], P 2x2 and C 2x3 of degree 1 (the shape of the
# benchmark's analyze-xyz inputs): torsion planted by det P
PLANTED_XYZ = (
    "ring Q[x, y, z];\n"
    "system S = [[-2*x*y - x*z + 2*z^2 + x - 2, "
    "x*y + x*z + 2*y^2 + 3*y*z - 2*z - 1, "
    "2*x*y + y^2 + y*z - 2*x + y + z], "
    "[2*x*y + 4*x*z - 3*y*z + z^2 - y - 5*z, -x*y - x*z - 2*y^2 + y - z, "
    "-2*x*y - 6*x*z - y^2 - y*z - y - z]] vars u1, u2, u3;\n")


def test_analyze_completes_no_basis_with_tracked_cofactors(
        tmp_path, monkeypatch, capsys):
    # every kernel and lift under the double dual is read off an
    # elimination basis: no cofactors are tracked.  A count, not a time,
    # so it holds on any machine
    calls = []
    original = groebner.extended_buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "extended_buchberger", counting)
    groebner._CACHE.clear()
    assert main(["analyze", session_file(tmp_path, PLANTED_XYZ)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("analyze S: controllable: no, autonomy: 3\n")
    assert out.endswith("  torsion = defect: ok\n")
    assert calls == []


def test_torsion_completes_no_basis_with_tracked_cofactors(
        tmp_path, monkeypatch, capsys):
    # torsion generators and their annihilators are eliminations
    calls = []
    original = groebner.extended_buchberger

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "extended_buchberger", counting)
    groebner._CACHE.clear()
    text = "ring Q[x, y]; module M = coker [[x, y], [0, x^2]];"
    assert main(["torsion", session_file(tmp_path, text)]) == 0
    assert capsys.readouterr().out.startswith("torsion M: generators: 2\n")
    assert calls == []


def test_torsion_of_mixed_module(tmp_path):
    r = invoke(["torsion", session_file(tmp_path, MIXED_MODULE)])
    assert r.returncode == 0
    assert r.stdout == ("torsion M: generators: 1\n"
                        "  generator [1, 0]: annihilator d\n")


def test_torsion_command_presents_no_torsion_kernel(tmp_path, capsys):
    # torsion generators and annihilators are read off the embedding in M;
    # the kernel's own relations are built only when read, so never here
    text = "ring Q[x, y]; module M = coker [[x, y], [0, x^2]];"
    groebner._CACHE.clear()
    assert main(["torsion", session_file(tmp_path, text)]) == 0
    assert capsys.readouterr().out == (
        "torsion M: generators: 2\n"
        "  generator [0, 1]: annihilator x^2\n"
        "  generator [1, 0]: annihilator x^3\n")
    torsion = [(key[3], value[1]) for key, value in groebner._CACHE.items()
               if key[0] == "torsion"]
    assert len(torsion) == 1
    for relations, iota in torsion:
        assert ("syzygies_mod", iota.mat, relations) not in groebner._CACHE


def test_defect_command(tmp_path):
    r = invoke(["defect", session_file(tmp_path, MIXED_MODULE)])
    assert r.returncode == 0
    assert "matches torsion: ok" in r.stdout


def test_gb_command(tmp_path):
    text = "ring Q[d]; module M = coker [[d^2, d], [0, d]];"
    r = invoke(["gb", session_file(tmp_path, text)])
    assert r.returncode == 0
    assert r.stdout.startswith("gb M: elements:")


def test_hom_command(tmp_path):
    text = "ring Q[d]; module M = coker [[d]]; module N = coker [[d^2]]; hom M N;"
    r = invoke(["hom", session_file(tmp_path, text)])
    assert r.returncode == 0
    assert r.stdout.startswith("hom M N: generators: 1\n")


def test_embedded_commands_select_targets(tmp_path):
    # with an embedded 'torsion M;' only M is analyzed, not N
    text = ("ring Q[d]; module M = coker [[d]]; module N = coker [[d^2]]; "
            "torsion M;")
    r = invoke(["torsion", session_file(tmp_path, text)])
    assert "torsion M:" in r.stdout
    assert "torsion N:" not in r.stdout


def test_default_targets_cover_all_bindings(tmp_path):
    text = "ring Q[d]; module M = coker [[d]]; module N = coker [[d^2]];"
    r = invoke(["torsion", session_file(tmp_path, text)])
    assert "torsion M:" in r.stdout and "torsion N:" in r.stdout


def test_session_verify(tmp_path):
    text = INTEGRATOR + " module V = coker [[d^2]];"
    r = invoke(["verify", session_file(tmp_path, text)])
    assert r.returncode == 0
    assert r.stdout.endswith("failures\n")
    assert "0 failures" in r.stdout


# -- exit codes ---------------------------------------------------------------------


def test_corpus_verify_exits_zero():
    r = invoke(["verify", "--all"])
    assert r.returncode == 0
    assert r.stdout.rstrip().endswith("33 checks, 0 failures")


def test_verify_all_takes_no_session_file(tmp_path):
    # refused before the file is read: a valid, a malformed and a missing
    # file all give the same usage error
    valid, malformed = tmp_path / "valid.mg", tmp_path / "malformed.mg"
    valid.write_text(INTEGRATOR + " verify;")
    malformed.write_text("ring Q[]")
    for path in (valid, malformed, "/nonexistent/session.mg"):
        r = invoke(["verify", "--all", str(path)])
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: 'verify --all' takes no session file\n"


def test_all_applies_only_to_verify(tmp_path):
    for args in (["torsion", "--all", session_file(tmp_path, MIXED_MODULE)],
                 ["analyze", "--all"]):
        r = invoke(args)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == "error: --all applies only to 'verify'\n"


def test_missing_session_file_is_usage_error():
    r = invoke(["analyze"])
    assert r.returncode == 2
    assert "session file is required" in r.stderr


def test_unreadable_session_file_is_usage_error():
    r = invoke(["analyze", "/nonexistent/session.mg"])
    assert r.returncode == 2
    assert "cannot read" in r.stderr


def test_parse_error_is_usage_error(tmp_path):
    r = invoke(["analyze", session_file(tmp_path, "ring Q[]")])
    assert r.returncode == 2
    assert "1:7" in r.stderr


def test_duplicate_unknown_names_are_a_parse_error(tmp_path):
    text = "ring Q[d]; system S = [[d, 1]] vars x, x;"
    r = invoke(["analyze", session_file(tmp_path, text)])
    assert r.returncode == 2
    assert r.stderr == "error: 1:11: duplicate unknown name\n"


def test_non_utf8_session_file_is_usage_error(tmp_path):
    p = tmp_path / "session.mg"
    p.write_bytes(b"ring Q[d]; module M = coker [[d]];\n\xff\n")
    r = invoke(["torsion", str(p)])
    assert r.returncode == 2
    assert r.stderr == f"error: cannot read {p}: not valid UTF-8\n"


def test_deep_parentheses_are_a_parse_error(tmp_path):
    line2 = " module M = coker [["
    text = ("ring Q[d];\n" + line2 + "(" * 3000 + "d" + ")" * 3000
            + "]];")
    r = invoke(["torsion", session_file(tmp_path, text)])
    assert r.returncode == 2
    # reported at the first '(' past the bound
    col = len(line2) + MAX_NESTING
    assert r.stderr == (f"error: 2:{col}: parentheses nested deeper than "
                        f"{MAX_NESTING}\n")
    # the bound itself still parses, within the default recursion limit
    deepest = ("ring Q[d]; module M = coker [[" + "(" * MAX_NESTING + "d"
               + ")" * MAX_NESTING + "]];")
    plain = "ring Q[d]; module M = coker [[d]];"
    assert (parse_session(deepest).modules["M"]
            == parse_session(plain).modules["M"])


def test_double_minus_is_two_tokens(tmp_path):
    text = "ring Q[d]; module M = coker [[--d]];"
    r = invoke(["torsion", session_file(tmp_path, text)])
    assert r.returncode == 2
    assert r.stderr == ("error: 1:31: expected polynomial factor, "
                        "found '-'\n")


def test_huge_exponent_of_a_monomial_answers_quickly(tmp_path):
    text = "ring Q[d]; module M = coker [[d^99999999999]];"
    r = invoke(["torsion", session_file(tmp_path, text)], timeout=20)
    assert r.returncode == 0
    assert r.stdout == ("torsion M: generators: 1\n"
                        "  generator [1]: annihilator d^99999999999\n")


@pytest.mark.parametrize("text", [
    "ring Q[d]; module M = coker [[(d+1)^3000]];",
    "ring Q[x,y,z,w]; module M = coker [[(x+y+z+w)^30]];",
], ids=["univariate", "four-variables"])
def test_dense_power_fails_fast(tmp_path, text):
    start = time.perf_counter()
    r = invoke(["torsion", session_file(tmp_path, text)], timeout=20)
    assert time.perf_counter() - start < 10
    assert r.returncode == 2
    # reported at the '^' whose predicted work exceeds the bound
    assert r.stderr == (f"error: 1:{text.index('^')}: power too large: "
                        f"predicted work exceeds {MAX_PRODUCT_WORK} "
                        "coefficient products\n")


def test_work_bound_is_inclusive_for_products_and_powers(monkeypatch):
    monkeypatch.setattr(parsing, "MAX_PRODUCT_WORK", 12)
    rd = ring("d")
    # 3 * 4 products and (d+1)^2 (at most 3 terms, squared) are within
    assert parse_poly("(1+d+d^2)*(1+d+d^2+d^3)", rd).terms[0][0] == (5,)
    assert len(parse_poly("(d+1)^2", rd).terms) == 3
    assert parsing._power_work(parse_poly("d+1", rd), 3) == 16
    for text, what in (("(1+d+d^2)*(1+d+d^2+d^3+d^4)", "product"),
                       ("(d+1)^3", "power")):
        with pytest.raises(ParseError) as info:
            parse_poly(text, rd)
        op = "*" if what == "product" else "^"
        assert (info.value.line, info.value.col) == (1, text.index(op))
        assert info.value.msg == (f"{what} too large: predicted work "
                                  "exceeds 12 coefficient products")


def test_dense_powers_within_the_bound_still_parse():
    rd = ring("d")
    assert len(parse_poly("(d+1)^400", rd).terms) == 401
    assert (parse_poly("(d+1)^30*(d+1)^40", rd)
            == parse_poly("(d+1)^70", rd))
    assert len(parse_poly("(d^2+d+1)^100", rd).terms) == 201


def test_long_literal_sum_parses_in_linear_time():
    rd = ring("d")
    text = " + ".join(f"d^{k}" for k in range(20_000))
    start = time.perf_counter()
    parsed = parse_poly(text, rd)
    assert time.perf_counter() - start < 10
    assert parsed == Poly(rd, [((k,), 1) for k in range(20_000)])


def test_signed_summands_are_collected_once():
    rd = ring("d")
    assert parse_poly("-d - 2 + d - (d - 2) + 3*d", rd) == parse_poly("2*d", rd)
    assert parse_poly("d - d", rd) == Poly.zero(rd)


@pytest.mark.parametrize("poly", [
    "2^99999999999", "(2*d)^99999999999", "(1/3)^99999999999",
], ids=["integer", "term", "fraction"])
def test_coefficient_growth_fails_fast(tmp_path, poly):
    text = f"ring Q[d]; module M = coker [[{poly}]];"
    start = time.perf_counter()
    r = invoke(["torsion", session_file(tmp_path, text)], timeout=20)
    assert time.perf_counter() - start < 10
    assert r.returncode == 2
    # reported at the '^' whose predicted coefficients exceed the bound
    assert r.stderr == (f"error: 1:{text.index('^')}: power too large: "
                        f"predicted coefficients exceed {MAX_COEFFICIENT_BITS}"
                        " bits\n")


@pytest.mark.parametrize("poly, annihilator", [
    ("d^99999999999", "d^99999999999"),
    ("(-d)^99999999999", "d^99999999999"),
    ("2^64*d", "d"),
], ids=["monomial", "negated-monomial", "power-of-two"])
def test_unit_and_small_coefficient_powers_still_answer(tmp_path, poly,
                                                        annihilator):
    text = f"ring Q[d]; module M = coker [[{poly}]];"
    r = invoke(["torsion", session_file(tmp_path, text)], timeout=20)
    assert r.returncode == 0
    assert r.stdout == ("torsion M: generators: 1\n"
                        f"  generator [1]: annihilator {annihilator}\n")
    assert parse_poly("2^64", ring("d")) == Poly.constant(ring("d"), 2 ** 64)


def test_coefficient_bound_is_inclusive_for_products_and_powers(monkeypatch):
    monkeypatch.setattr(parsing, "MAX_COEFFICIENT_BITS", 12)
    rd = ring("d")
    # bit lengths: 2 and 1/2 have 2, 7 has 3, 16 has 5, 64 has 7, 2401 has
    # 12, and the coefficients +1 and -1 count 0; each bound below is met
    # exactly
    assert parse_poly("2^6", rd) == Poly.constant(rd, 64)
    assert parse_poly("(1/2*d)^6", rd) == Poly.term(rd, Fraction(1, 64), (6,))
    assert parse_poly("64*16", rd) == Poly.constant(rd, 1024)
    assert parse_poly("7*7*7*7*(-d)^100", rd) == Poly.term(rd, 2401, (100,))
    for text, op in (("2^7", "^"), ("(1/2*d)^7", "^"), ("64*32", "*"),
                     ("7*7*7*7*7", "*")):
        with pytest.raises(ParseError) as info:
            parse_poly(text, rd)
        assert (info.value.line, info.value.col) == (1, text.rindex(op))
        what = "power" if op == "^" else "product"
        assert info.value.msg == (f"{what} too large: predicted coefficients "
                                  "exceed 12 bits")


def test_long_integer_literals_are_a_parse_error(tmp_path):
    limit = MAX_COEFFICIENT_BITS
    rd = ring("d")
    assert parse_poly(str(2 ** limit - 1), rd).terms[0][1] == 2 ** limit - 1
    assert parse_poly("0" * 5000 + "7*d", rd) == Poly.term(rd, 7, (1,))
    for text in (str(2 ** limit), "1/" + "3" * 5000, "d^" + "9" * 5000):
        with pytest.raises(ParseError) as info:
            parse_poly(text, rd)
        assert info.value.msg == (f"integer literal too large: exceeds "
                                  f"{limit} bits")
    text = "ring Q[d]; module M = coker [[" + "9" * 5000 + "*d]];"
    r = invoke(["torsion", session_file(tmp_path, text)], timeout=20)
    assert r.returncode == 2
    assert r.stderr == (f"error: 1:{text.index('9')}: integer literal too "
                        f"large: exceeds {limit} bits\n")


def _decimal_text(n):
    """Decimal text of n > 0 from chunks of 1000 digits, each short enough
    for ``str``."""
    chunks = []
    while n >= 10 ** 1000:
        n, r = divmod(n, 10 ** 1000)
        chunks.append(str(r).zfill(1000))
    return str(n) + "".join(reversed(chunks))


@pytest.mark.parametrize("digit,count,text,expected", [
    # the parser builds an exponent of about 5000 digits
    ("9", 2500, "ring Q[d]; module M = coker [[(d^{N})^{N}]];",
     {"gb": "gb M: elements: 1\n  [d^{N2}]\n",
      "torsion": "torsion M: generators: 1\n"
                 "  generator [1]: annihilator d^{N2}\n"}),
    # a literal within MAX_COEFFICIENT_BITS whose square the basis holds
    ("7", 2900, "ring Q[x, y, z]; module M = coker [[x - {N}*y], [y - {N}*z]];",
     {"gb": "gb M: elements: 2\n  [x - {N2}*z]\n  [y - {N}*z]\n",
      "torsion": "torsion M: generators: 1\n"
                 "  generator [1]: annihilators x - {N2}*z, y - {N}*z\n"}),
], ids=["exponent", "coefficient"])
def test_integers_past_the_digit_limit_print_exactly(tmp_path, digit, count,
                                                     text, expected):
    n = int(digit * count)
    assert n.bit_length() <= MAX_COEFFICIENT_BITS
    n_text, n2_text = digit * count, _decimal_text(n * n)
    assert len(n2_text) > 4300
    path = session_file(tmp_path, text.format(N=n_text))
    for command, out in expected.items():
        r = invoke([command, path], timeout=60)
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout == out.format(N=n_text, N2=n2_text)


def test_unknown_command_is_usage_error(tmp_path):
    r = invoke(["frobnicate", session_file(tmp_path, INTEGRATOR)])
    assert r.returncode == 2


def test_invalid_color_mode_is_usage_error(tmp_path):
    r = invoke(["analyze", session_file(tmp_path, INTEGRATOR)],
               env_extra={"MALGRANGE_COLOR": "always"})
    assert r.returncode == 2
    assert "MALGRANGE_COLOR" in r.stderr


# -- determinism and JSON --------------------------------------------------------------


def test_corpus_verify_json_byte_identical():
    a = invoke(["verify", "--all", "--json"])
    b = invoke(["verify", "--all", "--json"])
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["format"] == 1
    assert payload["command"] == "verify"
    assert payload["exit"] == 0
    assert len(payload["results"]) == 33
    assert all(r.get("equal", r.get("bijective")) for r in payload["results"])


def test_seed_adds_main_theorem_checks():
    code, out = run(None, "verify", all_corpus=True, seed=5, json_out=True)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 36
    code2, out2 = run(None, "verify", all_corpus=True, seed=5, json_out=True)
    assert out == out2


def test_analyze_json_schema(tmp_path):
    r = invoke(["analyze", "--json", session_file(tmp_path, FREE_DRIFT)])
    payload = json.loads(r.stdout)
    assert payload["format"] == 1
    (res,) = payload["results"]
    assert res["check"] == "analysis"
    assert res["controllable"] is False
    assert res["autonomy"][0]["annihilators"] == ["d"]
    assert res["theorem_check"]["equal"] is True


def test_text_output_deterministic(tmp_path):
    path = session_file(tmp_path, MIXED_MODULE)
    a = invoke(["torsion", path])
    b = invoke(["torsion", path])
    assert a.stdout == b.stdout


# -- color handling ------------------------------------------------------------------


def test_no_escape_codes_when_not_a_tty(tmp_path):
    # MALGRANGE_COLOR=auto, stdout is a pipe
    r = invoke(["analyze", session_file(tmp_path, INTEGRATOR)],
               env_extra={"MALGRANGE_COLOR": "auto"})
    assert "\x1b[" not in r.stdout


def test_color_verdicts():
    assert _Printer(False).verdict(True) == "ok"
    assert _Printer(True).verdict(True) == "\x1b[32mok\x1b[0m"
    assert _Printer(True).verdict(False) == "\x1b[31mfailed\x1b[0m"


def test_json_output_never_colored():
    s = parse_session(FREE_DRIFT)
    code, out = run(s, "analyze", json_out=True, color=True)
    assert "\x1b[" not in out
    json.loads(out)


# -- start-up -----------------------------------------------------------------------


def test_cli_import_stays_light():
    # every invocation pays this import before its verdict; -S keeps
    # site-installed .pth hooks out of the check
    src = os.path.dirname(os.path.dirname(malgrange.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import malgrange.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'json'}"
            " & set(sys.modules)))")
    r = subprocess.run([sys.executable, "-S", "-c", code],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
