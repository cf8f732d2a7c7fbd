"""The command-line front end: table round trips, exit codes, pipelines."""

import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octolift import cli, triality, whittaker
from octolift.coset import is_strongly_primitive
from octolift.lifts import (HalfIntegralTable, QuatTable, SiegelTable,
                            classical_maass_lift, theta_star_table)
from octolift.octonion import B_BASIS, from_vector8, to_vector8
from octolift.quadspace import Bivector, GaussRational, wedge

import oracles


def _run(capsys, argv):
    code = cli.main(argv)
    report = json.loads(capsys.readouterr().out)
    return code, report


def _python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports octolift as this test
    session does."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


def test_cli_import_loads_no_scipy():
    proc = _python("import sys, octolift.cli; "
                   "print('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# --- table files --------------------------------------------------------------

def test_round_trip_all_kinds():
    for kind in cli.KINDS:
        t = cli.synth_table(kind, seed=11, bound=24, weight=4)
        assert cli.parse_table(oracles.serialize_table(t)) == t


def test_synth_deterministic():
    a = oracles.serialize_table(cli.synth_table("siegel", 5, 40, 4))
    b = oracles.serialize_table(cli.synth_table("siegel", 5, 40, 4))
    c = oracles.serialize_table(cli.synth_table("siegel", 6, 40, 4))
    assert a == b
    assert a != c


def test_synth_support_rules():
    h = cli.synth_table("halfintegral", 1, 50)
    assert all(n % 4 in (0, 3) for n in h.entries)
    s = cli.synth_table("siegel", 1, 50, weight=4)
    from octolift.coset import reduce_gram
    assert all(reduce_gram(t) == t for t in s.entries)


def test_parse_rejects_malformed():
    with pytest.raises(cli.TableError):
        cli.parse_table([])
    with pytest.raises(cli.TableError):
        cli.parse_table({"kind": "nope", "weight": 4, "entries": []})
    with pytest.raises(cli.TableError):
        cli.parse_table({"kind": "siegel", "weight": 4,
                         "entries": [{"key": [1, 0], "re": "1", "im": "0"}]})
    with pytest.raises(cli.TableError):
        cli.parse_table({"kind": "halfintegral", "weight": 4,
                         "entries": [{"key": 4, "re": 0.5, "im": "0"}]})
    with pytest.raises(cli.TableError):
        cli.parse_table({"kind": "halfintegral", "weight": 4,
                         "entries": [{"key": 4, "re": "1/0", "im": "0"}]})


@pytest.mark.parametrize("name, content, message", [
    ("latin1.json", b'{"kind": "siegel", "weight": 4, "entries": [], '
                    b'"note": "\xe9"}', "not UTF-8 text"),
    ("deep.json", b"[" * 200000, "JSON nested too deeply to decode"),
    ("indefinite.json", b'{"kind": "siegel", "weight": 4, "entries": '
                        b'[{"key": [1, 3, 1], "re": "1"}]}',
     "is not positive semidefinite"),
    ("semidefinite.json", b'{"kind": "siegel", "weight": 4, "entries": '
                          b'[{"key": [0, 0, 2], "re": "1"}]}',
     "cuspidal table keys must be pos. definite"),
    # a matrix row of 10^5 ints, shown shortened as a long value is
    pytest.param(
        "long-key.json", json.dumps(
            {"kind": "quaternionic", "weight": 4,
             "entries": [{"key": [[[0] * 10 ** 5, [1, 0]],
                                  [[1, 0], [0, 1]]], "re": "1"}]}).encode(),
        "entries[0]: expected a 2x2 integer matrix, got [[0, 0, 0, 0, 0, 0, "
        "...], [1, 0]]", id="long-key.json"),
])
def test_undecodable_or_invalid_file_exits_2(tmp_path, capsys, name,
                                             content, message):
    path = tmp_path / name
    path.write_bytes(content)
    code, rep = _run(capsys, ["theta-star", "--in", str(path), "--bound",
                              "1", "--out", str(tmp_path / "phi.json")])
    assert code == 2 and rep["status"] == "error"
    assert message in rep["details"][0]
    assert len(json.dumps(rep)) < 1000
    assert "internal error" not in rep["details"][0]
    if name in ("latin1.json", "deep.json"):
        assert str(path) in rep["details"][0]


def _first_value_error(value, part="re") -> str:
    """The diagnostic of a halfintegral table whose one entry has value
    as its real or imaginary part."""
    with pytest.raises(cli.TableError) as e:
        cli.parse_table({"kind": "halfintegral", "weight": 4,
                         "entries": [{"key": 0, part: value}]})
    return str(e.value)


@pytest.mark.parametrize("value", ["1e3", "-2.5E-3", "1e4300", "1e-4300",
                                   "1.5", "+1", " 3 ", "1_0"])
def test_other_value_forms_are_rejected(value):
    """Only the written shape loads: an exponent, a decimal point, a plus
    sign, whitespace or an underscore is a data error naming the entry and
    the string."""
    assert _first_value_error(value) == (
        f"entries[0]: bad rational string {value!r}: expected n or n/d in "
        f"ASCII digits, with an optional leading minus")


def test_value_diagnostics_are_distinct():
    """A zero denominator, too many digits, a value that is no string and
    any other string each have their own message; a long string is
    shortened in it."""
    assert _first_value_error("3/0", "im") == (
        "entries[0]: zero denominator in '3/0'")
    digits = _first_value_error("1/" + "7" * 4301)
    assert digits == (
        "entries[0]: '1/7777777777...7777777777777' has an integer of more "
        "than 4300 digits, Python's limit for string-to-integer conversion")
    assert _first_value_error(0.5) == (
        "entries[0]: rational values must be strings, got float")
    assert _first_value_error("x" * 100) == (
        "entries[0]: bad rational string 'xxxxxxxxxxxx...xxxxxxxxxxxxx': "
        "expected n or n/d in ASCII digits, with an optional leading minus")


def test_writer_names_the_key_past_the_digit_limit(tmp_path, capsys):
    # c(4) of 4,300 digits loads, but the 2^9 c(4) term of the lift at
    # (2, 0, 2) has 4,302
    c, F = tmp_path / "c.json", tmp_path / "F.json"
    cli.write_table(cli.synth_table("halfintegral", 0, 20, weight=10), str(c))
    data = json.loads(c.read_text())
    (entry,) = [e for e in data["entries"] if e["key"] == 4]
    entry["re"] = "1" + "0" * 4299
    c.write_text(json.dumps(data))
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "10",
                              "--bound", "20", "--out", str(F)])
    assert code == 2 and rep["status"] == "error"
    assert rep["details"] == [
        "TableError: cannot write the value at key [2, 0, 2]: it has more "
        "than 4300 digits, Python's limit for integer-to-string conversion"]
    assert not F.exists()


@pytest.mark.parametrize("value", [
    "1e10000000", "1e-4301", "1E+4_301",
    pytest.param("1" * 10 ** 6, id="a 10^6-digit integer")])
def test_huge_exponent_exits_2_at_once(tmp_path, capsys, value):
    """Fraction would build 10^(10^7) exactly for "1e10000000", which
    takes seconds; the reader rejects it, as any exponent form, at once,
    and a 10^6-digit string too, naming the entry and the string."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "halfintegral", "weight": 4,
                                "entries": [{"key": 0, "re": value}]}))
    start = time.monotonic()
    code, rep = _run(capsys, ["lift", "--in", str(path), "--weight", "4",
                              "--bound", "3", "--out",
                              str(tmp_path / "F.json")])
    assert time.monotonic() - start < 1.0
    assert code == 2 and rep["status"] == "error"
    assert rep["details"][0].startswith("TableError: entries[0]: ")
    assert f"'{value[:12]}" in rep["details"][0]


def test_rationals_survive_exactly():
    t = HalfIntegralTable(8, {3: GaussRational.make("22/7", "-1/3")})
    assert cli.parse_table(oracles.serialize_table(t)) == t


@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("kind", cli.KINDS)
def test_write_table_round_trips(tmp_path, kind, empty):
    table = cli.synth_table(kind, seed=11, bound=24, weight=4)
    if empty:
        table = type(table)(4, {})
    path = tmp_path / "t.json"
    cli.write_table(table, str(path))
    assert cli.load_table(str(path)) == table
    with open(path) as f:
        data = json.load(f)
    assert data == oracles.serialize_table(table)
    assert list(data) == ["kind", "weight", "entries"]
    # the kind and weight, one line per entry, the closing brackets
    lines = path.read_text().splitlines()
    assert len(lines) == len(table.entries) + 2
    for line, entry in zip(lines[1:-1], data["entries"]):
        assert json.loads(line.rstrip(",")) == entry


@pytest.mark.parametrize("enabled", [True, False])
def test_load_table_restores_the_collector_state(tmp_path, enabled):
    """load_table pauses the cyclic collector and leaves it as it found it,
    after a good file and after a TableError alike."""
    good, bad_json, bad_value = (tmp_path / f for f in
                                 ("good.json", "bad.json", "value.json"))
    cli.write_table(cli.synth_table("siegel", 1, 24, 4), str(good))
    bad_json.write_text('{"kind": "siegel",')
    bad_value.write_text('{"kind": "siegel", "weight": 4, "entries": '
                         '[{"key": [1, 0, 1], "re": "1/0"}]}')
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert cli.load_table(str(good)).entries
        assert gc.isenabled() is enabled
        for path in (bad_json, bad_value):
            with pytest.raises(cli.TableError):
                cli.load_table(str(path))
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# Values with a zero part, a negative part, a denominator above 1 in one
# part only, and integers of about 4,000 digits (Python writes and reads up
# to 4,300).
_EDGE_VALUES = [GaussRational.make(0), GaussRational.make(0, "-3/7"),
                GaussRational.make("5/2", 0), GaussRational.make(-4, "1/9"),
                GaussRational.make("22/7", 3),
                GaussRational.make("-22/7", "-1"),
                GaussRational.make(Fraction(10 ** 3999 + 7, 3),
                                   -10 ** 3998 - 1),
                GaussRational.make(1, Fraction(-1, 10 ** 3999 + 9))]


@pytest.mark.parametrize("kind", cli.KINDS)
def test_written_lines_match_the_dict_reference(tmp_path, kind):
    """The file of a synth table whose first values are replaced by the
    edge values holds the reference's JSON object, one entry per line, and
    loads back as the table."""
    table = cli.synth_table(kind, seed=3, bound=40, weight=6)
    keys = sorted(table.entries)
    assert len(keys) > len(_EDGE_VALUES)
    table = type(table)(6, {**table.entries, **dict(zip(keys, _EDGE_VALUES))})
    path = tmp_path / "t.json"
    cli.write_table(table, str(path))
    want = oracles.serialize_table(table)
    assert json.loads(path.read_text()) == want
    lines = path.read_text().splitlines()
    assert len(lines) == len(keys) + 2
    for line, entry in zip(lines[1:-1], want["entries"]):
        assert json.loads(line.rstrip(",")) == entry
    assert cli.load_table(str(path)) == table


_PINNED_SHA256 = {
    "halfintegral":
        "eac0fc7edada8d630e2021de9b15339857e2abb49bdef9528e582730ad6944c3",
    "siegel":
        "b049f8f8eff357a0dd6277abb5f8a744f15c8f50246e08d760181062fd6549e8",
    "quaternionic":
        "b8804559ea627596a54d33c2908d50026dd92da4d19f0899e08a4791e1d310a6",
    "theta-star":
        "8dcf32f2beffe3d889a43af8af318402244ce0fefddc643f96bbf9f639d4de9c",
}


def test_written_bytes_are_pinned(tmp_path):
    """write_table's output, byte for byte, for a synthetic table of each
    kind and for the theta* lift of a lifted table: the file format,
    the entry order and the value strings do not change."""
    tables = {kind: cli.synth_table(kind, 11, 24, 4) for kind in cli.KINDS}
    F = classical_maass_lift(tables["halfintegral"], 4, 24)
    tables["theta-star"] = theta_star_table(F, 6)
    path = tmp_path / "t.json"
    for name, table in tables.items():
        cli.write_table(table, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _PINNED_SHA256[name], name


# --- report and exit-code contract -----------------------------------------------

def test_pass_report(capsys):
    code, rep = _run(capsys, ["oct-check", "--bound", "25", "--seed", "4"])
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["command"] == "oct-check"
    assert rep["seed"] == 4
    assert "total_s" in rep["timings"]


def test_data_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, rep = _run(capsys, ["maass-check", "--in", str(bad)])
    assert code == 2
    assert rep["status"] == "error"
    assert "JSON" in rep["details"][0]


def test_missing_file_exits_2(capsys):
    code, rep = _run(capsys, ["maass-check", "--in", "/nonexistent.json"])
    assert code == 2 and rep["status"] == "error"


def test_wrong_kind_exits_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    cli.write_table(cli.synth_table("halfintegral", 0, 20), str(p))
    code, rep = _run(capsys, ["maass-check", "--in", str(p)])
    assert code == 2 and rep["status"] == "error"


def test_fail_exits_1(tmp_path, capsys):
    # a random quaternionic table is (overwhelmingly) not in the Spezialschar
    p = tmp_path / "phi.json"
    cli.write_table(cli.synth_table("quaternionic", 3, 6, weight=4), str(p))
    code, rep = _run(capsys, ["maass-check", "--in", str(p)])
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["details"]   # names the first failing key


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        cli.main(["no-such-command"])
    assert e.value.code == 2


# --- pipelines --------------------------------------------------------------------

def test_lift_theta_maass_fj_pipeline(tmp_path, capsys):
    c = tmp_path / "c.json"
    F = tmp_path / "F.json"
    phi = tmp_path / "phi.json"
    fj = tmp_path / "fj.json"

    code, _ = _run(capsys, ["synth", "--kind", "halfintegral", "--seed", "2",
                            "--bound", "64", "--weight", "4",
                            "--out", str(c)])
    assert code == 0
    code, _ = _run(capsys, ["lift", "--in", str(c), "--weight", "4",
                            "--bound", "64", "--out", str(F)])
    assert code == 0
    code, _ = _run(capsys, ["theta-star", "--in", str(F), "--bound", "16",
                            "--out", str(phi)])
    assert code == 0
    code, rep = _run(capsys, ["maass-check", "--in", str(phi)])
    assert code == 0 and rep["status"] == "pass"
    code, _ = _run(capsys, ["fj", "--in", str(phi), "--out", str(fj)])
    assert code == 0

    # the extracted Fourier-Jacobi table agrees with F where both are defined
    Ftab = cli.load_table(str(F))
    fjtab = cli.load_table(str(fj))
    assert isinstance(Ftab, SiegelTable) and isinstance(fjtab, SiegelTable)
    shared = set(Ftab.entries) & set(fjtab.entries)
    assert shared
    assert all(Ftab.entries[t] == fjtab.entries[t] for t in shared)


def test_fj_fails_on_a_class_with_two_values(tmp_path, capsys):
    """fj_pair(1, 2, 4) and fj_pair(1, 0, 3) are keys of a theta-star
    --bound 36 table with the same reduced class; altering one of them
    makes fj fail and write nothing."""
    F, phi, out = (tmp_path / f for f in ("F.json", "phi.json", "fj.json"))
    for argv in (["synth", "--kind", "siegel", "--seed", "7", "--bound",
                  "144", "--weight", "10", "--out", str(F)],
                 ["theta-star", "--in", str(F), "--bound", "36", "--out",
                  str(phi)],
                 ["fj", "--in", str(phi), "--out", str(out)]):
        assert _run(capsys, argv)[0] == 0
    data = json.loads(phi.read_text())
    (entry,) = [e for e in data["entries"]
                if e["key"] == [[[1, 0], [2, 1]], [[0, -1], [4, 0]]]]
    entry["re"] = str(Fraction(entry["re"]) + 1)
    phi.write_text(json.dumps(data))
    out.unlink()
    code, rep = _run(capsys, ["fj", "--in", str(phi), "--out", str(out)])
    assert code == 1 and rep["status"] == "fail"
    assert rep["details"] == [
        "keys [[[1, 0], [0, 1]], [[0, -1], [3, 0]]] and [[[1, 0], [2, 1]], "
        "[[0, -1], [4, 0]]] both reduce to the class (1, 0, 3) but carry "
        "different coefficients"]
    assert not out.exists()


def test_reduce_and_triality_commands(capsys):
    code, rep = _run(capsys, ["reduce", "--count", "5", "--seed", "9"])
    assert code == 0 and rep["status"] == "pass"
    code, rep = _run(capsys, ["triality-verify", "--bound", "3"])
    assert code == 0 and rep["status"] == "pass"
    assert rep["details"][-1] == {"counts": {
        "basis_pairs": 784, "cartan_elements": 28, "triples": 9, "cubes": 3}}


def test_triality_verify_names_a_failing_pair(capsys, monkeypatch):
    good = triality.ge_bracket

    def bad(A, B):          # wrong exactly on the basis pair (3, 5)
        out = good(A, B)
        num = out.num.copy()
        num[3, 5, 0] += out.den
        return triality.GEElement(num, out.den)

    monkeypatch.setattr(triality, "ge_bracket", bad)
    code, rep = _run(capsys, ["triality-verify", "--bound", "1"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["details"] == ["phi fails to preserve the bracket at basis "
                              "pair (3, 5)"]


def test_triality_verify_names_a_failing_round_trip(capsys, monkeypatch):
    good = triality.phi_inv

    def bad(Y):             # wrong exactly at basis element 17
        out = good(Y)
        num = out.num.copy()
        num[17, 3] += out.den
        return triality.GEElement(num, out.den)

    monkeypatch.setattr(triality, "phi_inv", bad)
    code, rep = _run(capsys, ["triality-verify", "--bound", "1"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["details"] == ["phi_inv(phi_iso(X)) != X at basis element 17"]


def test_triality_verify_names_a_failing_cartan_element(capsys, monkeypatch):
    good = triality.ge_cartan

    def bad(X):             # wrong exactly at basis element 9
        out = good(X)
        num = out.num.copy()
        num[9, 0] += out.den
        return triality.GEElement(num, out.den)

    monkeypatch.setattr(triality, "ge_cartan", bad)
    code, rep = _run(capsys, ["triality-verify", "--bound", "1"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["details"] == ["phi does not intertwine the Cartan "
                              "involutions at basis element 9"]


def _suite_cases(seed, count, shape):
    """The cases a random suite draws at seed, all blocks joined (the case
    axis is second, as in cli._blocks)."""
    return np.concatenate([c for _, c in cli._blocks(
        cli._suite_rng(seed), count, shape, -5, 5)], axis=1)


@pytest.mark.parametrize("command", ["oct-check", "triality-verify"])
def test_random_suites_take_any_seed(capsys, command):
    # numpy's default_rng rejects -1; the suites derive their generator
    reports = []
    for _ in range(2):
        code, rep = _run(capsys, [command, "--bound", "40", "--seed", "-1"])
        assert code == 0 and rep["status"] == "pass" and rep["seed"] == -1
        del rep["timings"]
        reports.append(rep)
    assert reports[0] == reports[1]
    assert (_suite_cases(-1, 40, (3, 8)) == _suite_cases(-1, 40, (3, 8))
            ).all()


def test_random_suites_cross_a_block_boundary(capsys):
    n = cli._BLOCK + 1
    code, rep = _run(capsys, ["oct-check", "--bound", str(n)])
    assert code == 0 and rep["details"][0].startswith(f"{n} random exact")
    code, rep = _run(capsys, ["triality-verify", "--bound", str(n)])
    assert code == 0
    assert rep["details"][-1]["counts"]["triples"] == 6 + n


def test_oct_check_names_a_failing_case(capsys, monkeypatch):
    bound, case = cli._BLOCK + 10, cli._BLOCK + 7     # in the second block
    x, y, _ = _suite_cases(3, bound, (3, 8))
    target = x[case]
    # mul8 sees x as its left factor, then conj(y)
    hit = ((x == target).all(axis=1)
           | (triality.conj8(y) == target).all(axis=1))
    assert int(np.argmax(hit)) == case
    good = triality.mul8

    def bad(a, b):          # wrong exactly where the left factor is target
        out = good(a, b)
        out[(a == target).all(axis=-1), 0] += 1
        return out

    monkeypatch.setattr(triality, "mul8", bad)
    code, rep = _run(capsys, ["oct-check", "--bound", str(bound),
                              "--seed", "3"])
    assert code == 1 and rep["status"] == "fail"
    assert (f"fails at case {case}: x={from_vector8(target.tolist())}, "
            in rep["details"][0])


def test_triality_verify_names_a_failing_triple(capsys, monkeypatch):
    bound, case = cli._BLOCK + 10, cli._BLOCK + 7     # in the second block
    u, v = _suite_cases(3, bound, (2, 8))
    assert int(np.argmax((u == u[case]).all(axis=1))) == case
    extra = wedge(to_vector8(B_BASIS[0]), to_vector8(B_BASIS[1])).num
    good = triality.mult_triples

    def bad(a, b):          # X2 is off by b1 ^ b2 where u is u[case]
        X1, X2, X3 = good(a, b)
        num = X2.num.copy()
        num[(a == u[case]).all(axis=-1)] += X2.den * extra
        return X1, Bivector(num, X2.den), X3

    monkeypatch.setattr(triality, "mult_triples", bad)
    code, rep = _run(capsys, ["triality-verify", "--bound", str(bound),
                              "--seed", "3"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["details"][-1] == (
        f"multiplication triple fails at case {case}: "
        f"u={from_vector8(u[case].tolist())}, "
        f"v={from_vector8(v[case].tolist())}")


def test_dirichlet_command(tmp_path, capsys):
    F = tmp_path / "F.json"
    code, _ = _run(capsys, ["synth", "--kind", "siegel", "--seed", "3",
                            "--bound", "300", "--weight", "4",
                            "--out", str(F)])
    assert code == 0
    code, rep = _run(capsys, ["dirichlet", "--in", str(F), "--bound", "6",
                              "--count", "2"])
    assert code == 0 and rep["status"] == "pass"
    assert len(rep["details"]) == 2


def test_dirichlet_names_a_count_beyond_the_candidates(tmp_path, capsys):
    """--count above the number of candidate pairs checks them all, passes
    and says how many of the requested pairs it checked; a count within
    reach adds no such line."""
    F, phi = tmp_path / "F.json", tmp_path / "phi.json"
    for argv in (["synth", "--kind", "siegel", "--seed", "3", "--bound",
                  "300", "--weight", "4", "--out", str(F)],
                 ["theta-star", "--in", str(F), "--bound", "9",
                  "--out", str(phi)]):
        assert _run(capsys, argv)[0] == 0
    # the Siegel branch draws from the 4 pairs over reduced triples of
    # discriminant <= 8
    code, rep = _run(capsys, ["dirichlet", "--in", str(F), "--bound", "2",
                              "--count", "5"])
    assert code == 0 and rep["status"] == "pass"
    assert len(rep["details"]) == 5
    assert rep["details"][-1] == ("checked 4 of the 5 pairs requested: "
                                  "there are only 4 candidates")
    code, rep = _run(capsys, ["dirichlet", "--in", str(F), "--bound", "2",
                              "--count", "4"])
    assert code == 0 and len(rep["details"]) == 4
    assert all(d.startswith("lambda=") for d in rep["details"])
    keys = sum(is_strongly_primitive(lam)
               for lam in cli.load_table(str(phi)).entries)
    code, rep = _run(capsys, ["dirichlet", "--in", str(phi), "--bound", "1",
                              "--count", "1000", "--seed", "2"])
    assert code == 0 and rep["status"] == "pass"
    assert len(rep["details"]) == keys + 1
    assert rep["details"][-1] == (f"checked {keys} of the 1000 pairs "
                                  f"requested: there are only {keys} "
                                  "candidates")


def test_whittaker_csv_output(tmp_path, capsys):
    out = tmp_path / "w.csv"
    code, rep = _run(capsys, ["whittaker", "--weight", "2", "--tol", "1e-6",
                              "--out", str(out)])
    assert code == 0 and rep["status"] == "pass"
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("v,")
    assert len(lines) == 1 + 4 * 5   # 2x2 grid, 2*ell+1 components each


@pytest.mark.parametrize("tol", ["nan", "-1", "0"])
def test_whittaker_rejects_bad_tol(tol):
    with pytest.raises(SystemExit) as e:
        cli.main(["whittaker", "--tol", tol])
    assert e.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["whittaker", "--tol", "x"], "argument --tol: expected a number > 0"),
    (["poincare", "--key", "a,b,c"],
     "argument --key: expected three integers a,b,c"),
])
def test_unparsable_values_name_the_expected_form(capsys, argv, message):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert not re.search(r"\b_\w", err)    # no private function name


def test_whittaker_infinite_tol_passes(capsys):
    code, rep = _run(capsys, ["whittaker", "--weight", "2", "--tol", "inf"])
    assert code == 0 and rep["status"] == "pass"
    assert "quadrature error estimate" in rep["details"][1]


def test_whittaker_reports_quadrature_work(capsys):
    code, rep = _run(capsys, ["whittaker", "--weight", "2"])
    assert code == 0
    work = rep["details"][-1]["quadrature"]
    assert work["intervals"] > 0
    assert work["nodes"] == 15 * work["intervals"]


def test_whittaker_reports_each_grid_point(capsys):
    """The quadrature entry lists each grid point with its 2 - w, which
    for the command's T is 2 + t (1.1 e^theta + 0.9 e^-theta), its
    interval count and its error estimate."""
    code, rep = _run(capsys, ["whittaker", "--weight", "4"])
    assert code == 0
    work = rep["details"][-1]["quadrature"]
    points = work["points"]
    assert [(p["t"], p["theta"]) for p in points] == [
        (0.7, 0.0), (0.7, 0.6), (1.3, 0.0), (1.3, 0.6)]
    assert sum(p["intervals"] for p in points) == work["intervals"]
    for p in points:
        want = 2.0 + p["t"] * (1.1 * np.exp(p["theta"])
                               + 0.9 * np.exp(-p["theta"]))
        assert abs(p["2-w"] - want) < 1e-12
        assert p["intervals"] > 0 and 0.0 < p["err"] < 1e-8


def test_whittaker_report_stays_strict_json_with_an_infinite_estimate(
        capsys):
    """At weight 150 the error estimates overflow in the first round; with
    --tol inf the check still passes, and the report names each infinite
    estimate as a string, not as JSON's non-standard Infinity."""
    assert cli.main(["whittaker", "--weight", "150", "--tol", "inf"]) == 0

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    rep = json.loads(capsys.readouterr().out, parse_constant=refuse)
    errs = [p["err"] for p in rep["details"][-1]["quadrature"]["points"]]
    assert "inf" in errs


@pytest.mark.parametrize("weight", ["-1", "201", "1000000"])
def test_whittaker_rejects_weight_out_of_range(weight):
    """A weight outside 0..200 is a usage error, raised before any numeric
    work: no RuntimeWarning and no large arrays."""
    proc = _python("import sys; from octolift.cli import main; "
                   f"sys.exit(main(['whittaker', '--weight', '{weight}']))")
    assert proc.returncode == 2
    assert ("argument --weight: expected a weight between 0 and 200"
            in proc.stderr)
    assert "RuntimeWarning" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("weight", ["40", "200"])
def test_whittaker_high_weight_fails_fast(weight):
    """Cancellation (weight 40) and overflow (weight 200) make the integral
    inaccurate; the check must end at its interval cap and fail, not
    hang, and an overflow is a failed check, not a numpy warning."""
    start = time.monotonic()
    proc = _python("import sys; from octolift.cli import main; "
                   f"sys.exit(main(['whittaker', '--weight', '{weight}']))")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "fail"
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    assert time.monotonic() - start < 10


def test_whittaker_nan_error_fails(capsys, monkeypatch):
    monkeypatch.setattr(whittaker, "s_v_sum",
                        lambda v, X: complex("nan"))
    code, rep = _run(capsys, ["whittaker", "--weight", "2", "--tol", "inf"])
    assert code == 1 and rep["status"] == "fail"
    assert "nan" in rep["details"][0]


def _nan_integrals(monkeypatch, at):
    """Make archimedean_integral_checks return a NaN first component in the
    numeric values of the grid points whose indices are in at."""
    checks = whittaker.archimedean_integral_checks

    def nan_numeric(*args):
        out = checks(*args)
        for i in at:
            num, closed = out[i]
            comps = (complex("nan"),) + num.components[1:]
            out[i] = whittaker.WhittakerValue(num.ell, comps, num.err), closed
        return out

    monkeypatch.setattr(whittaker, "archimedean_integral_checks",
                        nan_numeric)


def test_whittaker_nan_integral_fails(capsys, monkeypatch):
    _nan_integrals(monkeypatch, range(4))
    code, rep = _run(capsys, ["whittaker", "--weight", "2", "--tol", "inf"])
    assert code == 1 and rep["status"] == "fail"
    assert "nan" in rep["details"][0]


def test_whittaker_nan_in_third_grid_point_names_it(capsys, monkeypatch):
    """The grid is walked in (t, theta) order, so a NaN only in the third
    integral fails the check there."""
    _nan_integrals(monkeypatch, [2])
    code, rep = _run(capsys, ["whittaker", "--weight", "2", "--tol", "inf"])
    assert code == 1 and rep["status"] == "fail"
    assert "nan" in rep["details"][0]
    assert rep["details"][0].endswith("at t=1.3, theta=0.0")


def test_dirichlet_small_table_fails_fast(tmp_path, capsys):
    c = tmp_path / "c.json"
    F = tmp_path / "F.json"
    code, _ = _run(capsys, ["synth", "--kind", "halfintegral", "--seed", "7",
                            "--bound", "100", "--out", str(c)])
    assert code == 0
    code, _ = _run(capsys, ["lift", "--in", str(c), "--weight", "10",
                            "--bound", "100", "--out", str(F)])
    assert code == 0
    code, rep = _run(capsys, ["dirichlet", "--in", str(F), "--bound", "12",
                              "--count", "5"])
    assert code == 2 and rep["status"] == "error"
    assert "1152" in rep["details"][0]
    # the needed discriminant is known before any pair of the orbit is built
    start = time.monotonic()
    code, rep = _run(capsys, ["dirichlet", "--in", str(F), "--bound", "320",
                              "--count", "5"])
    assert time.monotonic() - start < 1.0
    assert code == 2 and "discriminant 819200" in rep["details"][0]


def test_lift_small_table_fails_fast(tmp_path, capsys):
    c, F = tmp_path / "c.json", tmp_path / "F.json"
    code, _ = _run(capsys, ["synth", "--kind", "halfintegral", "--seed", "7",
                            "--bound", "144", "--out", str(c)])
    assert code == 0
    # the largest n <= 10^6 with n = 0, 3 mod 4 is checked before any
    # triple is built
    start = time.monotonic()
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "10",
                              "--bound", "1000000", "--out", str(F)])
    assert time.monotonic() - start < 1.0
    assert code == 2 and rep["details"] == [
        "InsufficientTableError: the lift reads c(1000000), but the table "
        "stops at c(144): --bound 144 is the largest bound it supports"]
    assert not F.exists()
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "10",
                              "--bound", "146", "--out", str(F)])
    assert code == 0
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "10",
                              "--bound", "147", "--out", str(F)])
    assert code == 2 and "reads c(147)" in rep["details"][0]
    cli.write_table(HalfIntegralTable(10, {0: GaussRational.make(1)}),
                    str(c))
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "10",
                              "--bound", "3", "--out", str(F)])
    assert code == 2 and rep["details"] == [
        "InsufficientTableError: the lift reads c(3), but the table has no "
        "key above 0"]


def test_dirichlet_on_a_small_quaternionic_table_names_the_bound(tmp_path,
                                                                 capsys):
    c, F, phi = (tmp_path / f for f in ("c.json", "F.json", "phi.json"))
    for argv in (["synth", "--kind", "halfintegral", "--seed", "7",
                  "--bound", "100", "--out", str(c)],
                 ["lift", "--in", str(c), "--weight", "10", "--bound", "100",
                  "--out", str(F)],
                 ["theta-star", "--in", str(F), "--bound", "25",
                  "--out", str(phi)]):
        assert _run(capsys, argv)[0] == 0
    code, rep = _run(capsys, ["dirichlet", "--in", str(phi), "--bound", "12",
                              "--count", "5"])
    assert code == 2 and rep["status"] == "error"
    assert "(needed by lambda=" in rep["details"][0]
    assert "at |det g|=2" in rep["details"][0]
    assert "--bound 1 is the largest bound" in rep["details"][0]
    code, rep = _run(capsys, ["dirichlet", "--in", str(phi), "--bound", "1",
                              "--count", "5"])
    assert code == 0 and rep["status"] == "pass"


def test_dirichlet_on_a_siegel_table_with_a_hole_names_the_bound(tmp_path,
                                                                  capsys):
    """A Siegel table that lacks one coefficient of an orbit fails as a
    quaternionic table does: the message names lambda, |det g| and the
    largest bound the table supports for lambda."""
    F, hole = tmp_path / "F.json", tmp_path / "hole.json"
    assert _run(capsys, ["synth", "--kind", "siegel", "--seed", "5",
                         "--bound", "800", "--weight", "4",
                         "--out", str(F)])[0] == 0
    table = cli.load_table(str(F))
    entries = dict(table.entries)
    del entries[(1, 0, 4)]
    cli.write_table(SiegelTable(4, entries), str(hole))
    code, rep = _run(capsys, ["dirichlet", "--in", str(hole), "--bound",
                              "10", "--count", "4", "--seed", "1"])
    assert code == 2 and rep["details"] == [
        "InsufficientTableError: a_F(GramTriple(a=1, b=0, c=4)) not in "
        "table (needed by lambda=(((1, 0), (0, 1)), ((0, -1), (1, 0))) at "
        "|det g|=2): --bound 1 is the largest bound this table supports "
        "for lambda"]
    code, rep = _run(capsys, ["dirichlet", "--in", str(hole), "--bound",
                              "1", "--count", "4", "--seed", "1"])
    assert code == 0 and len(rep["details"]) == 4


def test_dirichlet_on_a_siegel_table_needs_the_discriminants_it_reads(
        tmp_path, capsys):
    """The pair breve(1, 1, 1) at --bound 1 reads a_F at discriminant 3
    alone, so a table that stops there suffices; one of disc 8 does not."""
    F = tmp_path / "F.json"
    assert _run(capsys, ["synth", "--kind", "siegel", "--bound", "3",
                         "--out", str(F)])[0] == 0
    code, rep = _run(capsys, ["dirichlet", "--in", str(F), "--bound", "1",
                              "--count", "1"])
    assert code == 0 and rep["details"] == [
        "lambda=(((1, 0), (1, 1)), ((0, -1), (1, 0))): verified to n=1"]
    code, rep = _run(capsys, ["dirichlet", "--in", str(F), "--bound", "1",
                              "--count", "4"])
    assert code == 2 and rep["details"] == [
        "InsufficientTableError: theta* reads a_F up to discriminant 8, but "
        "the table stops at 3: build the table to discriminant 8"]


def test_theta_star_small_table_fails_fast(tmp_path, capsys):
    F = tmp_path / "F.json"
    phi = tmp_path / "phi.json"
    code, _ = _run(capsys, ["synth", "--kind", "siegel", "--bound", "100",
                            "--out", str(F)])
    assert code == 0
    # --bound 36 has the key breve(1, 0, 36), of discriminant 144
    code, rep = _run(capsys, ["theta-star", "--in", str(F), "--bound", "36",
                              "--out", str(phi)])
    assert code == 2 and rep["status"] == "error"
    assert rep["details"] == [
        "InsufficientTableError: theta* reads a_F up to discriminant 144, "
        "but the table stops at 100: build the table to discriminant 144"]
    assert not phi.exists()
    code, _ = _run(capsys, ["theta-star", "--in", str(F), "--bound", "25",
                            "--out", str(phi)])
    assert code == 0


def test_theta_star_huge_bound_fails_before_any_pair(tmp_path, capsys):
    """The largest base pair, breve(1, 0, B), has discriminant 4 B, so the
    table is checked before any of the base pairs is built."""
    F, phi = tmp_path / "F.json", tmp_path / "phi.json"
    code, _ = _run(capsys, ["synth", "--kind", "siegel", "--bound", "144",
                            "--out", str(F)])
    assert code == 0
    start = time.monotonic()
    code, rep = _run(capsys, ["theta-star", "--in", str(F), "--bound",
                              "1000000", "--out", str(phi)])
    assert time.monotonic() - start < 1.0
    assert code == 2 and rep["details"] == [
        "InsufficientTableError: theta* reads a_F up to discriminant "
        "4000000, but the table stops at 144: build the table to "
        "discriminant 4000000"]
    assert not phi.exists()


def test_empty_tables_do_not_pass(tmp_path, capsys):
    c = tmp_path / "c.json"
    F = tmp_path / "F.json"
    phi = tmp_path / "phi.json"
    code, _ = _run(capsys, ["synth", "--kind", "halfintegral", "--seed", "1",
                            "--bound", "40", "--out", str(c)])
    assert code == 0
    # the smallest discriminant of a positive definite triple is 3
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "4",
                              "--bound", "2", "--out", str(F)])
    assert code == 2 and rep["status"] == "error"
    assert "use --bound 3 or more" in rep["details"][0]
    assert not F.exists()
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "4",
                              "--bound", "3", "--out", str(F)])
    assert code == 0 and rep["details"][0] == "1 keys verified"
    code, _ = _run(capsys, ["lift", "--in", str(c), "--weight", "4",
                            "--bound", "4", "--out", str(F)])
    assert code == 0      # theta-star --bound 1 reads discriminants <= 4
    cli.write_table(QuatTable(4, {}), str(phi))
    code, rep = _run(capsys, ["maass-check", "--in", str(phi)])
    assert code == 2 and rep["status"] == "error"
    assert "theta-star --bound 1 or more yields keys" in rep["details"][0]
    code, rep = _run(capsys, ["theta-star", "--in", str(F), "--bound", "1",
                              "--out", str(phi)])
    assert code == 0
    code, rep = _run(capsys, ["maass-check", "--in", str(phi)])
    assert code == 0 and rep["status"] == "pass"


@pytest.mark.parametrize("bound", ["1", "2"])
def test_synth_siegel_below_the_smallest_discriminant_is_an_error(
        tmp_path, capsys, bound):
    # no positive definite triple has discriminant below 3
    F = tmp_path / "F.json"
    code, rep = _run(capsys, ["synth", "--kind", "siegel", "--bound", bound,
                              "--out", str(F)])
    assert code == 2 and rep["status"] == "error"
    assert "use --bound 3 or more" in rep["details"][0]
    assert not F.exists()
    code, rep = _run(capsys, ["synth", "--kind", "siegel", "--bound", "3",
                              "--out", str(F)])
    assert code == 0 and "(1 keys," in rep["details"][0]


def test_lift_reports_weight_mismatch(tmp_path, capsys):
    c = tmp_path / "c.json"
    F = tmp_path / "F.json"
    code, _ = _run(capsys, ["synth", "--kind", "halfintegral", "--seed", "1",
                            "--bound", "40", "--weight", "10",
                            "--out", str(c)])
    assert code == 0
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "4",
                              "--bound", "40", "--out", str(F)])
    assert code == 0 and rep["status"] == "pass"
    assert any("weight 10" in d and "--weight 4" in d
               for d in rep["details"])
    assert cli.load_table(str(F)).weight == 4
    code, rep = _run(capsys, ["lift", "--in", str(c), "--weight", "10",
                              "--bound", "40", "--out", str(F)])
    assert code == 0
    assert not any("--weight" in d for d in rep["details"])


def test_poincare_report(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, rep = _run(capsys, ["poincare", "--key", "2,0,2", "--weight", "16",
                              "--bound", "1", "--out", str(out)])
    assert code == 0 and rep["status"] == "pass"
    work = rep["details"][1]
    assert (work["pairs"], work["groups"], work["powers"]) == (76560, 684,
                                                               186)
    assert work["fold_pairs"] == 124 * 248    # s1 up to sign, every s2
    assert len(work["shell_sup"]) == 1 and "shell_ratio" not in work
    assert (f"outermost shell sup-norm {cli._g17(work['shell_sup'][0])}"
            in rep["details"][0])
    assert out.read_text().splitlines()[0] == "v,re,im"


def test_poincare_reports_fold_pairs_and_the_shell_ratio(tmp_path, capsys):
    code, rep = _run(capsys, ["poincare", "--key", "1,0,1", "--weight", "16",
                              "--bound", "2", "--out", str(tmp_path / "p")])
    assert code == 0 and rep["status"] == "pass"
    work = rep["details"][1]
    assert (work["pairs"], work["groups"], work["fold_pairs"]) == (
        83056560, 32098, 2728448)
    assert work["shell_ratio"] == work["shell_sup"][1] / work["shell_sup"][0]
    assert 0.05 < work["shell_ratio"] < 0.06
    # no pair of 5,0,5 lies in shell 1, so the ratio is undefined
    code, rep = _run(capsys, ["poincare", "--key", "5,0,5", "--bound", "2",
                              "--out", str(tmp_path / "q")])
    assert code == 0 and rep["details"][1]["shell_sup"][0] == 0.0
    assert rep["details"][1]["shell_ratio"] is None


def test_poincare_rejects_a_radius_below_the_key(capsys):
    # q(v) <= 4 r^2 on [-r, r]^8: radius 1 cannot reach q = 5
    code, rep = _run(capsys, ["poincare", "--key", "5,0,5", "--bound", "1"])
    assert code == 2 and rep["status"] == "error"
    assert "the smallest radius that can is 2" in rep["details"][0]
    code, rep = _run(capsys, ["poincare", "--key", "4,0,17", "--bound",
                              "2"])
    assert code == 2 and "the smallest radius that can is 3" in \
        rep["details"][0]


def test_poincare_refuses_radius_and_weight_past_the_limits(capsys):
    code, rep = _run(capsys, ["poincare", "--key", "1,0,1", "--bound", "3"])
    assert code == 2 and rep["status"] == "error"
    assert "radius 3 is above 2" in rep["details"][0]
    code, rep = _run(capsys, ["poincare", "--key", "2,0,2", "--weight",
                              "400", "--bound", "1"])
    assert code == 2 and rep["status"] == "error"
    assert "weight 400 is above 200" in rep["details"][0]


def test_poincare_fails_on_non_finite_terms(capsys, monkeypatch):
    # at weight 400 on 2,0,2, 107 of the 801 components overflow to nan
    monkeypatch.setattr(cli, "_MAX_WEIGHT", 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # numpy must not warn either
        code, rep = _run(capsys, ["poincare", "--key", "2,0,2", "--weight",
                                  "400", "--bound", "1"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["details"] == ["component v=-54 is not finite: the "
                              "weight-400 terms overflow double precision"]


def test_parser_reuse_leaks_no_state(tmp_path, capsys, monkeypatch):
    F = tmp_path / "F.json"
    code, _ = _run(capsys, ["synth", "--kind", "siegel", "--bound", "32",
                            "--weight", "4", "--out", str(F)])
    assert code == 0
    runs = [(["dirichlet", "--in", str(F), "--bound", "2", "--count", "1",
              "--seed", "5"], 5),
            (["dirichlet", "--in", str(F), "--bound", "2", "--count", "1"],
             None),
            (["oct-check", "--bound", "3"], 0)]
    for argv, seed in runs:
        code, rep = _run(capsys, argv)
        assert code == 0
        assert (rep["command"], rep["seed"]) == (argv[0], seed)
    monkeypatch.setattr(cli, "cmd_oct_check",
                        lambda args: ("pass", [f"patched {args.bound}"]))
    code, rep = _run(capsys, ["oct-check", "--bound", "4"])
    assert code == 0 and rep["details"] == ["patched 4"]
    assert rep["seed"] == 0


def test_unexpected_exception_is_an_error_report(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("not a data error")

    monkeypatch.setattr(cli, "cmd_oct_check", boom)
    code, rep = _run(capsys, ["oct-check", "--bound", "1"])
    assert code == 2 and rep["status"] == "error"
    assert rep["details"][0].startswith(
        "internal error RuntimeError: not a data error (raised at "
        "test_cli.py:")


def test_closed_report_pipe_is_not_a_traceback():
    # the reader is gone before the report is written
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from octolift.cli import main; "
         "sys.exit(main(['poincare', '--key', '2,0,2', '--bound', '1']))"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_poincare_rejects_nonpositive_bound(capsys, bound):
    code, rep = _run(capsys, ["poincare", "--key", "1,0,1",
                              f"--bound={bound}"])
    assert code == 2 and rep["status"] == "error"
    assert "radius must be >= 1" in rep["details"][0]


def _fuzz_main(argv, usage_ok=False):
    """Run cli.main; check that the exit code is 0, 1 or 2, that it
    matches the JSON report's status, and that no traceback reaches stderr.
    Every run must print a report, unless usage_ok is set: then argparse
    may instead reject the arguments (exit 2, no report, 'error: argument'
    on stderr).  Returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            if not usage_ok:
                raise
            code = e.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if usage_ok and not out.getvalue():
        assert code == 2 and "error: argument" in err.getvalue()
    else:
        report = json.loads(out.getvalue())
        assert code == {"pass": 0, "fail": 1, "error": 2}[report["status"]]
    return code


@settings(max_examples=60, deadline=None)
@given(key=st.tuples(*[st.integers(-2, 2)] * 3),
       weight=st.sampled_from([-1, 0, 15, 16, 17]),
       bound=st.sampled_from([-1, 0, 1]))
def test_poincare_fuzz_exit_codes(key, weight, bound):
    _fuzz_main(["poincare", "--key=%d,%d,%d" % key, f"--weight={weight}",
                f"--bound={bound}"])


@settings(max_examples=24, deadline=None)
@given(weight=st.sampled_from([-1, 0, 200, 201]),
       tol=st.sampled_from(["-inf", "-1", "0", "-0", "nan", "1e-6"]))
def test_whittaker_fuzz_exit_codes(weight, tol):
    """Every weight outside 0..200 and every tol that is not > 0 is a usage
    error; at the edges inside, weight 0 passes and weight 200 fails (its
    K-Bessel row overflows)."""
    code = _fuzz_main(["whittaker", f"--weight={weight}", f"--tol={tol}"],
                      usage_ok=True)
    if weight in (0, 200) and tol == "1e-6":
        assert code == (0 if weight == 0 else 1)
    else:
        assert code == 2


@settings(max_examples=24, deadline=None)
@given(kind=st.sampled_from(cli.KINDS), bound=st.sampled_from([-1, 0, 1, 4]),
       weight=st.sampled_from([-2, 0, 3, 4]))
def test_synth_fuzz_exit_codes(tmp_path_factory, kind, bound, weight):
    """A bound below 1 (a usage error), a weight below 1, an odd siegel
    weight and a siegel bound below the smallest discriminant (data errors)
    exit 2; every other edge writes its table."""
    out = tmp_path_factory.mktemp("synth") / "t.json"
    code = _fuzz_main(["synth", f"--kind={kind}", f"--bound={bound}",
                       f"--weight={weight}", f"--out={out}"], usage_ok=True)
    bad_weight = weight < 1 or kind == "siegel" and weight % 2
    no_keys = kind == "siegel" and bound < cli._MIN_DISC
    assert code == (2 if bound < 1 or bad_weight or no_keys else 0)
    assert out.exists() == (code == 0)


def test_weight_below_one_is_a_data_error(tmp_path):
    """lift --weight -2, synth --kind halfintegral --weight -5, and a
    halfintegral (0), siegel (-2) or quaternionic (0) table, exit 2 with a
    message that names the weight, never as an internal error."""
    c = tmp_path / "c.json"
    assert _fuzz_main(["synth", "--kind=halfintegral", "--bound=40",
                       f"--out={c}"]) == 0
    runs = [(["lift", f"--in={c}", "--weight=-2", "--bound=40",
              f"--out={tmp_path / 'F.json'}"], None),
            (["synth", "--kind=halfintegral", "--bound=20", "--weight=-5",
              f"--out={tmp_path / 'h.json'}"], -5)]
    for kind, weight, argv in (
            ("halfintegral", 0, ["lift", "--weight=4", "--bound=40",
                                 f"--out={tmp_path / 'F.json'}"]),
            ("siegel", -2, ["theta-star", "--bound=4",
                            f"--out={tmp_path / 'phi.json'}"]),
            ("quaternionic", 0, ["dirichlet"])):
        table = tmp_path / f"{kind}.json"
        assert _fuzz_main(["synth", f"--kind={kind}", "--bound=40",
                           f"--out={table}"]) == 0
        data = json.loads(table.read_text())
        data["weight"] = weight
        table.write_text(json.dumps(data))
        runs.append(([argv[0], f"--in={table}"] + argv[1:], weight))
    for argv, weight in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        text = out.getvalue() + err.getvalue()
        assert code == 2, argv
        assert "internal error" not in text
        assert (f"weight must be at least 1, got {weight}" in text
                if weight is not None else "expected a weight >= 1" in text)
    assert not (tmp_path / "h.json").exists()
    assert not (tmp_path / "F.json").exists()


def test_fj_refuses_an_odd_weight_before_the_scan(tmp_path, capsys,
                                                 monkeypatch):
    """fj writes a siegel table, so an odd-weight quaternionic table is a
    data error that names the command, the file and its weight, raised
    before any key is read."""
    monkeypatch.chdir(tmp_path)
    assert _run(capsys, ["synth", "--kind", "quaternionic", "--weight", "3",
                         "--bound", "4", "--out", "q3.json"])[0] == 0
    monkeypatch.setattr(cli, "fj_pair", lambda t: pytest.fail("scanned"))
    code, rep = _run(capsys, ["fj", "--in", "q3.json", "--out", "fj.json"])
    assert code == 2 and rep["status"] == "error"
    assert rep["details"] == ["TableError: fj writes a siegel table, whose "
                              "weight must be even; q3.json has weight 3"]
    assert not (tmp_path / "fj.json").exists()


small = st.integers(-2, 3)


@settings(max_examples=40, deadline=None)
@given(count=small, bound=small | st.sampled_from([10 ** 6, 10 ** 6 + 1]),
       seed=st.integers(0, 99))
def test_reduce_fuzz_exit_codes(count, bound, seed):
    code = _fuzz_main(["reduce", f"--count={count}", f"--bound={bound}",
                       f"--seed={seed}"], usage_ok=True)
    assert code == (0 if count >= 0 and 1 <= bound <= 10 ** 6 else 2)


@settings(max_examples=20, deadline=None)
@given(command=st.sampled_from(["oct-check", "triality-verify"]),
       bound=small, seed=st.integers(0, 99))
def test_random_suite_fuzz_exit_codes(command, bound, seed):
    code = _fuzz_main([command, f"--bound={bound}", f"--seed={seed}"],
                      usage_ok=True)
    assert code == (0 if bound >= 0 else 2)


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--count=-1"], "--count: expected a count >= 0"),
    (["reduce", "--bound=0"], "--bound: expected a bound between 1 and "
                              "1000000"),
    (["reduce", "--bound=1000001"], "--bound: expected a bound between 1 "
                                    "and 1000000"),
    (["oct-check", "--bound=-1"], "--bound: expected a count >= 0"),
    (["triality-verify", "--bound=-1"], "--bound: expected a count >= 0"),
    (["dirichlet", "--in=F.json", "--count=0"],
     "--count: expected a count >= 1"),
    (["dirichlet", "--in=F.json", "--count=-1"],
     "--count: expected a count >= 1"),
    (["dirichlet", "--in=F.json", "--bound=0"],
     "--bound: expected a bound >= 1"),
    (["dirichlet", "--in=F.json", "--bound=-3"],
     "--bound: expected a bound >= 1"),
    (["theta-star", "--in=F.json", "--out=phi.json", "--bound=0"],
     "--bound: expected a bound >= 1"),
    (["theta-star", "--in=F.json", "--out=phi.json", "--bound=-1"],
     "--bound: expected a bound >= 1"),
    (["lift", "--in=c.json", "--weight=4", "--out=F.json", "--bound=0"],
     "--bound: expected a bound >= 1"),
    (["synth", "--kind=siegel", "--out=F.json", "--bound=0"],
     "--bound: expected a bound >= 1"),
])
def test_negative_counts_and_bounds_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# --- fuzzing the table commands ---------------------------------------------------

# Every kind of table file, as synth writes it, before any damage
_TABLES = {kind: oracles.serialize_table(cli.synth_table(kind, 5, bound, 4))
           for kind, bound in (("halfintegral", 40), ("siegel", 80),
                               ("quaternionic", 6))}
# Keys that no kind accepts: malformed, or outside every kind's support
_BAD_KEYS = [None, "x", 1.5, True, 5, [1, 2], [1, 2, 2], [[1, 2], [3]],
             [[[1, 0], [0, 1]], [[1, 0]]]]
_BAD_RATIONALS = ["1/0", "x", "", "1/2/3", 0.5, None, 3, ["1"]]
_DAMAGE = ("none", "kind", "empty", "rational", "key", "weight", "entries")


@st.composite
def _table_docs(draw):
    """(document, damage): a synth table, maybe damaged in one way."""
    doc = json.loads(json.dumps(_TABLES[draw(st.sampled_from(cli.KINDS))]))
    damage = draw(st.sampled_from(_DAMAGE))
    entries = doc["entries"]
    i = draw(st.integers(0, len(entries) - 1))
    if damage == "kind":
        doc["kind"] = draw(st.sampled_from(["nope", None, 3, "Siegel"]))
    elif damage == "empty":
        entries.clear()
    elif damage == "rational":
        entries[i][draw(st.sampled_from(["re", "im"]))] = draw(
            st.sampled_from(_BAD_RATIONALS))
    elif damage == "key":
        entries[i]["key"] = draw(st.sampled_from(_BAD_KEYS))
    elif damage == "weight":
        doc["weight"] = draw(st.sampled_from(["4", 4.0, None]))
    elif damage == "entries":
        doc["entries"] = draw(st.sampled_from([None, {}, "x", [1]]))
    return doc, damage


@settings(max_examples=80, deadline=None)
@given(table=_table_docs(), command=st.sampled_from(
           ["lift", "theta-star", "maass-check", "fj", "dirichlet"]),
       bound=st.integers(-2, 3), count=st.integers(-1, 2))
def test_table_command_fuzz_exit_codes(tmp_path_factory, table, command,
                                       bound, count):
    doc, damage = table
    work = tmp_path_factory.mktemp("fuzz")
    path = work / "in.json"
    path.write_text(json.dumps(doc))
    out = f"--out={work / 'out.json'}"
    argv = {"lift": ["--weight=4", f"--bound={bound}", out],
            "theta-star": [f"--bound={bound}", out],
            "maass-check": [],
            "fj": [out],
            "dirichlet": [f"--bound={bound}", f"--count={count}"]}[command]
    code = _fuzz_main([command, f"--in={path}", *argv], usage_ok=True)
    out_of_range = (f"--bound={bound}" in argv and bound < 1
                    or f"--count={count}" in argv and count < 1)
    if out_of_range or damage != "none":    # every damage is fatal
        assert code == 2


# The damages of _table_docs, plus: value strings of the written shape
# (some not in lowest terms, one at Python's digit limit) and not (among
# them forms that Fraction reads, a zero denominator, Arabic-Indic digits,
# a superscript digit and a denominator past Python's digit limit), keys
# whose leaves are bools, floats, strings or nested lists, keys outside a
# kind's support, and duplicate keys.
_VALUES = ["2/4", "+1", " 3 ", "1e3", "1_0", "1/0", "-0", "1.5", "1/-2",
           "1e10000000", "-6/4", "0/5", "007", "0/0", "\u0661/\u0662",
           "\u00b2", "1/" + "7" * 4301, "-" + "9" * 4300, *_BAD_RATIONALS]
_KEY_LEAVES = [True, False, 1.0, 2.5, [1], [[1, 2]], [], "1", None, -1, 0,
               1, 7]


def _key_paths(key, path=()):
    """The paths to every list and leaf in a JSON key, the key included."""
    yield path
    if isinstance(key, list):
        for j, part in enumerate(key):
            yield from _key_paths(part, path + (j,))


def _replaced(key, path, new):
    if not path:
        return new
    out = list(key)
    out[path[0]] = _replaced(key[path[0]], path[1:], new)
    return out


@st.composite
def _parser_docs(draw):
    """A synth table, intact or with one damage of _table_docs or of the
    kinds above, and maybe a second damage of another kind at another
    entry, before or after the first: the parser must name the first bad
    entry in file order, whichever column it is bad in."""
    if draw(st.booleans()):
        return draw(_table_docs())[0]
    doc = json.loads(json.dumps(_TABLES[draw(st.sampled_from(cli.KINDS))]))
    entries = doc["entries"]
    at = st.integers(0, len(entries) - 1)
    damages = draw(st.lists(st.sampled_from(["value", "key", "duplicate"]),
                            min_size=1, max_size=2, unique=True))
    indices = draw(st.lists(at, min_size=len(damages),
                            max_size=len(damages), unique=True))
    for damage, i in zip(damages, indices):
        if damage == "value":
            entries[i][draw(st.sampled_from(["re", "im"]))] = draw(
                st.sampled_from(_VALUES))
        elif damage == "key":
            key = entries[i]["key"]
            path = draw(st.sampled_from(list(_key_paths(key))))
            entries[i]["key"] = _replaced(key, path,
                                          draw(st.sampled_from(_KEY_LEAVES)))
        else:
            j = draw(at)
            entries[j]["key"] = json.loads(json.dumps(entries[i]["key"]))
    return doc


def _assert_parsed_as_the_oracle_does(doc):
    """The one-pass parser returns the oracle's table, and raises TableError
    with the oracle's diagnostic exactly when the oracle does."""
    try:
        want = oracles.parse_table_by_entry(doc)
    except cli.TableError as e:
        with pytest.raises(cli.TableError) as got:
            cli.parse_table(doc)
        assert str(got.value) == str(e)
    else:
        got = cli.parse_table(doc)
        assert got == want
        assert list(got.entries) == list(want.entries)


@settings(max_examples=400, deadline=None)
@given(doc=_parser_docs())
def test_parse_table_matches_the_per_entry_oracle(doc):
    _assert_parsed_as_the_oracle_does(doc)


def test_every_value_string_matches_the_oracle():
    """Each of _VALUES as the real and as the imaginary part of the first
    entry of each kind: the parser and the oracle's own reader give the
    same value or the same diagnostic.  Only the written shape loads:
    "+1", " 3 ", "1e3", "1_0" and "1.5", which Fraction reads, do not."""
    loaded = set()
    for value, doc, part in product(_VALUES, _TABLES.values(), ("re", "im")):
        entry = {**doc["entries"][0], part: value}
        _assert_parsed_as_the_oracle_does(
            {**doc, "entries": [entry, *doc["entries"][1:]]})
        try:
            cli.parse_table({**doc, "entries": [entry]})
            loaded.add(value)
        except cli.TableError:
            pass
    assert loaded == {"2/4", "-0", "-6/4", "0/5", "007", "-" + "9" * 4300}


@pytest.mark.parametrize("kind", cli.KINDS)
def test_every_key_leaf_damage_matches_the_oracle(kind):
    """Each part of the first key of each kind, replaced by each leaf of
    _KEY_LEAVES (the first key is (1, 0, 1) for siegel, so a bool there
    still gives a reduced triple)."""
    doc = _TABLES[kind]
    key = doc["entries"][0]["key"]
    for path in _key_paths(key):
        for leaf in _KEY_LEAVES:
            entry = {**doc["entries"][0], "key": _replaced(key, path, leaf)}
            _assert_parsed_as_the_oracle_does(
                {**doc, "entries": [entry, *doc["entries"][1:]]})


# --- the README -------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_table_format_quotes_the_value_grammar():
    """The README's table-format paragraph gives the reader's one value
    grammar as cli._WRITTEN spells it."""
    text = README.read_text()
    paragraph = text[text.index("Table files are JSON objects"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    assert f"`{cli._WRITTEN.pattern}`" in paragraph


def test_every_readme_command_parses():
    """Each `octolift ...` line of the README's command-line section, split
    as a shell would, is accepted by the parser; nothing is run."""
    section = README.read_text().split("## Command line", 1)[1]
    lines = [line for line in section.splitlines()
             if line.startswith("octolift ")]
    assert len(lines) >= 11
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        assert parser.parse_args(argv).command == argv[0], line
