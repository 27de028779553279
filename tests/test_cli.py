"""CLI surface: subcommands, exit codes, machine-readable output."""

import io
import json
import sys
from fractions import Fraction

import pytest

from probuchi import gen_m_id, gen_succinct
from probuchi.cli import run
from probuchi.textio import parse, serialize


@pytest.fixture()
def m_id_file(tmp_path):
    path = tmp_path / "m_id.pba"
    path.write_text(serialize(gen_m_id()))
    return str(path)


def out_doc(capsys):
    return json.loads(capsys.readouterr().out)


def test_prob_examples(m_id_file, capsys, tmp_path):
    assert run(["prob", m_id_file, ";10"]) == 0
    assert out_doc(capsys)["probability"] == "2/3"
    assert run(["prob", m_id_file, ";1"]) == 0
    assert out_doc(capsys)["probability"] == "1"
    assert run(["prob", m_id_file, ";0"]) == 0
    assert out_doc(capsys)["probability"] == "0"
    sq = tmp_path / "sq.pba"
    assert run(["gen", "m_id_squared"]) == 0
    sq.write_text(capsys.readouterr().out)
    assert run(["prob", str(sq), ";10"]) == 0
    assert out_doc(capsys)["probability"] == "4/9"


def test_gen_pipe_validate(capsys, monkeypatch):
    assert run(["gen", "succinct", "1"]) == 0
    text = capsys.readouterr().out
    assert parse(text) == gen_succinct(1)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["validate", "-"]) == 0
    doc = out_doc(capsys)
    assert doc["valid"] and doc["violations"] == []


def test_empty_almost_sure(m_id_file, capsys):
    assert run(["empty", m_id_file, "--semantics", "almost-sure"]) == 0
    doc = out_doc(capsys)
    assert doc["answer"] == "nonempty"
    assert doc["witness"]["lasso"] == ";1"
    assert doc["witness"]["certificate"]["acceptance"] == "1"


def test_universal_almost_sure(m_id_file, capsys):
    assert run(["universal", m_id_file, "--semantics", "almost-sure"]) == 0
    doc = out_doc(capsys)
    assert doc["answer"] == "non-universal"
    assert doc["counterexample"]["lasso"] == ";0"
    assert doc["counterexample"]["certificate"]["acceptance"] == "0"


def test_empty_positive_on_monitor(m_id_file, capsys):
    assert run(["empty", m_id_file, "--semantics", "positive"]) == 0
    doc = out_doc(capsys)
    assert doc["answer"] == "nonempty"
    assert "certificate" in doc["witness"]


def test_rank(m_id_file, capsys):
    assert run(["rank", m_id_file]) == 0
    doc = out_doc(capsys)
    assert doc["levels"] == {"q0": 0, "q1": 1, "qr": 2}


def test_mc(m_id_file, capsys):
    assert run(["mc", m_id_file, ";10", "--samples", "2000", "--seed", "5"]) == 0
    doc = out_doc(capsys)
    assert abs(doc["mean"] - 2 / 3) <= 3 * doc["stderr"]


def test_monitor(capsys, monkeypatch, tmp_path):
    from probuchi import complement_to_fpm

    path = tmp_path / "mon.fpm"
    path.write_text(serialize(complement_to_fpm(gen_m_id())))
    monkeypatch.setattr("sys.stdin", io.StringIO("0\n0\n"))
    assert run(["monitor", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["0", "1/2", "5/8"]


def test_complement_rejects_wrong_role(capsys, monkeypatch, m_id_file):
    assert run(["complement", m_id_file]) == 1


def test_witness(m_id_file, capsys):
    assert run(["witness", m_id_file, "--max-len", "1", "--max-j", "3"]) == 0
    doc = out_doc(capsys)
    assert doc["answer"] == "nonempty"
    assert doc["witness"]["states"] == ["q1"]
    assert doc["witness"]["u"] == "1"
    assert doc["lower_bound"] == "1/2"


def test_witness_rejects_negative_x(m_id_file, capsys):
    code = run(["witness", m_id_file, "--max-len", "1", "--max-j", "1", "--x", "-1"])
    assert code == 1
    assert "x must be at least 0" in capsys.readouterr().err


def test_witness_unknown_exit_code(tmp_path, capsys):
    dead = (
        "type: pba\nalphabet: a\nstates: p q\ninit: p\nfinal: q\n"
        "p -a-> p : 1\nq -a-> q : 1\n"
    )
    path = tmp_path / "dead.pba"
    path.write_text(dead)
    assert run(["witness", str(path), "--max-len", "2", "--max-j", "2"]) == 2
    assert out_doc(capsys)["answer"] == "unknown"


def test_contain(m_id_file, tmp_path, capsys):
    top = tmp_path / "top.pba"
    top.write_text(
        "type: pba\nalphabet: 0 1\nstates: s\ninit: s\nfinal: s\n"
        "s -0-> s : 1\ns -1-> s : 1\n"
    )
    code = run(
        ["contain", str(top), m_id_file, "--semantics", "almost-sure", "--bound", "2"]
    )
    assert code == 0
    doc = out_doc(capsys)
    assert doc["answer"] == "refuted" and doc["witness"]["lasso"] == ";0"
    code = run(
        ["contain", m_id_file, str(top), "--semantics", "almost-sure", "--bound", "2"]
    )
    assert code == 2
    assert out_doc(capsys)["answer"] == "unknown"


def test_construction_pipeline(tmp_path, capsys):
    d = tmp_path / "d.dra"
    d.write_text(
        "type: dra\nalphabet: a b\nstates: qb qa\ninit: qb\npair: {} {qa}\n"
        "qa -a-> qa\nqa -b-> qb\nqb -a-> qa\nqb -b-> qb\n"
    )
    assert run(["dra2hpba", str(d)]) == 0
    hpba_text = capsys.readouterr().out
    h = parse(hpba_text)
    assert h.role == "hpba"
    hfile = tmp_path / "h.hpba"
    hfile.write_text(hpba_text)
    assert run(["hpba2nba", str(hfile)]) == 0
    nba_text = capsys.readouterr().out
    assert parse(nba_text).role == "nba"
    assert run(["closure", str(hfile)]) == 0
    assert parse(capsys.readouterr().out).role == "nba"


def test_union_product_intersect(tmp_path, capsys, m_id_file):
    other = tmp_path / "sw.pba"
    assert run(["gen", "m_id_swapped"]) == 0
    other.write_text(capsys.readouterr().out)
    assert run(["union", m_id_file, str(other)]) == 0
    u = parse(capsys.readouterr().out)
    assert u.role == "pba"
    assert run(["intersect", m_id_file, str(other)]) == 1  # state names collide
    capsys.readouterr()
    mon1 = tmp_path / "c1.fpm"
    from probuchi import complement_to_fpm

    mon1.write_text(serialize(complement_to_fpm(gen_m_id())))
    assert run(["product", str(mon1), str(mon1)]) == 0
    assert parse(capsys.readouterr().out).role == "fpm"


def test_decompose(tmp_path, capsys):
    pra = tmp_path / "r.pra"
    pra.write_text(
        "type: pra\nalphabet: a\nstates: s t\ninit: s\npair: {s} {t}\n"
        "s -a-> t : 1\nt -a-> t : 1\n"
    )
    assert run(["decompose", str(pra)]) == 0
    doc = out_doc(capsys)
    assert len(doc["members"]) == 1
    assert doc["members"][0]["I"] == [1] and doc["members"][0]["j"] == 1


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pba"
    bad.write_text("type: pba\nalphabet: a\n")
    assert run(["prob", str(bad), ";a"]) == 1
    assert run(["prob", str(tmp_path / "missing.pba"), ";a"]) == 1


def test_resource_limit_exit_code(tmp_path, capsys, monkeypatch):
    pra = tmp_path / "many.pra"
    pairs = "\n".join("pair: {s} {t}" for _ in range(7))
    pra.write_text(
        f"type: pra\nalphabet: a\nstates: s t\ninit: s\n{pairs}\n"
        "s -a-> t : 1\nt -a-> t : 1\n"
    )
    assert run(["decompose", str(pra)]) == 2
    doc = out_doc(capsys)
    assert doc["answer"] == "resource-limit"


def test_bad_cap_variable_is_an_input_error_naming_it(m_id_file, capsys, monkeypatch):
    monkeypatch.setenv("PROBUCHI_MONOID_CAP", "abc")
    assert run(["universal", m_id_file]) == 1
    err = capsys.readouterr().err
    assert "PROBUCHI_MONOID_CAP" in err and "'abc'" in err
    monkeypatch.setenv("PROBUCHI_COMPLEMENT_CAP", "1e3")
    nba = m_id_file.replace("m_id.pba", "one.nba")
    with open(nba, "w") as fh:
        fh.write("type: nba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s\n")
    assert run(["complement", nba]) == 1
    assert "PROBUCHI_COMPLEMENT_CAP" in capsys.readouterr().err


def _leak_monitor(tmp_path):
    """Monitor that survives each 'a' with probability 1023/1024."""
    path = tmp_path / "leak.fpm"
    path.write_text(
        "type: fpm\nalphabet: a b\nstates: q r\ninit: q\nfinal: q\nreject: r\n"
        "q -a-> q : 1023/1024\nq -a-> r : 1/1024\nq -b-> q : 1\n"
        "r -a-> r : 1\nr -b-> r : 1\n"
    )
    return str(path)


def _unlimited_int(text: str) -> int:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_rationals_beyond_the_int_str_digit_limit(tmp_path, capsys, monkeypatch):
    # (1023/1024)^1500 has a 4,516-digit numerator, past Python's default
    # 4,300-digit conversion limit; the CLI must still print it exactly.
    limit = sys.get_int_max_str_digits()
    leak = _leak_monitor(tmp_path)
    survive = Fraction(1023, 1024) ** 1500
    assert run(["prob", leak, "a" * 1500 + ";b"]) == 0
    num, den = out_doc(capsys)["probability"].split("/")
    assert len(num) > 4300
    assert Fraction(_unlimited_int(num), _unlimited_int(den)) == survive
    monkeypatch.setattr("sys.stdin", io.StringIO("a\n" * 1500))
    assert run(["monitor", leak]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1501 and lines[1] == "1/1024"
    num, den = lines[-1].split("/")
    assert Fraction(_unlimited_int(num), _unlimited_int(den)) == 1 - survive
    assert sys.get_int_max_str_digits() == limit


def test_lasso_output_reads_back_over_a_mixed_width_alphabet(tmp_path, capsys):
    path = tmp_path / "mixed.pba"
    path.write_text(
        "type: pba\nalphabet: ab a b\nstates: s\ninit: s\nfinal: s\n"
        "s -ab-> s : 1\ns -a-> s : 1\ns -b-> s : 1\n"
    )
    assert run(["prob", str(path), "a,b;b"]) == 0
    doc = out_doc(capsys)
    assert doc["lasso"] == "a,b;b" and doc["probability"] == "1"
    nba = tmp_path / "mixed.nba"
    nba.write_text(
        "type: nba\nalphabet: ab a b\nstates: s u t\ninit: s\nfinal: t\n"
        "s -a-> u\nu -b-> t\nt -b-> t\n"
    )
    assert run(["empty", str(nba)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["witness"]["lasso"] == "a,b;b"
    assert captured.err.strip() == "nonempty, witness a,b;b"


def test_witness_zero_denominator_is_an_input_error(m_id_file, capsys):
    code = run(["witness", m_id_file, "--max-len", "1", "--max-j", "1", "--x", "1/0"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--x" in captured.err


def test_caps_below_one_are_input_errors_naming_them(
    m_id_file, tmp_path, capsys, monkeypatch
):
    nba = tmp_path / "one.nba"
    nba.write_text("type: nba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s\n")
    pra = tmp_path / "one.pra"
    pra.write_text(
        "type: pra\nalphabet: a\nstates: s\ninit: s\npair: {} {s}\ns -a-> s : 1\n"
    )
    cases = [
        (["universal", m_id_file, "--monoid-cap", "0"], "--monoid-cap"),
        (["empty", m_id_file, "--monoid-cap", "-2"], "--monoid-cap"),
        (["complement", str(nba), "--complement-cap", "-1"], "--complement-cap"),
        (["decompose", str(pra), "--cap", "-1"], "--cap"),
    ]
    for argv, name in cases:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and name in captured.err
    monkeypatch.setenv("PROBUCHI_MONOID_CAP", "-3")
    assert run(["universal", m_id_file]) == 1
    assert "PROBUCHI_MONOID_CAP" in capsys.readouterr().err
    monkeypatch.setenv("PROBUCHI_COMPLEMENT_CAP", "0")
    assert run(["complement", str(nba)]) == 1
    assert "PROBUCHI_COMPLEMENT_CAP" in capsys.readouterr().err


def test_contain_bound_below_one_is_an_input_error(m_id_file, capsys):
    for bound in ("0", "-2"):
        argv = ["contain", m_id_file, m_id_file, "--semantics", "positive",
                "--bound", bound]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "bound must be at least 1" in captured.err


def test_decompose_resource_limit_names_its_flag(tmp_path, capsys):
    pra = tmp_path / "many.pra"
    pairs = "\n".join("pair: {s} {t}" for _ in range(7))
    pra.write_text(
        f"type: pra\nalphabet: a\nstates: s t\ninit: s\n{pairs}\n"
        "s -a-> t : 1\nt -a-> t : 1\n"
    )
    assert run(["decompose", str(pra)]) == 2
    doc = out_doc(capsys)
    assert doc["answer"] == "resource-limit" and "--cap" in doc["detail"]


def test_complement_resource_limit(tmp_path, capsys, monkeypatch):
    from probuchi import decide

    nba = tmp_path / "has1.nba"
    nba.write_text(
        "type: nba\nalphabet: 0 1\nstates: p q\ninit: p\nfinal: q\n"
        "p -0-> p\np -1-> p\np -1-> q\nq -0-> q\nq -1-> q\n"
    )
    monkeypatch.setattr(decide, "COMPLEMENT_STATE_LIMIT", 3)
    assert run(["complement", str(nba)]) == 2
    doc = out_doc(capsys)
    assert doc == {
        "command": "complement",
        "answer": "resource-limit",
        "cap": "state_cap",
        "detail": "complement exploration exceeds 3 states; the limit is fixed",
    }
