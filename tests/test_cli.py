"""CLI surface: subcommands, exit codes, machine-readable output."""

import io
import json
import pathlib
import re
import sys
from fractions import Fraction

import pytest

from probuchi import gen_m_id, gen_p3, gen_succinct
from probuchi.cli import run
from probuchi.textio import FormatError, parse, serialize


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


def test_rank_of_a_non_hierarchical_pba(tmp_path, capsys):
    # Both states stay in one SCC on 'a' with two successors there.
    path = tmp_path / "mixing.pba"
    path.write_text("type: pba\nalphabet: a\nstates: s t\ninit: s\nfinal: t\n"
                    "s -a-> s : 1/2\ns -a-> t : 1/2\nt -a-> s : 1/2\nt -a-> t : 1/2\n")
    assert run(["rank", str(path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"command": "rank", "hierarchical": False}
    assert captured.err == "not hierarchical\n"


def test_mc(m_id_file, capsys):
    assert run(["mc", m_id_file, ";10", "--samples", "2000", "--seed", "5"]) == 0
    doc = out_doc(capsys)
    assert abs(doc["mean"] - 2 / 3) <= 3 * doc["stderr"]


def test_mc_reads_the_seed_modulo_2_64_and_echoes_it_as_given(m_id_file, capsys):
    big = 99999999999999999999999
    docs = {}
    for seed in (-1, 2**64 - 1, big, big % 2**64, 0):
        assert run(["mc", m_id_file, "0;10", "--samples", "500", "--seed", str(seed)]) == 0
        docs[seed] = out_doc(capsys)
        assert docs[seed]["seed"] == seed
    estimate = {seed: (doc["mean"], doc["stderr"]) for seed, doc in docs.items()}
    assert estimate[-1] == estimate[2**64 - 1] and estimate[big] == estimate[big % 2**64]
    assert len(set(estimate.values())) == 3


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


def test_witness_builds_each_matrix_once(m_id_file, capsys, monkeypatch):
    # The search's closing re-check builds no matrix: the stem mass is one
    # row, and each segment's return reads only the witness states' rows.
    # The lower bound re-walks the same rows through acceptance_lower_bound.
    # decide has neither builder of its own; the spies set there count one
    # that comes back.
    from probuchi import decide, markov

    built = []
    for name in ("word_matrix", "final_passage_matrix"):
        real = getattr(markov, name)
        monkeypatch.setattr(decide, name,
                            lambda b, w, name=name, real=real: built.append(name) or real(b, w),
                            raising=False)
    assert run(["witness", m_id_file, "--max-len", "1", "--max-j", "3"]) == 0
    doc = out_doc(capsys)
    assert doc["lower_bound"] == "1/2" and len(doc["witness"]["segments"]) == 3
    assert built == []


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


def test_constructions_print_the_library_result(tmp_path, capsys):
    # Every construction subcommand's stdout parses back to the automaton
    # its library function builds from the same parsed inputs, and
    # serializing that gives stdout back byte for byte.
    from probuchi import complement_to_fpm, construct, decide

    swapped = serialize(construct.generate_example("m_id_swapped"))
    texts = {
        "m_id.fpm": serialize(gen_m_id()),
        # m_id_swapped with state names of its own, so intersect accepts it
        "r_id.fpm": swapped.replace("q0", "r0").replace("q1", "r1").replace("qr", "rr"),
        "c.fpm": serialize(complement_to_fpm(gen_m_id())),
        "d.dra": "type: dra\nalphabet: a b\nstates: qb qa\ninit: qb\npair: {} {qa}\n"
                 "qa -a-> qa\nqa -b-> qb\nqb -a-> qa\nqb -b-> qb\n",
        "n.nba": "type: nba\nalphabet: a b\nstates: p q\ninit: p\nfinal: q\n"
                 "p -a-> p\np -b-> p\np -b-> q\nq -b-> q\n",
        "s2.hpba": serialize(gen_succinct(2)),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    cases = [
        ("gen", ["m_id"], lambda: construct.generate_example("m_id")),
        ("gen", ["p3", "1/3"], lambda: construct.generate_example("p3", "1/3")),
        ("gen", ["succinct", "3"], lambda: construct.generate_example("succinct", "3")),
        ("complement", ["n.nba"], decide.nba_complement),
        ("product", ["c.fpm", "c.fpm"], construct.fpm_product),
        ("union", ["m_id.fpm", "r_id.fpm"], construct.almost_sure_union),
        ("intersect", ["m_id.fpm", "r_id.fpm"], construct.almost_sure_intersection),
        ("dra2hpba", ["d.dra"], construct.dra_to_hpba),
        ("hpba2nba", ["s2.hpba"], construct.hpba_to_nba),
        ("closure", ["s2.hpba"], construct.safety_closure),
    ]
    for command, args, build in cases:
        if command == "gen":
            argv, want = [command, *args], build()
        else:
            argv = [command, *(str(tmp_path / name) for name in args)]
            want = build(*(parse(texts[name]) for name in args))
        assert run(argv) == 0, argv
        out = capsys.readouterr().out
        assert parse(out) == want, argv
        assert serialize(parse(out)) == out, argv
    assert {c for c, _, _ in cases} == {
        "gen", "complement", "product", "union", "intersect", "dra2hpba", "hpba2nba", "closure"}


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


def test_mc_step_limit_is_a_resource_limit(tmp_path, capsys, monkeypatch):
    # The only exit has probability 10^-30 per step, so a sample never
    # reaches a bottom SCC within the lowered step limit.
    den = 10**30
    fpm = tmp_path / "slow.fpm"
    fpm.write_text(
        "type: fpm\nalphabet: a\nstates: q r\ninit: q\nfinal: q\nreject: r\n"
        f"q -a-> q : {den - 1}/{den}\nq -a-> r : 1/{den}\nr -a-> r : 1\n"
    )
    monkeypatch.setattr("probuchi.sim.MC_STEP_LIMIT", 500)
    assert run(["mc", str(fpm), ";a", "--samples", "5", "--seed", "3"]) == 2
    doc = out_doc(capsys)
    assert doc["answer"] == "resource-limit" and doc["cap"] == "step_cap"
    assert "500 chain steps" in doc["detail"]


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


_M_ID_ROWS = (
    "alphabet: 0 1\nstates: q0 q1 qr\ninit: q0\nfinal: q0 q1\n"
    "q0 -0-> q0 : 1/2\nq0 -0-> qr : 1/2\nq0 -1-> q0 : 1/2\nq0 -1-> q1 : 1/2\n"
    "q1 -0-> q1 : 1\nq1 -1-> q1 : 1\nqr -0-> qr : 1\nqr -1-> qr : 1\n"
)
# One input per role, plus languages that are empty ("dead") or universal
# ("top"); "nh.pba" is a PBA with no hierarchy ranking.
_DECISION_FILES = {
    "nba": "type: nba\nalphabet: a b\nstates: s t\ninit: s\nfinal: t\n"
           "s -a-> s\ns -b-> t\nt -b-> t\n",
    "dead.nba": "type: nba\nalphabet: a\nstates: s t\ninit: s\nfinal: t\n"
                "s -a-> s\nt -a-> t\n",
    "top.nba": "type: nba\nalphabet: a b\nstates: s\ninit: s\nfinal: s\n"
               "s -a-> s\ns -b-> s\n",
    "fpm": "type: fpm\n" + _M_ID_ROWS.replace("q1\n", "q1\nreject: qr\n", 1),
    "pba": "type: pba\n" + _M_ID_ROWS,
    "nh.pba": "type: pba\nalphabet: a\nstates: p q\ninit: p\nfinal: q\n"
              "p -a-> p : 1/2\np -a-> q : 1/2\nq -a-> p : 1/2\nq -a-> q : 1/2\n",
    "top.pba": "type: pba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s : 1\n",
    "dead.pba": "type: pba\nalphabet: a\nstates: s t\ninit: s\nfinal: t\n"
                "s -a-> s : 1\nt -a-> t : 1\n",
    "hpba": "type: hpba\n"
            + _M_ID_ROWS.replace("q0 q1\n", "q1\nranks: q0=0 q1=1 qr=2\n", 1),
    "dra": "type: dra\nalphabet: a b\nstates: qb qa\ninit: qb\npair: {qb} {qa}\n"
           "qa -a-> qa\nqa -b-> qb\nqb -a-> qa\nqb -b-> qb\n",
    "pra": "type: pra\nalphabet: a\nstates: s t\ninit: s\npair: {s} {t}\n"
           "s -a-> t : 1\nt -a-> t : 1\n",
}


def _answer(answer, lasso=None, certificate=None, **subset):
    """The answer fields of an ``empty``/``universal`` document."""
    if lasso is None:
        return {"answer": answer}
    key = "witness" if answer == "nonempty" else "counterexample"
    return {"answer": answer, key: subset | {"lasso": lasso, "certificate": certificate}}


_AS = "--semantics almost-sure"
_AS_ROLE = "error: almost-sure decisions need a Buchi PBA role\n"
_LIMIT = {
    "answer": "resource-limit",
    "cap": "PROBUCHI_MONOID_CAP",
    "detail": "transition monoid exceeds 1 elements; "
              "raise it via --monoid-cap or PROBUCHI_MONOID_CAP",
}
_DECISION_CASES = [
    ("empty nba", 0, _answer("nonempty", "b;b", {"member": True}),
     "nonempty, witness b;b\n"),
    ("universal nba", 0, _answer("non-universal", ";a", {"member": False}),
     "non-universal, counterexample ;a\n"),
    (f"empty nba {_AS}", 1, None, _AS_ROLE),
    (f"universal nba {_AS}", 1, None, _AS_ROLE),
    ("empty dead.nba", 0, _answer("empty"), "empty\n"),
    ("universal dead.nba", 0, _answer("non-universal", ";a", {"member": False}),
     "non-universal, counterexample ;a\n"),
    ("empty top.nba", 0, _answer("nonempty", ";a", {"member": True}),
     "nonempty, witness ;a\n"),
    ("universal top.nba", 0, _answer("universal"), "universal\n"),
    ("empty fpm", 0,
     _answer("nonempty", "1;0", {"acceptance": "1/2"}, states=["q1"], u="1", v="0"),
     "nonempty, witness 1;0\n"),
    ("universal fpm", 0, _answer("non-universal", ";0", {"acceptance": "0"}),
     "non-universal, counterexample ;0\n"),
    (f"empty fpm {_AS}", 0, _answer("nonempty", ";1", {"acceptance": "1"}),
     "nonempty, witness ;1\n"),
    (f"universal fpm {_AS}", 0, _answer("non-universal", ";0", {"acceptance": "0"}),
     "non-universal, counterexample ;0\n"),
    ("empty pba", 0, _answer("nonempty", "1;0", {"acceptance": "1/2"}),
     "nonempty, witness 1;0\n"),
    ("universal pba", 0, _answer("non-universal", ";0", {"acceptance": "0"}),
     "non-universal, counterexample ;0\n"),
    (f"empty pba {_AS}", 0, _answer("nonempty", ";1", {"acceptance": "1"}),
     "nonempty, witness ;1\n"),
    (f"universal pba {_AS}", 0, _answer("non-universal", ";0", {"acceptance": "0"}),
     "non-universal, counterexample ;0\n"),
    ("empty nh.pba", 1, None,
     "error: positive emptiness of a non-hierarchical PBA is undecidable; "
     "use the bounded 'witness' search\n"),
    ("universal nh.pba", 1, None,
     "error: positive universality of a non-hierarchical PBA is undecidable\n"),
    (f"empty nh.pba {_AS}", 0, _answer("nonempty", ";a", {"acceptance": "1"}),
     "nonempty, witness ;a\n"),
    (f"universal nh.pba {_AS}", 0, _answer("universal"), "universal\n"),
    ("empty top.pba", 0, _answer("nonempty", "a;a", {"acceptance": "1"}),
     "nonempty, witness a;a\n"),
    ("universal top.pba", 0, _answer("universal"), "universal\n"),
    (f"empty top.pba {_AS}", 0, _answer("nonempty", ";a", {"acceptance": "1"}),
     "nonempty, witness ;a\n"),
    (f"universal top.pba {_AS}", 0, _answer("universal"), "universal\n"),
    ("empty dead.pba", 0, _answer("empty"), "empty\n"),
    ("universal dead.pba", 0, _answer("non-universal", ";a", {"acceptance": "0"}),
     "non-universal, counterexample ;a\n"),
    (f"empty dead.pba {_AS}", 0, _answer("empty"), "empty\n"),
    (f"universal dead.pba {_AS}", 0,
     _answer("non-universal", ";a", {"acceptance": "0"}),
     "non-universal, counterexample ;a\n"),
    ("empty hpba", 0, _answer("nonempty", "1;0", {"acceptance": "1/2"}),
     "nonempty, witness 1;0\n"),
    ("universal hpba", 0, _answer("non-universal", ";0", {"acceptance": "0"}),
     "non-universal, counterexample ;0\n"),
    (f"empty hpba {_AS}", 0, _answer("nonempty", ";1", {"acceptance": "1"}),
     "nonempty, witness ;1\n"),
    (f"universal hpba {_AS}", 0, _answer("non-universal", ";0", {"acceptance": "0"}),
     "non-universal, counterexample ;0\n"),
    ("empty dra", 1, None, "error: no emptiness procedure for role dra\n"),
    ("universal dra", 1, None, "error: no universality procedure for role dra\n"),
    (f"empty dra {_AS}", 1, None, _AS_ROLE),
    (f"universal dra {_AS}", 1, None, _AS_ROLE),
    ("empty pra", 1, None, "error: no emptiness procedure for role pra\n"),
    ("universal pra", 1, None, "error: no universality procedure for role pra\n"),
    (f"empty pra {_AS}", 1, None, _AS_ROLE),
    (f"universal pra {_AS}", 1, None, _AS_ROLE),
]
_DECISION_CASES += [
    (f"{command} {args} --monoid-cap 1", 2, _LIMIT,
     f"resource limit: {_LIMIT['detail']}\n")
    for command in ("empty", "universal")
    for args in ("fpm", f"pba {_AS}")
]


@pytest.mark.parametrize("args, code, answer, err", _DECISION_CASES)
def test_decision_output_is_pinned(tmp_path, capsys, args, code, answer, err):
    files = {}
    for name, text in _DECISION_FILES.items():
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    argv = [files.get(a, a) for a in args.split()]
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.err == err
    if answer is None:
        assert captured.out == ""
        return
    doc = {"command": argv[0]}
    if answer is not _LIMIT:
        doc["semantics"] = "almost-sure" if "almost-sure" in argv else "positive"
    assert captured.out == json.dumps(doc | answer, indent=2) + "\n"


def _format_md_fields() -> dict[str, set[str]]:
    """The top-level keys FORMAT.md lists per query subcommand, from its
    "Fixed JSON fields per command" table, and under ``resource-limit`` the
    keys of its resource-limit document.  A table cell's top-level keys are
    the leading names of its backticked entries outside parentheses."""
    text = (pathlib.Path(__file__).parents[1] / "FORMAT.md").read_text()
    table = text.split("Fixed JSON fields per command:")[1].split("\n\n")[1]
    fields = {}
    for line in table.splitlines()[2:]:
        command, cell = (part.strip() for part in line.strip("|").split("|"))
        while re.search(r"\([^()]*\)", cell):
            cell = re.sub(r"\([^()]*\)", "", cell)
        fields[command] = set(re.findall(r"`(\w+)", cell))
    limit = re.search(r"Resource limits produce `(\{.*?\})`", text).group(1)
    fields["resource-limit"] = set(re.findall(r'"(\w+)":', limit))
    return fields


# Each query subcommand with every answer it gives in process.
_ANSWER_CASES = [
    "validate pba", "validate bad.pba", "rank hpba", "rank nh.pba",
    "prob pba ;0", "mc pba ;0 --samples 10 --seed 1",
    "empty nba", "empty dead.nba", "empty fpm", "empty fpm --monoid-cap 1",
    "universal top.nba", "universal nba", "universal fpm --monoid-cap 1",
    "witness fpm --max-len 1 --max-j 3", "witness dead.pba --max-len 1 --max-j 1",
    "witness p3.pba --max-len 3 --max-j 3", "witness p3.pba --max-len 3 --max-j 2 --x 1/8",
    "contain top01.pba pba --semantics almost-sure --bound 2",
    "contain pba top01.pba --semantics almost-sure --bound 2",
    "decompose pra", "decompose many.pra",
]


def _nested(doc: dict):
    """Every (key, value) of ``doc`` and of the objects nested in it."""
    for key, value in doc.items():
        yield key, value
        if isinstance(value, dict):
            yield from _nested(value)


def _fresh_certificate(auts, w) -> dict:
    """A lasso's certificate, computed again from its automata."""
    from probuchi.decide import nba_lasso_member
    from probuchi.markov import lasso_acceptance

    if len(auts) == 2:
        return {"left_acceptance": str(lasso_acceptance(auts[0], w)),
                "right_acceptance": str(lasso_acceptance(auts[1], w))}
    if auts[0].role == "nba":
        return {"member": nba_lasso_member(auts[0], w)}
    return {"acceptance": str(lasso_acceptance(auts[0], w))}


# "Numbers": an optional minus, ASCII digits, and a nonzero denominator if any.
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")
_RATIONAL_FIELDS = {"probability", "lower_bound", "acceptance", "left_acceptance",
                    "right_acceptance"}


def test_json_fields_are_listed_in_format_md(tmp_path, capsys):
    # Every top-level key a query prints after "command" is in FORMAT.md's
    # row for that command, and each row's keys are all printed by some
    # answer of its command; a resource-limit document has exactly the
    # documented keys.  The exit code follows the answer ("Exit codes"),
    # every lasso reads back over the first file's alphabet ("Lasso
    # syntax"), every exact rational has the grammar of "Numbers", and each
    # certificate is the value its lasso gets afresh.
    from probuchi.textio import format_lasso, parse_lasso

    extra = {
        "bad.pba": "type: pba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s : 1/2\n",
        "top01.pba": "type: pba\nalphabet: 0 1\nstates: s\ninit: s\nfinal: s\n"
                     "s -0-> s : 1\ns -1-> s : 1\n",
        "many.pra": _DECISION_FILES["pra"].replace("pair: {s} {t}\n", "pair: {s} {t}\n" * 7),
        "p3.pba": serialize(gen_p3(Fraction(1, 3))),
    }
    files = {}
    for name, text in (_DECISION_FILES | extra).items():
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    fields = _format_md_fields()
    answers, seen, docs, printed = set(), set(), {}, {}
    for args in _ANSWER_CASES:
        argv = [files.get(a, a) for a in args.split()]
        code = run(argv)
        doc = docs[args] = out_doc(capsys)
        command, *keys = doc
        assert command == "command" and doc["command"] == argv[0], args
        answer = doc.get("answer")
        answers.add((argv[0], answer))
        if answer == "resource-limit":
            assert set(keys) == fields["resource-limit"], args
        else:
            assert set(keys) <= fields[argv[0]], (args, set(keys) - fields[argv[0]])
            printed.setdefault(argv[0], set()).update(keys)
        assert code == (2 if answer in ("unknown", "resource-limit") else 0), args
        auts = [parse(pathlib.Path(a).read_text()) for a in argv[1:] if a in files.values()]
        for key, value in _nested(doc):
            if key in ("lasso", "assembled_lasso"):
                w = parse_lasso(value, auts[0].alphabet)
                assert format_lasso(w, auts[0].alphabet) == value, args
                seen.add(key)
            if key in _RATIONAL_FIELDS:
                assert _RATIONAL.fullmatch(value), (args, key, value)
                seen.add(key)
        for found in [doc, *(value for _, value in _nested(doc))]:
            if isinstance(found, dict) and "certificate" in found:
                w = parse_lasso(found.get("lasso") or found["assembled_lasso"], auts[0].alphabet)
                assert found["certificate"] == _fresh_certificate(auts, w), args
                seen.add("certificate")
    # Vacuity guard: every row is exercised, with each unknown and
    # resource-limit answer the queries give, and every checked field.
    assert {command for command, _ in answers} == set(fields) - {"resource-limit"}
    assert printed == {command: keys for command, keys in fields.items()
                       if command != "resource-limit"}
    assert {("witness", "unknown"), ("contain", "unknown"), ("empty", "resource-limit"),
            ("universal", "resource-limit"), ("decompose", "resource-limit")} <= answers
    assert seen == _RATIONAL_FIELDS | {"lasso", "assembled_lasso", "certificate"}
    p3 = docs["witness p3.pba --max-len 3 --max-j 3"]
    assert (p3["lower_bound"], p3["asymptotic"]) == ("128/729", False)
    assert docs["witness p3.pba --max-len 3 --max-j 2 --x 1/8"]["answer"] == "nonempty"


@pytest.mark.parametrize("env", ["PROBUCHI_MONOID_CAP", "PROBUCHI_COMPLEMENT_CAP"])
@pytest.mark.parametrize("text", [" 3 ", "1_0", "٣", "3\n", "9" * 5000])
def test_cap_variables_take_only_ascii_integers(tmp_path, capsys, monkeypatch, env, text):
    nba = tmp_path / "one.nba"
    nba.write_text("type: nba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s\n")
    command = "universal" if env == "PROBUCHI_MONOID_CAP" else "complement"
    monkeypatch.setenv(env, text)
    assert run([command, str(nba)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
    assert captured.err == f"error: {env} must be an integer, got {shown}\n"
    monkeypatch.setenv(env, "+3")
    assert run([command, str(nba)]) == 0


# Every number that comes from the command line or a cap variable, as
# (argv with VALUE for the number, variable or None).
_NUMBER_ENTRIES = [
    ("mc PBA ;1 --samples VALUE", None),
    ("mc PBA ;1 --seed VALUE", None),
    ("complement NBA --complement-cap VALUE", None),
    ("decompose DRA --cap VALUE", None),
    ("universal NBA --monoid-cap VALUE", None),
    ("witness PBA --max-len VALUE --max-j 1", None),
    ("witness PBA --max-len 1 --max-j VALUE", None),
    ("witness PBA --max-len 1 --max-j 1 --x VALUE", None),
    ("contain PBA PBA --semantics positive --bound VALUE", None),
    ("universal NBA", "PROBUCHI_MONOID_CAP"),
    ("complement NBA", "PROBUCHI_COMPLEMENT_CAP"),
]


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-from-str digit limit"
)
@pytest.mark.parametrize("args, env", _NUMBER_ENTRIES)
def test_bad_numbers_are_quoted_clipped(tmp_path, capsys, monkeypatch, args, env):
    files = {
        "PBA": serialize(gen_m_id()),
        "NBA": "type: nba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s\n",
        "DRA": "type: dra\nalphabet: a\nstates: s\ninit: s\npair: {} {s}\ns -a-> s\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    value = "9" * 5000
    if env is not None:
        monkeypatch.setenv(env, value)
    argv = [str(tmp_path / a) if a in files else value if a == "VALUE" else a
            for a in args.split()]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    name = env or argv[argv.index(value) - 1]
    assert name in captured.err and "9" * 41 not in captured.err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_construction_prints_rationals_beyond_the_digit_limit(tmp_path, capsys):
    # Weights with 2,201-digit denominators multiply to 4,401 digits, past
    # Python's default 4,300-digit int-to-str limit.
    from probuchi import fpm_product

    limit = sys.get_int_max_str_digits()
    den = 10**2200
    path = tmp_path / "big.fpm"
    path.write_text(
        "type: fpm\nalphabet: a\nstates: q r\ninit: q\nfinal: q\nreject: r\n"
        f"q -a-> q : {den - 1}/{den}\nq -a-> r : 1/{den}\nr -a-> r : 1\n"
    )
    assert run(["product", str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    big = parse(path.read_text())
    sys.set_int_max_str_digits(0)
    try:
        assert parse(out) == fpm_product(big, big)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-from-str digit limit"
)
def test_construction_output_past_the_digit_limit_does_not_read_back(tmp_path, capsys):
    # FORMAT.md: parsing keeps the 4,300-digit limit, so the product of two
    # monitors over 2,201-digit denominators prints 4,401-digit integers
    # that parse refuses with a message naming the limit.
    assert sys.get_int_max_str_digits() == 4300
    den = 10**2200
    path = tmp_path / "big.fpm"
    path.write_text(
        "type: fpm\nalphabet: a\nstates: q r\ninit: q\nfinal: q\nreject: r\n"
        f"q -a-> q : {den - 1}/{den}\nq -a-> r : 1/{den}\nr -a-> r : 1\n"
    )
    assert run(["product", str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert max(len(n) for n in re.findall(r"\d+", out)) == 4401
    with pytest.raises(FormatError, match=r"line 7, column 20: .* longer than Python's 4,300-digit limit"):
        parse(out)


def test_usage_errors_are_input_errors_naming_the_argument(m_id_file, capsys):
    cases = [
        (["prob", m_id_file], "LASSO"),
        (["nosuch"], "'nosuch'"),
        (["witness", m_id_file, "--max-len", "abc", "--max-j", "1"], "--max-len"),
        (["contain", m_id_file, m_id_file, "--bound", "2"], "--semantics"),
        (["validate", m_id_file, "--nosuch"], "--nosuch"),
        ([], "command"),
    ]
    for argv, name in cases:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and name in captured.err, argv
        assert captured.err.count("\n") == 1, argv


def test_help_still_exits_zero(capsys):
    for argv in (["--help"], ["witness", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: probuchi")


# Every number that comes from outside: entry -> (argv, with V for the value
# and capitals for the files below; the variable that carries the value, if
# any; what the error names; an accepted value).
_NUMBER_ENTRIES = {
    "--samples": ("mc M ;1 --samples V", None, "--samples", "3"),
    "--seed": ("mc M ;1 --samples 3 --seed V", None, "--seed", "3"),
    "--complement-cap": ("complement N --complement-cap V", None, "--complement-cap", "3"),
    "--cap": ("decompose R --cap V", None, "--cap", "6"),
    "--monoid-cap": ("universal N --monoid-cap V", None, "--monoid-cap", "99"),
    "--max-len": ("witness M --max-len V --max-j 1", None, "--max-len", "1"),
    "--max-j": ("witness M --max-len 1 --max-j V", None, "--max-j", "1"),
    "--bound": ("contain M M --semantics positive --bound V", None, "--bound", "1"),
    "--x": ("witness M --max-len 1 --max-j 1 --x V", None, "--x", "1/4"),
    "gen succinct": ("gen succinct V", None, "succinct parameter", "2"),
    "gen p3": ("gen p3 V", None, "p3 parameter", "1/4"),
    "PROBUCHI_MONOID_CAP": ("universal N", "PROBUCHI_MONOID_CAP", "PROBUCHI_MONOID_CAP", "3"),
    "PROBUCHI_COMPLEMENT_CAP": (
        "complement N", "PROBUCHI_COMPLEMENT_CAP", "PROBUCHI_COMPLEMENT_CAP", "3"
    ),
    "ranks:": ("validate H", None, "bad level in 'q0=", "1"),
    "probability": ("validate P", None, "probability '", "1"),
}
_NUMBER_FILES = {
    "M": serialize(gen_m_id()),
    "N": "type: nba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s\n",
    "R": "type: pra\nalphabet: a\nstates: s t\ninit: s\npair: {s} {t}\n"
         "s -a-> t : 1\nt -a-> t : 1\n",
    "H": "type: hpba\nalphabet: a\nstates: q0\ninit: q0\nfinal: q0\n"
         "ranks: q0=V\nq0 -a-> q0 : 1\n",
    "P": "type: pba\nalphabet: a\nstates: s\ninit: s\nfinal: s\ns -a-> s : V\n",
}


def _run_number_entry(entry, value, tmp_path, monkeypatch):
    argv, env, _, _ = _NUMBER_ENTRIES[entry]
    for name, text in _NUMBER_FILES.items():
        (tmp_path / name).write_text(text.replace("V", value))
    if env is not None:
        monkeypatch.setenv(env, value)
    return run([str(tmp_path / a) if a in _NUMBER_FILES else value if a == "V" else a
                for a in argv.split()])


@pytest.mark.parametrize("entry", list(_NUMBER_ENTRIES))
def test_number_entry_takes_an_ascii_value(entry, tmp_path, capsys, monkeypatch):
    code = _run_number_entry(entry, _NUMBER_ENTRIES[entry][3], tmp_path, monkeypatch)
    captured = capsys.readouterr()
    assert code in (0, 2) and captured.out, captured.err


# A blank inside a file separates tokens, so " 3" is no probability case.
@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in _NUMBER_ENTRIES for value in ["٣", "1_0", " 3", "0.5", "1e3"]
    if (entry, value) != ("probability", " 3")
])
def test_number_entry_rejects_other_forms_naming_itself(
    entry, value, tmp_path, capsys, monkeypatch
):
    assert _run_number_entry(entry, value, tmp_path, monkeypatch) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and _NUMBER_ENTRIES[entry][2] in captured.err


def test_huge_exponent_is_rejected_at_once(m_id_file, capsys):
    import time

    start = time.perf_counter()
    argv = ["witness", m_id_file, "--max-len", "1", "--max-j", "1", "--x", "1e100000000"]
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "--x" in captured.err


def test_hpba2nba_on_non_hierarchical_input_exits_1(tmp_path, capsys):
    path = tmp_path / "mix.pba"
    path.write_text("type: pba\nalphabet: a\nstates: q0 q1\ninit: q0\nfinal: q0\n"
                    "q0 -a-> q0 : 1/2\nq0 -a-> q1 : 1/2\nq1 -a-> q0 : 1/2\nq1 -a-> q1 : 1/2\n")
    assert run(["hpba2nba", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: input is not hierarchical: two same-component successors at (q0,a)\n")


_LONG = "x" * 5000
_SHOWN = repr("x" * 40) + "..."
_ONE_PBA = "type: pba\nalphabet: a\nstates: s\ninit: s\nfinal: s\n"

# Long text read from a lasso, stdin, a file or a generator name, as (argv
# with FILE for the written file, the file, stdin, the expected stdout and
# stderr).
_LONG_INPUTS = {
    "lasso-symbol": (
        ["prob", "FILE", ";" + _LONG],
        "type: pba\nalphabet: ab c\nstates: s\ninit: s\nfinal: s\n"
        "s -ab-> s : 1\ns -c-> s : 1\n", "", "",
        f"error: lasso symbol {_SHOWN} not in alphabet\n"),
    "monitor-line": (
        ["monitor", "FILE"], serialize(gen_m_id()), _LONG + "\n", "0\n",
        f"error: unknown symbol {_SHOWN} at stream position 0\n"),
    "header-key": (
        ["validate", "FILE"], f"type: pba\n{_LONG}: a\n", "", "",
        f"error: line 2, column 1: unknown key {_SHOWN}\n"),
    "arrow": (
        ["validate", "FILE"], _ONE_PBA + f"s {_LONG} s : 1\n", "", "",
        f"error: line 6, column 3: bad transition arrow {_SHOWN}\n"),
    "duplicate-target": (
        ["validate", "FILE"], _ONE_PBA + f"s -a-> {_LONG} : 1\n" * 2, "", "",
        f"error: line 7, column 1: duplicate transition s -a-> {_SHOWN}\n"),
    "generator": (
        ["gen", _LONG], "", "", "",
        f"error: unknown generator {_SHOWN}; known: m_id, m_id_squared, m_id_swapped, "
        "p3, succinct\n"),
}


@pytest.mark.parametrize("case", _LONG_INPUTS)
def test_long_input_is_quoted_clipped(case, tmp_path, capsys, monkeypatch):
    argv, text, stdin, out, err = _LONG_INPUTS[case]
    path = tmp_path / "input"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run([str(path) if a == "FILE" else a for a in argv]) == 1
    assert capsys.readouterr() == (out, err)
