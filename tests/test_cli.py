from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import affinefock.cli as cli
import affinefock.realization as rz
from affinefock.cli import main
from affinefock.fock import canonical_json
from affinefock.inducing import MAX_EVALUATION_DIM, evaluation_module, natural_block_rep
from affinefock.lie import matrix_unit, parabolic_decompose

Q = Fraction

SL2_HEIS = {
    "algebra": {"n": 1, "sigma": []},
    "module": {"kind": "heisenberg_fock", "level": "1", "lam": ["1"]},
    "engine": "general",
    "window": {"max_mode": 2, "max_degree": 2, "samples": 3},
    "seed": 2024,
    "output": "text",
}

SL2_CHAR = {
    "algebra": {"n": 1, "sigma": []},
    "module": {"kind": "character", "level": "0",
               "assignments": [{"element": "h1", "mode": 0, "value": "2"}]},
    "engine": "general",
    "window": {"max_mode": 2, "max_degree": 2, "samples": 3},
    "seed": 7,
    "output": "text",
}

SL3_EVAL = {
    "algebra": {"n": 2, "sigma": [2]},
    "module": {"kind": "evaluation", "level": "0", "rep": "block",
               "block": 1, "s": "1"},
    "engine": "general",
    "window": {"max_mode": 1, "max_degree": 2, "samples": 3},
    "seed": 11,
    "output": "text",
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# --- start-up ----------------------------------------------------------------------

def test_package_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site hooks, because this one has both
    # loaded; together they cost about 10 ms of every cold CLI process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import affinefock, affinefock.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- act ---------------------------------------------------------------------------

def test_act_f_on_vacuum(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_CHAR)
    out = tmp_path / "state.json"
    rc = main(["act", "--config", cfg, "--generator", "f1", "--mode", "0",
               "--state", "vacuum", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["terms"] == [{"coeff": "-1", "monomial": [[0, 0, 1]], "v": 0}]


def test_act_central_scales(tmp_path):
    cfg = write_config(tmp_path, SL2_HEIS)
    s1 = tmp_path / "s1.json"
    s2 = tmp_path / "s2.json"
    main(["act", "--config", cfg, "--generator", "f1", "--mode", "2",
          "--state", "vacuum", "--out", str(s1)])
    rc = main(["act", "--config", cfg, "--generator", "c", "--mode", "0",
               "--state", str(s1), "--out", str(s2)])
    assert rc == 0
    assert json.loads(s2.read_text())["terms"][0]["coeff"] == "-1"  # level 1


def test_act_e_on_vacuum_is_zero(tmp_path):
    cfg = write_config(tmp_path, SL2_CHAR)
    out = tmp_path / "zero.json"
    rc = main(["act", "--config", cfg, "--generator", "e1", "--mode", "1",
               "--state", "vacuum", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["terms"] == []


SL4_W1 = {
    "algebra": {"n": 3, "sigma": [2]},
    "module": {"kind": "character", "level": "0",
               "assignments": [{"element": "w1", "mode": 0, "value": "2"}]},
    "engine": "general",
    "window": {"max_mode": 0, "max_degree": 1, "samples": 3},
    "seed": 5,
    "output": "text",
}


def test_center_direction_left_unassigned_acts_by_zero(tmp_path, capsys):
    # the character is 0 on w3, which no assignment names, and the census
    # reads that 0 through the w3 coordinates of H1 and H3
    cfg = write_config(tmp_path, SL4_W1)
    assert main(["act", "--config", cfg, "--generator", "w3", "--mode", "0",
                 "--state", "vacuum"]) == 0
    assert capsys.readouterr().out == '{"terms":[]}\n'
    assert main(["weights", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "degree=0 mode=0 weight=(3,0,-1) count=1",
        "degree=1 mode=0 weight=(1,1,-1) count=1",
        "degree=1 mode=0 weight=(2,-1,0) count=1",
        "degree=1 mode=0 weight=(2,0,-2) count=1",
        "degree=1 mode=0 weight=(3,1,-3) count=1",
        "degree=1 mode=0 weight=(4,-1,-2) count=1",
    ]


def test_act_round_trip(tmp_path):
    cfg = write_config(tmp_path, SL2_HEIS)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["act", "--config", cfg, "--generator", "e1", "--mode", "-1",
          "--state", "vacuum", "--out", str(first)])
    # feeding the output back in must re-parse to an equal state: acting with
    # the central element at level 1 is the identity
    rc = main(["act", "--config", cfg, "--generator", "c", "--mode", "0",
               "--state", str(first), "--out", str(second)])
    assert rc == 0
    assert first.read_text() == second.read_text()


# --- exit codes ----------------------------------------------------------------------

# An index is ASCII digits, refused unconverted when too long to be one: Python's
# int() reads "\u0661" as 1 and raises past 4,300 digits.  So is an integer
# argument, --mode or MODE or IDX of --flip, where int() alone would also read
# " 1_0" as 10.
BAD_INDEX_NAMES = {"long": "h" + "1" * 5000, "arabic-h": "h\u0661",
                   "arabic-E": "E\u0661.\u0662"}
BAD_INTEGER_ARGUMENTS = {"arabic": "\u0661", "spaced": " 1_0"}


@pytest.mark.parametrize("name, where", [("zz", "act")] + [
    # out of range on sl(2): the Cartan index, the center of the Borel, the
    # nilradical index and a diagonal matrix unit
    pytest.param(name, "act", id=name) for name in ("h9", "w2", "f9", "E1.1")] + [
    pytest.param(5, "assignment", id="integer-assignment"),
    pytest.param("c", "assignment", id="central-assignment")] + [
    pytest.param(name, where, id=f"{key}-{where}")
    for key, name in BAD_INDEX_NAMES.items()
    for where in ("act", "dump", "assignment")] + [
    pytest.param(text, where, id=f"{key}-{where}")
    for key, text in BAD_INTEGER_ARGUMENTS.items()
    for where in ("act-mode", "dump-mode", "flip-mode", "flip-idx")] + [
    pytest.param("1" * 5000, where, id=f"long-{where}")
    for where in ("act-mode", "dump-mode")])
def test_parse_error_bad_generator(tmp_path, capsys, name, where):
    generator, mode = name, "0"
    cfg = SL2_CHAR
    if where == "assignment":
        generator = "f1"
        cfg = dict(SL2_CHAR, module={"kind": "character", "level": "0", "assignments": [
            {"element": name, "mode": 0, "value": "2"}]})
    elif where.endswith("-mode"):
        generator, mode = "f1", name
    if where.startswith("flip"):
        flip = f"f1:{mode}:0" if where == "flip-mode" else f"f1:1:{name}"
        rc = main(["check-bracket", "--config", write_config(tmp_path, cfg),
                   "--flip", flip])
    else:
        args = ["--config", write_config(tmp_path, cfg), "--generator", generator,
                "--mode", mode]
        if where.startswith("dump"):
            rc = main(["dump"] + args)
        else:
            rc = main(["act"] + args + ["--state", "vacuum"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command, cfg, rc", [
    pytest.param("act", dict(SL2_CHAR, module={"level": "0"}), 2, id="module-kind-missing"),
    pytest.param("act", dict(SL2_CHAR, module={"kind": "odd"}), 2, id="module-kind"),
    pytest.param("act", dict(SL3_EVAL, module=dict(SL3_EVAL["module"], rep="odd")), 2,
                 id="evaluation-rep"),
    pytest.param("act", dict(SL2_CHAR, engine="odd"), 2, id="engine"),
    pytest.param("act", dict(SL2_CHAR, output="odd"), 2, id="output"),
    pytest.param("act", dict(SL3_EVAL, module=dict(SL3_EVAL["module"], block=7)), 3,
                 id="evaluation-block"),
    pytest.param("act", dict(SL2_CHAR, window={"max_mode": -1}), 3, id="max-mode"),
    pytest.param("dump", SL2_CHAR, 3, id="dump-central"),
])
def test_config_error_exit_codes(tmp_path, capsys, command, cfg, rc):
    args = ["--config", write_config(tmp_path, cfg), "--mode", "0"]
    if command == "act":
        args += ["--generator", "f1", "--state", "vacuum"]
    else:
        args += ["--generator", "c"]
    assert main([command] + args) == rc
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_parse_error_bad_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc = main(["act", "--config", str(path), "--generator", "f1",
               "--mode", "0", "--state", "vacuum"])
    assert rc == 2


def act_on_vacuum(tmp_path, cfg):
    return main(["act", "--config", write_config(tmp_path, cfg), "--generator",
                 "f1", "--mode", "0", "--state", "vacuum"])


def test_parse_error_max_mode_string(tmp_path, capsys):
    cfg = dict(SL2_CHAR, window={"max_mode": "abc", "max_degree": 2, "samples": 3})
    assert act_on_vacuum(tmp_path, cfg) == 2
    assert "max_mode" in capsys.readouterr().err


def test_parse_error_max_mode_float(tmp_path, capsys):
    cfg = dict(SL2_CHAR, window={"max_mode": 1.7, "max_degree": 2, "samples": 3})
    assert act_on_vacuum(tmp_path, cfg) == 2
    assert "max_mode" in capsys.readouterr().err


def test_parse_error_seed_bool(tmp_path, capsys):
    cfg = dict(SL2_CHAR, seed=True)
    assert act_on_vacuum(tmp_path, cfg) == 2
    assert "seed" in capsys.readouterr().err


def test_parse_error_lam_string(tmp_path, capsys):
    cfg = dict(SL2_HEIS, module={"kind": "heisenberg_fock", "level": "1", "lam": "12"})
    assert act_on_vacuum(tmp_path, cfg) == 2
    assert "lam" in capsys.readouterr().err


def test_parse_error_rank_string(tmp_path, capsys):
    cfg = dict(SL2_CHAR, algebra={"n": "1.5", "sigma": []})
    assert act_on_vacuum(tmp_path, cfg) == 2
    assert "n must be an integer" in capsys.readouterr().err


def test_semantic_error_nonzero_level_character(tmp_path):
    cfg = dict(SL2_CHAR)
    cfg["module"] = {"kind": "character", "level": "1", "assignments": []}
    path = write_config(tmp_path, cfg)
    rc = main(["act", "--config", path, "--generator", "f1", "--mode", "0",
               "--state", "vacuum"])
    assert rc == 3


def test_semantic_error_explicit_engine_off_parabolic(tmp_path):
    cfg = {
        "algebra": {"n": 2, "sigma": []},
        "module": {"kind": "character", "level": "0", "assignments": []},
        "engine": "explicit",
        "window": {"max_mode": 1, "max_degree": 1, "samples": 1},
        "seed": 1,
    }
    path = write_config(tmp_path, cfg)
    rc = main(["act", "--config", path, "--generator", "f1", "--mode", "0",
               "--state", "vacuum"])
    assert rc == 3


# --- check-bracket ---------------------------------------------------------------------

def test_check_bracket_sl2_heisenberg(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_HEIS)
    rc = main(["check-bracket", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS 9 basis pairs x 25 mode pairs x 3 states" in out


def test_check_bracket_records(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SL2_CHAR, window={
        "max_mode": 1, "max_degree": 1, "samples": 2}))
    records = tmp_path / "records.jsonl"
    rc = main(["check-bracket", "--config", cfg, "--records", str(records)])
    assert rc == 0
    lines = records.read_text().strip().split("\n")
    assert len(lines) == 9 * 9 * 2
    assert all(json.loads(line)["status"] == "pass" for line in lines)


def test_check_bracket_record_stream_on_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SL2_CHAR, output="records", window={
        "max_mode": 1, "max_degree": 1, "samples": 1}))
    rc = main(["check-bracket", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    stream = [line for line in out.splitlines() if line.startswith("{")]
    assert len(stream) == 9 * 9
    assert json.loads(stream[0])["check"] == "bracket"


@pytest.mark.parametrize("flip", [None, "e1:1:1"])
def test_check_bracket_records_are_canonical_json(tmp_path, capsys, flip):
    # each record line is the canonical encoding of its own object, in the
    # file and in the stdout stream, on a passing and on a failing run
    cfg = write_config(tmp_path, dict(SL2_HEIS, output="records"))
    records = tmp_path / "records.jsonl"
    rc = main(["check-bracket", "--config", cfg, "--records", str(records)]
              + (["--flip", flip] if flip else []))
    assert rc == (1 if flip else 0)
    lines = records.read_text().splitlines()
    stream = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("{")]
    assert stream == lines and len(lines) > 9
    assert all(line == canonical_json(json.loads(line)) for line in lines)
    statuses = Counter(json.loads(line)["status"] for line in lines)
    assert statuses == ({"pass": len(lines) - 1, "fail": 1} if flip
                        else {"pass": len(lines)})


def test_check_bracket_flip_fails_with_witness(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_HEIS)
    rc = main(["check-bracket", "--config", cfg, "--flip", "e1:1:1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL at" in out
    assert "witness:" in out


def test_check_bracket_flip_witness_is_pinned(tmp_path, capsys):
    # Heisenberg vectors are numbered in the order module.act first sees them,
    # so this line also pins the order in which operators call the module.
    cfg = write_config(tmp_path, SL2_HEIS)
    rc = main(["check-bracket", "--config", cfg, "--flip", "e1:1:1"])
    assert rc == 1
    witness = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("witness:")]
    assert witness == [
        'witness: {"terms":[{"coeff":"4","monomial":[[0,0,1]],"v":1},'
        '{"coeff":"-4","monomial":[[0,1,1]],"v":10},'
        '{"coeff":"8","monomial":[[0,2,1]],"v":7}],'
        '"vbasis":{"1":[[0,2,1]],"10":[[0,1,1],[0,2,1]],"7":[[0,3,1]]}}']


def test_check_bracket_flip_index_past_last_term(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_HEIS)
    rc = main(["check-bracket", "--config", cfg, "--flip", "f1:1:99"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_check_bracket_flip_negative_index(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_HEIS)
    rc = main(["check-bracket", "--config", cfg, "--flip", "e1:1:-1"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_check_bracket_flip_central_element(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_HEIS)
    rc = main(["check-bracket", "--config", cfg, "--flip", "c:1:0"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:")


# w1 = H1/2 is not a basis element, and at max_mode 1 the sweep acts only in
# modes |m| <= 2: neither flip would ever be applied
@pytest.mark.parametrize("flip", ["w1:1:0", "f1:3:0"])
def test_check_bracket_flip_the_sweep_never_applies(tmp_path, capsys, flip):
    cfg = write_config(tmp_path, dict(SL2_HEIS, window={
        "max_mode": 1, "max_degree": 2, "samples": 3}))
    rc = main(["check-bracket", "--config", cfg, "--flip", flip])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_check_bracket_flip_at_widest_swept_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SL2_HEIS, window={
        "max_mode": 1, "max_degree": 2, "samples": 3}))
    rc = main(["check-bracket", "--config", cfg, "--flip", "f1:2:0"])
    assert rc == 1
    assert "FAIL at" in capsys.readouterr().out


def test_check_bracket_sl3_evaluation(tmp_path, capsys):
    cfg = write_config(tmp_path, SL3_EVAL)
    rc = main(["check-bracket", "--config", cfg])
    assert rc == 0
    assert "PASS 64 basis pairs" in capsys.readouterr().out


# Sigma = {1..n}: p = g, there are no Fock variables, and every sampled state
# is a vector in V times the vacuum monomial
SL2_SIGMA_ALL = {"algebra": {"n": 1, "sigma": [1]},
                 "module": {"kind": "character", "level": "0"}, "seed": 2024}

SL3_SIGMA_ALL = {
    "algebra": {"n": 2, "sigma": [1, 2]},
    "module": {"kind": "evaluation", "level": "0", "rep": "block",
               "block": 0, "s": "2/3"},
    "window": {"max_mode": 1, "max_degree": 2, "samples": 3},
    "seed": 11,
}


def test_check_bracket_without_fock_variables_character(tmp_path, capsys):
    rc = main(["check-bracket", "--config", write_config(tmp_path, SL2_SIGMA_ALL)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "PASS 9 basis pairs x 49 mode pairs x 20 states (8820 checks)")


def test_check_bracket_without_fock_variables_evaluation(tmp_path, capsys):
    rc = main(["check-bracket", "--config", write_config(tmp_path, SL3_SIGMA_ALL)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "PASS 64 basis pairs x 9 mode pairs x 3 states (1728 checks)")


def test_check_bracket_without_fock_variables_flip_fails(tmp_path, capsys):
    rc = main(["check-bracket", "--config", write_config(tmp_path, SL3_SIGMA_ALL),
               "--flip", "E1.2:1:0"])
    assert rc == 1
    assert "FAIL at" in capsys.readouterr().out


def test_check_bracket_full_reference_window(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SL2_HEIS, window={
        "max_mode": 3, "max_degree": 3, "samples": 20}))
    rc = main(["check-bracket", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS 9 basis pairs x 49 mode pairs x 20 states" in out


# --- compare-engines ----------------------------------------------------------------------

def test_compare_engines_sl2(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_HEIS)
    rc = main(["compare-engines", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS all 3 generators agree" in out


def test_compare_engines_sl3(tmp_path, capsys):
    cfg = write_config(tmp_path, SL3_EVAL)
    rc = main(["compare-engines", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS all 8 generators agree" in out


def test_closed_form_engine_runs_on_a_grassmannian(tmp_path, capsys):
    # sl(4) with Sigma = {1, 3} is the maximal parabolic of Gr(2, 4)
    cfg = write_config(tmp_path, {
        "algebra": {"n": 3, "sigma": [1, 3]},
        "module": {"kind": "character", "level": "0",
                   "assignments": [{"element": "w2", "mode": 0, "value": "2"}]},
        "engine": "explicit",
        "window": {"max_mode": 1, "max_degree": 2, "samples": 3},
        "seed": 7,
    })
    assert main(["compare-engines", "--config", cfg]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS all 15 generators agree"
    assert main(["check-bracket", "--config", cfg]) == 0
    assert ("PASS 225 basis pairs x 9 mode pairs x 3 states (6075 checks)"
            in capsys.readouterr().out)


def test_compare_engines_builds_each_operator_once(tmp_path, capsys, monkeypatch):
    builds = Counter()
    build = rz.build_operator_general

    def counting_build(pd, a, m):
        builds[a] += 1
        return build(pd, a, m)

    monkeypatch.setattr(rz, "build_operator_general", counting_build)
    monkeypatch.setattr(cli, "build_operator_general", counting_build, raising=False)
    rc = main(["compare-engines", "--config", write_config(tmp_path, SL3_EVAL)])
    assert rc == 0
    pd = parabolic_decompose(2, [2])
    assert builds == Counter({elem: 1 for _, elem, _ in pd.homogeneous_basis})


def test_compare_engines_reports_a_disagreeing_generator(tmp_path, capsys, monkeypatch):
    build = rz.build_operator_explicit_sl

    def flipped(pd, a, m):
        op = build(pd, a, m)
        return op.with_flipped_term(0) if a == matrix_unit(2, 2, 1) else op

    monkeypatch.setattr(rz, "build_operator_explicit_sl", flipped)
    rc = main(["compare-engines", "--config", write_config(tmp_path, SL3_EVAL_AT_TWO)])
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.out.splitlines()
    assert "E2.1: structural=MISMATCH action=MISMATCH" in lines
    assert sum("MISMATCH" in line for line in lines) == 1
    assert lines[-1] == "FAIL 1 generators disagree"
    assert captured.err == ""


def test_compare_engines_rejects_borel_sl3(tmp_path):
    cfg = {
        "algebra": {"n": 2, "sigma": []},
        "module": {"kind": "character", "level": "0", "assignments": []},
        "engine": "general",
        "window": {"max_mode": 1, "max_degree": 1, "samples": 1},
        "seed": 1,
    }
    rc = main(["compare-engines", "--config", write_config(tmp_path, cfg)])
    assert rc == 3


# --- dump -------------------------------------------------------------------------------

def test_dump_sl2_closed_form(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_CHAR)
    rc = main(["dump", "--config", cfg, "--generator", "h1", "--mode", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "1 * H1(0)\n2 * x(0,n0) * b(0, 0 + n0)\n"


def test_dump_is_identical_under_every_hash_seed(tmp_path):
    # operator construction fills dicts keyed by tuples and elements; the
    # dump must not depend on their hash order
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cfg = write_config(tmp_path, SL4_W1)
    outs = set()
    for seed in ("0", "1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "affinefock.cli", "dump", "--config", cfg,
             "--generator", "E1.4", "--mode", "1"],
            capture_output=True, env=dict(env, PYTHONHASHSEED=seed), timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    assert hashlib.sha256(outs.pop()).hexdigest() == (
        "daa410d3a22b878d290e311432e224e6a75cdd76e6c041ca7f8376e7094bed7c")


# --- weights -------------------------------------------------------------------------------

def test_weights_sl2_window_one(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SL2_CHAR, window={
        "max_mode": 1, "max_degree": 2, "samples": 1}))
    rc = main(["weights", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "degree=0 mode=0 weight=(2) count=1" in out
    # three variables at degree 1, all at weight lam - 2 = 0
    for mode in (-1, 0, 1):
        assert f"degree=1 mode={mode} weight=(0) count=1" in out
    # six multisets of size two from three variables
    deg2 = [line for line in out.splitlines() if line.startswith("degree=2")]
    assert sum(int(line.split("count=")[1]) for line in deg2) == 6


def test_weights_documents_truncation(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_CHAR)
    main(["weights", "--config", cfg])
    assert "infinite-dimensional" in capsys.readouterr().out


WEIGHTS_SL3_EVAL = """\
config: n=2 sigma=[2] module=evaluation(dim=2, s=-2/3, level=0) engine=general seed=11
note: true weight spaces are infinite-dimensional; this census is truncated to \
degree<=2, |mode|<=1, and counts monomials tensored with the first basis vector of V
note: V carries no mode grading; those V contributions were treated as zero
degree=0 mode=0 weight=(-1,1) count=1
degree=1 mode=-1 weight=(-3,2) count=1
degree=1 mode=-1 weight=(-2,0) count=1
degree=1 mode=0 weight=(-3,2) count=1
degree=1 mode=0 weight=(-2,0) count=1
degree=1 mode=1 weight=(-3,2) count=1
degree=1 mode=1 weight=(-2,0) count=1
degree=2 mode=-2 weight=(-5,3) count=1
degree=2 mode=-2 weight=(-4,1) count=1
degree=2 mode=-2 weight=(-3,-1) count=1
degree=2 mode=-1 weight=(-5,3) count=1
degree=2 mode=-1 weight=(-4,1) count=2
degree=2 mode=-1 weight=(-3,-1) count=1
degree=2 mode=0 weight=(-5,3) count=2
degree=2 mode=0 weight=(-4,1) count=3
degree=2 mode=0 weight=(-3,-1) count=2
degree=2 mode=1 weight=(-5,3) count=1
degree=2 mode=1 weight=(-4,1) count=2
degree=2 mode=1 weight=(-3,-1) count=1
degree=2 mode=2 weight=(-5,3) count=1
degree=2 mode=2 weight=(-4,1) count=1
degree=2 mode=2 weight=(-3,-1) count=1
"""


def test_weights_sl3_evaluation_is_pinned(tmp_path, capsys):
    # the first basis vector of the block representation is a weight vector,
    # and an evaluation module carries no mode grading
    cfg = dict(SL3_EVAL, module=dict(SL3_EVAL["module"], s="-2/3"))
    rc = main(["weights", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    assert capsys.readouterr().out == WEIGHTS_SL3_EVAL


def test_weights_without_a_weight_vector(capsys):
    # conjugating the block representation by P = [[1,0],[1,1]] leaves the
    # first basis vector off every Cartan eigenline
    pd = parabolic_decompose(2, [2])
    p, p_inv = [[Q(1), Q(0)], [Q(1), Q(1)]], [[Q(1), Q(0)], [Q(-1), Q(1)]]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    rho = [mul(mul(p, mat), p_inv) for mat in natural_block_rep(pd, 1)]
    mod = evaluation_module(pd, rho, Q(1))
    assert [mod.v_weight(0, h) for h in pd.cartan] == [None, None]
    assert [mod.v_weight(1, h) for h in pd.cartan] == [0, -1]
    job = cli.Job(pd=pd, module=mod, engine="general", max_mode=1, max_degree=1,
                  samples=1, seed=0, output="text")
    assert cli.cmd_weights(job) == 0
    assert ("note: V carries no weight or mode grading"
            in capsys.readouterr().out)


def test_weights_inconsistent_character_is_semantic_error(tmp_path, capsys):
    cfg = dict(SL2_CHAR, algebra={"n": 2, "sigma": []}, module={
        "kind": "character", "level": "0",
        "assignments": [{"element": "h1", "mode": 0, "value": "1"},
                        {"element": "h1", "mode": 0, "value": "2"}]})
    rc = main(["weights", "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "error: inconsistent character values at mode 0\n"
    assert captured.out == ""


# --- delta selftest ---------------------------------------------------------------------------

def test_delta_selftest(capsys):
    rc = main(["delta-selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 6
    assert "FAIL" not in out


# --- determinism -------------------------------------------------------------------------------

def test_reports_are_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_HEIS)
    main(["check-bracket", "--config", cfg])
    first = capsys.readouterr().out
    main(["check-bracket", "--config", cfg])
    second = capsys.readouterr().out
    assert first == second


def test_state_files_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SL2_HEIS)
    outs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        main(["act", "--config", cfg, "--generator", "e1", "--mode", "-2",
              "--state", "vacuum", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# --- strict config shapes and scalars ---------------------------------------------------

def test_parse_error_level_float(tmp_path, capsys):
    cfg = dict(SL2_HEIS, module={"kind": "heisenberg_fock", "level": 1.7, "lam": ["1"]})
    assert main(["check-bracket", "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "level" in captured.err
    assert captured.out == ""


def test_parse_error_level_bool(tmp_path, capsys):
    cfg = dict(SL2_HEIS, module={"kind": "heisenberg_fock", "level": True, "lam": ["1"]})
    assert main(["check-bracket", "--config", write_config(tmp_path, cfg)]) == 2
    assert "level" in capsys.readouterr().err


def test_parse_error_window_list(tmp_path, capsys):
    assert act_on_vacuum(tmp_path, dict(SL2_CHAR, window=[1])) == 2
    assert "window must be a JSON object" in capsys.readouterr().err


def test_parse_error_algebra_integer(tmp_path, capsys):
    assert act_on_vacuum(tmp_path, dict(SL2_CHAR, algebra=3)) == 2
    assert "algebra must be a JSON object" in capsys.readouterr().err


def test_parse_error_config_top_level_list(tmp_path, capsys):
    assert act_on_vacuum(tmp_path, [SL2_CHAR]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_parse_error_module_string(tmp_path, capsys):
    assert act_on_vacuum(tmp_path, dict(SL2_CHAR, module="x")) == 2
    assert "module must be a JSON object" in capsys.readouterr().err


def test_parse_error_assignment_not_object(tmp_path, capsys):
    cfg = dict(SL2_CHAR, module={"kind": "character", "level": "0", "assignments": ["h1"]})
    assert act_on_vacuum(tmp_path, cfg) == 2
    assert "assignment must be a JSON object" in capsys.readouterr().err


# --- strict state inputs --------------------------------------------------------------------

def act_on_state(tmp_path, state):
    spec = state
    if not isinstance(state, str):
        spec = str(tmp_path / "state.json")
        (tmp_path / "state.json").write_text(json.dumps(state), encoding="utf-8")
    return main(["act", "--config", write_config(tmp_path, SL2_HEIS), "--generator",
                 "f1", "--mode", "0", "--state", spec])


UNREADABLE_JSON = {
    "not UTF-8": b'{"terms": [], "x": "\xff"}',
    "nested past the recursion limit": b"[" * 100_000 + b"]" * 100_000,
    "integer past the digit limit": b'{"terms": [], "x": 1' + b"0" * 5000 + b"}",
}


@pytest.mark.parametrize("case", UNREADABLE_JSON)
@pytest.mark.parametrize("target", ["config", "state"])
def test_unreadable_json_is_parse_error(tmp_path, capsys, case, target):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE_JSON[case])
    if target == "config":
        rc = main(["act", "--config", str(bad), "--generator", "f1",
                   "--state", "vacuum"])
    else:
        rc = act_on_state(tmp_path, str(bad))
    assert rc == 2
    captured = capsys.readouterr()
    prefix = ("error: config is not valid JSON: " if target == "config"
              else "error: malformed state file: ")
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("index", ["abc", pytest.param("1" * 5000, id="long")])
def test_parse_error_vacuum_index_not_integer(tmp_path, capsys, index):
    assert act_on_state(tmp_path, f"vacuum:{index}") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_parse_error_state_mode_float(tmp_path, capsys):
    state = {"terms": [{"coeff": "1", "monomial": [[0, 1.9, 1]], "v": 0}]}
    assert act_on_state(tmp_path, state) == 2
    assert "malformed state file" in capsys.readouterr().err


def test_parse_error_state_monomial_pair(tmp_path, capsys):
    state = {"terms": [{"coeff": "1", "monomial": [[0, 1]], "v": 0}]}
    assert act_on_state(tmp_path, state) == 2
    assert "malformed state file" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["x", pytest.param("1" * 5000, id="long")])
def test_parse_error_state_vbasis_key(tmp_path, capsys, key):
    state = {"terms": [{"coeff": "1", "monomial": [], "v": 0}], "vbasis": {key: []}}
    assert act_on_state(tmp_path, state) == 2
    captured = capsys.readouterr()
    assert "malformed state file" in captured.err and captured.err.count("\n") == 1


# --- evaluation module at s = 0 --------------------------------------------------------------

SL3_EVAL_AT_ZERO = dict(SL3_EVAL, module={"kind": "evaluation", "level": "0",
                                          "rep": "block", "block": 1, "s": "0"})


def test_check_bracket_rejects_evaluation_at_zero(tmp_path, capsys):
    rc = main(["check-bracket", "--config", write_config(tmp_path, SL3_EVAL_AT_ZERO)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:") and "s = 0" in captured.err
    assert captured.out == ""


def test_compare_engines_rejects_evaluation_at_zero(tmp_path, capsys):
    rc = main(["compare-engines", "--config", write_config(tmp_path, SL3_EVAL_AT_ZERO)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:") and "s = 0" in captured.err
    assert captured.out == ""


SL3_EVAL_AT_TWO = dict(SL3_EVAL, module={"kind": "evaluation", "level": "0",
                                         "rep": "block", "block": 1, "s": "2"})


@pytest.mark.parametrize("command, cfg, max_mode, text", [
    ("check-bracket", SL3_EVAL_AT_TWO, 40000, "mode -80000 outside |mode| <= 65536"),
    ("compare-engines", SL3_EVAL_AT_TWO, 70000, "mode -70000 outside |mode| <= 65536"),
    ("check-bracket", SL3_EVAL_AT_ZERO, 1, "s = 0"),
    ("compare-engines", SL3_EVAL_AT_ZERO, 1, "s = 0"),
    # past the window only with the slot modes mu of the sampled states
    ("check-bracket", SL3_EVAL_AT_TWO, 30000,
     "acts in modes |mode| <= 105065: mode -105065 outside |mode| <= 65536"),
    ("compare-engines", SL3_EVAL_AT_TWO, 60000,
     "acts in modes |mode| <= 102130: mode -102130 outside |mode| <= 65536"),
])
def test_sweep_window_past_the_evaluation_modes(tmp_path, capsys, command, cfg,
                                                max_mode, text):
    # check-bracket hoists actions in |mode| <= 2 * max_mode, compare-engines
    # acts in |mode| <= max_mode; both are checked before any sampling, and
    # again after it with the slot modes mu added (`realization.slot_reach`)
    cfg = dict(cfg, window=dict(cfg["window"], max_mode=max_mode))
    argv = [command, "--config", write_config(tmp_path, cfg)]
    records = tmp_path / "records.jsonl"
    if command == "check-bracket":
        argv += ["--records", str(records)]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert text in captured.err
    assert captured.out == ""
    assert not records.exists()


@pytest.mark.parametrize("window, count", [
    ({"max_mode": 100000, "max_degree": 2, "samples": 3}, 9 * 200001 ** 2 * 3),
    ({"max_mode": 1, "max_degree": 2, "samples": 100000000}, 9 * 100000000),
])
def test_check_bracket_window_past_the_check_budget(tmp_path, capsys, window, count):
    # |basis|^2 (2 max_mode + 1)^2 samples checks; a window of huge modes is
    # refused after its states are drawn, one of huge samples before
    cfg = write_config(tmp_path, dict(SL2_HEIS, window=window))
    records = tmp_path / "records.jsonl"
    start = time.perf_counter()
    rc = main(["check-bracket", "--config", cfg, "--records", str(records)])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == (f"error: the window asks for at least {count} bracket "
                            f"checks, above the budget of {cli.MAX_SWEEP_CHECKS}\n")
    assert captured.out == ""
    assert not records.exists()


def test_check_bracket_budget_admits_exactly_its_count(tmp_path, capsys, monkeypatch):
    assert cli.MAX_SWEEP_CHECKS >= 10 * 372_400  # ten acceptance sweeps
    cfg = write_config(tmp_path, SL2_HEIS)  # 9 pairs x 25 mode pairs x 3 states
    monkeypatch.setattr(cli, "MAX_SWEEP_CHECKS", 675)
    assert main(["check-bracket", "--config", cfg]) == 0
    assert "(675 checks)" in capsys.readouterr().out
    monkeypatch.setattr(cli, "MAX_SWEEP_CHECKS", 674)
    assert main(["check-bracket", "--config", cfg]) == 3
    assert capsys.readouterr().err == ("error: the window asks for at least 675 "
                                       "bracket checks, above the budget of 674\n")


def test_act_on_evaluation_at_zero_is_pinned(tmp_path, capsys):
    """Exit codes and outputs of `act` at s = 0 over every generator, modes
    -1..1 and three states, taken from the release before the mode rule of
    the evaluation module was stated once.  Nilradical generators act by
    zero on the vacuum even in negative modes."""
    cfg = write_config(tmp_path, SL3_EVAL_AT_ZERO)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"terms": [
        {"coeff": "1", "monomial": [[0, 1, 1], [1, 2, 1]], "v": 0}]}))
    specs = {"vacuum": "vacuum", "vacuum:1": "vacuum:1", "state": str(state)}
    failing, text = [], []
    for gen in ("h1", "h2", "w1", "f1", "f2", "e1", "e2", "E2.3", "E3.2", "c"):
        for mode in (-1, 0, 1):
            for label, spec in specs.items():
                rc = main(["act", "--config", cfg, "--generator", gen,
                           "--mode", str(mode), "--state", spec])
                captured = capsys.readouterr()
                if rc:
                    assert rc == 3 and captured.out == ""
                    assert captured.err.count("\n") == 1
                    failing.append((gen, mode, label))
                text.append(f"{gen} {mode} {label} {rc}\n{captured.out}")
                if gen in ("e1", "e2") and label != "state":
                    assert (rc, captured.out) == (0, '{"terms":[]}\n')
    assert failing == [(gen, mode, label)
                       for gen, mode in [("h1", -1), ("h2", -1), ("w1", -1), ("E2.3", -1),
                                         ("E3.2", -1), ("c", -1), ("c", 1)]
                       for label in specs]
    assert hashlib.sha256("".join(text).encode()).hexdigest() == (
        "26e9a4c92cf88e77b09249808f74343921fbf8d80194d8730a0fe7fbe22103ed")


def test_parse_error_level_zero_denominator(tmp_path, capsys):
    cfg = dict(SL2_HEIS, module={"kind": "heisenberg_fock", "level": "1/0", "lam": ["1"]})
    assert act_on_vacuum(tmp_path, cfg) == 2
    assert "level" in capsys.readouterr().err


@pytest.mark.parametrize("coeff", [True, "1/0"])
def test_parse_error_state_coefficient(tmp_path, capsys, coeff):
    state = {"terms": [{"coeff": coeff, "monomial": [], "v": 0}]}
    assert act_on_state(tmp_path, state) == 2
    assert "malformed state file" in capsys.readouterr().err


def test_parse_error_level_in_exponent_notation(tmp_path, capsys):
    # never expanded to 10**100000000
    cfg = dict(SL2_HEIS, module={"kind": "heisenberg_fock", "level": "1e100000000",
                                 "lam": ["1"]})
    assert main(["weights", "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad rational in module level")
    assert captured.out == ""


def test_parse_error_state_coefficient_in_exponent_notation(tmp_path, capsys):
    state = {"terms": [{"coeff": "1e100000000", "monomial": [], "v": 0}]}
    assert act_on_state(tmp_path, state) == 2
    captured = capsys.readouterr()
    assert "malformed state file" in captured.err
    assert captured.out == ""


def test_parse_error_decimal_level(tmp_path, capsys):
    cfg = dict(SL2_HEIS, module={"kind": "heisenberg_fock", "level": "1.5", "lam": ["1"]})
    assert act_on_vacuum(tmp_path, cfg) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: bad rational in module level")
    assert captured.out == ""


def test_act_rejects_negative_mode_on_evaluation_at_zero(tmp_path, capsys):
    rc = main(["act", "--config", write_config(tmp_path, SL3_EVAL_AT_ZERO),
               "--generator", "h1", "--mode", "-1", "--state", "vacuum"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:") and "evaluation point 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("s, rc", [("2", 3), ("-1", 0)])
def test_act_bounds_the_mode_of_an_evaluation_module(tmp_path, capsys, s, rc):
    # s ** mode is never formed off |s| = 1; it once ran until memory ran out
    cfg = dict(SL3_EVAL, module={"kind": "evaluation", "level": "0", "rep": "block",
                                 "block": 1, "s": s})
    start = time.perf_counter()
    assert main(["act", "--config", write_config(tmp_path, cfg), "--generator", "h1",
                 "--mode", "1000000000000000000", "--state", "vacuum"]) == rc
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    if rc == 3:
        assert captured.err.startswith("error: mode 1000000000000000000 outside")
        assert captured.out == ""


@pytest.mark.parametrize("mode, rc", [("65536", 3), ("14000", 0)])
def test_act_result_past_the_int_to_string_limit(tmp_path, capsys, mode, rc):
    # 2**65536 has 19,729 digits, past Python's 4,300-digit str(int) limit
    cfg = dict(SL3_EVAL, module={"kind": "evaluation", "level": "0", "rep": "block",
                                 "block": 1, "s": "2"})
    assert main(["act", "--config", write_config(tmp_path, cfg), "--generator", "h1",
                 "--mode", mode, "--state", "vacuum"]) == rc
    captured = capsys.readouterr()
    if rc == 3:
        assert captured.err.startswith("error: cannot write the result")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
    else:
        assert captured.err == ""
        assert str(2 ** 14000) in captured.out


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize("command", ["weights", "check-bracket", "compare-engines"])
def test_empty_evaluation_module_is_semantic_error(tmp_path, capsys, command, dim):
    cfg = dict(SL3_EVAL, module={"kind": "evaluation", "level": "0",
                                 "rep": "trivial", "dim": dim, "s": "1"})
    rc = main([command, "--config", write_config(tmp_path, cfg)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:") and "positive dimension" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("algebra, dim, rc", [
    (SL3_EVAL["algebra"], MAX_EVALUATION_DIM, 0),
    (SL3_EVAL["algebra"], MAX_EVALUATION_DIM + 1, 3),
    (SL3_EVAL["algebra"], 30_000, 3),
    ({"n": 12, "sigma": list(range(2, 13))}, MAX_EVALUATION_DIM, 0),
], ids=["64-0", "65-3", "30000-3", "rank12-64-0"])
def test_large_evaluation_module_is_refused_before_it_is_built(tmp_path, capsys, algebra,
                                                               dim, rc):
    # a trivial rep of dim d allocates d**2 entries per Levi element; dim 1,000
    # once took 45 s and dim 30,000 ran out of memory.  Its zero matrices skip
    # the axiom check, which on rank 12's 144 Levi elements took 41.7 s at dim 64
    cfg = dict(SL3_EVAL, algebra=algebra, module={"kind": "evaluation", "level": "0",
                                                  "rep": "trivial", "dim": dim, "s": "1"})
    start = time.perf_counter()
    assert main(["dump", "--config", write_config(tmp_path, cfg),
                 "--generator", "h1"]) == rc
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    if rc == 3:
        assert captured.err == (f"error: evaluation dim {dim} above the bound "
                                f"{MAX_EVALUATION_DIM}\n")
        assert captured.out == ""


def test_act_rejects_a_mode_on_the_central_element(tmp_path, capsys):
    rc = main(["act", "--config", write_config(tmp_path, SL2_HEIS),
               "--generator", "c", "--mode", "3", "--state", "vacuum"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err.startswith("error:") and "no modes" in captured.err
    assert captured.out == ""


def test_state_vbasis_cartan_direction_out_of_range(tmp_path, capsys):
    state = {"terms": [{"coeff": "1", "monomial": [], "v": 0}],
             "vbasis": {"0": [[5, 1, 1]]}}
    assert act_on_state(tmp_path, state) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Cartan direction 5" in captured.err
    assert captured.out == ""


# --- unwritable outputs ---------------------------------------------------------------

def test_dump_unwritable_out_is_parse_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_CHAR)
    rc = main(["dump", "--config", cfg, "--generator", "h1", "--mode", "0",
               "--out", str(tmp_path / "missing" / "x")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot write output:")
    assert captured.out == ""


def test_act_out_directory_is_parse_error(tmp_path, capsys):
    cfg = write_config(tmp_path, SL2_CHAR)
    rc = main(["act", "--config", cfg, "--generator", "f1", "--mode", "0",
               "--state", "vacuum", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot write output:")
    assert captured.out == ""


def test_check_bracket_unwritable_records_fails_before_sweep(tmp_path, capsys,
                                                             monkeypatch):
    sweeps = []
    monkeypatch.setattr(cli, "bracket_sweep",
                        lambda *args, **kwargs: sweeps.append(args))
    cfg = write_config(tmp_path, SL2_HEIS)
    rc = main(["check-bracket", "--config", cfg,
               "--records", str(tmp_path / "missing" / "records.jsonl")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot write records:")
    assert captured.out == ""
    assert sweeps == []


def test_every_command_rejects_explicit_engine_off_parabolic(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(SL2_CHAR, algebra={"n": 2, "sigma": []},
                                      module={"kind": "character", "level": "0"},
                                      engine="explicit"))
    for argv in (["weights"], ["dump", "--generator", "f1"], ["check-bracket"],
                 ["act", "--generator", "f1", "--state", "vacuum"]):
        assert main(argv + ["--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.err == "error: closed-form engine needs a maximal parabolic\n"
        assert captured.out == ""


def test_state_exponent_zero_is_semantic_error(tmp_path, capsys):
    state = {"terms": [{"coeff": "1", "monomial": [[0, 1, 0]], "v": 0}]}
    assert act_on_state(tmp_path, state) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "exponents" in captured.err
    assert captured.out == ""


# --- internal errors --------------------------------------------------------------------

@pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError()])
def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch, exc):
    def fail(job):
        raise exc

    monkeypatch.setattr(cli, "cmd_weights", fail)
    rc = main(["weights", "--config", write_config(tmp_path, SL2_HEIS)])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err == f"error: internal error: {exc!r}\n"
    assert captured.out == ""
