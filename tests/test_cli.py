"""CLI behavior: exit codes, report files, determinism."""

import json
import time
from pathlib import Path

import pytest

from locfusion.cli import main


def run(args):
    return main(args)


def test_group_info(capsys):
    assert run(["group", "info", "instance-a"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 24 and out["sylow_order"] == 8


def test_locality_build_and_validate(tmp_path):
    out = tmp_path / "r.json"
    assert run(["locality", "build", "instance-b", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["carrier_size"] == 24
    assert run(["locality", "validate", "instance-a",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True


def test_unknown_descriptor_exits_2(capsys):
    assert run(["group", "info", "no-such-instance"]) == 2


def test_a_bundled_name_with_a_suffix_is_a_path(tmp_path, monkeypatch,
                                                capsys):
    """Only an argument that is exactly a bundled name reads the packaged
    file: ``product-24.json`` is a path, and here no such file exists."""
    monkeypatch.chdir(tmp_path)
    assert run(["group", "info", "product-24.json"]) == 2
    got, err = capsys.readouterr()
    rep = json.loads(got)
    assert set(rep) == {"error", "kind"}
    assert rep["kind"] == "FileNotFoundError"
    assert "'product-24.json'" in rep["error"]
    assert err == ""


def test_a_descriptor_path_needs_no_json_suffix(tmp_path, capsys):
    from locfusion.instances import load_descriptor
    p = tmp_path / "g8.txt"
    p.write_text(json.dumps(load_descriptor("group-8")))
    assert run(["group", "info", str(p)]) == 0
    from_path = capsys.readouterr().out
    assert run(["group", "info", "group-8"]) == 0
    assert from_path == capsys.readouterr().out


def test_bad_delta_exits_2(tmp_path, capsys):
    d = {
        "name": "bad-delta",
        "group": {"degree": 4,
                  "generators": [[2, 3, 4, 1], [2, 1, 3, 4]]},
        "p": 2,
        "sylow": "auto",
        # order-4 members without the order-8 overgroup: not closed
        "delta": {"explicit": [
            [[1, 2, 3, 4], [2, 1, 4, 3], [3, 4, 1, 2], [4, 3, 2, 1]],
            [[1, 2, 3, 4], [2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]]]},
        "normal_subgroups": {}, "k_choices": {}, "fusion_products": {}
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(d))
    assert run(["locality", "validate", str(p)]) == 2
    err = json.loads(capsys.readouterr().out)
    assert "error" in err


def test_theorem1_with_non_normal_k_exits_2(tmp_path, capsys):
    from locfusion.instances import load_descriptor
    d = load_descriptor("instance-b")
    d["theorem1"]["k"] = ["u2"]
    p = tmp_path / "tweaked.json"
    p.write_text(json.dumps(d))
    assert run(["theorem1", str(p)]) == 2


def test_theorem_commands(capsys):
    assert run(["theorem1", "instance-b"]) == 0
    assert run(["theorem2", "instance-b"]) == 0
    assert run(["restriction", "instance-b"]) == 0
    capsys.readouterr()


def test_fusion_commands(tmp_path):
    out = tmp_path / "f.json"
    assert run(["fusion", "build", "instance-a", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["morphisms"]) == 28
    assert run(["fusion", "saturate-check", "group-8",
                "--out", str(out)]) == 0


def test_product_and_verify(tmp_path):
    out = tmp_path / "p.json"
    assert run(["product-ed", "product-24", "--product", "i",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["products"][0]["matches_oracle"] is True
    assert run(["verify-ed", "product-24", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert {p["instance"] for p in rep["products"]} == \
        {"product-24:i", "product-24:ii", "product-24:subn"}


def test_suite_exit_zero(tmp_path):
    out = tmp_path / "s.json"
    for name in ("instance-a", "product-24"):
        assert run(["suite", name, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["ok"] is True


def test_reports_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["suite", "product-24", "--out", str(a)]) == 0
    assert run(["suite", "product-24", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_theorem_reports_set_boolean_clauses(tmp_path):
    """Only a product's audit sets clauses that are not booleans, so the
    None and string values that ``report.fold`` lets pass never reach a
    theorem or restriction report (``Report.ok``) of a bundled suite."""
    out, seen = tmp_path / "s.json", set()
    for name in ("instance-a", "instance-b", "product-24", "product-48",
                 "group-8", "group-60"):
        assert run(["suite", name, "--out", str(out)]) == 0
        todo = [json.loads(out.read_text())]
        while todo:
            node = todo.pop()
            if isinstance(node, dict):
                if "suite" in node and "clauses" in node:
                    seen.add(node["suite"])
                    assert all(isinstance(v, bool)
                               for v in node["clauses"].values()), node
                todo += node.values()
            elif isinstance(node, list):
                todo += node
    assert seen == {"nk_normal", "nk_subnormal", "restriction"}


def test_json_echo_with_out(tmp_path, capsys):
    out = tmp_path / "r.json"
    run(["group", "info", "instance-a", "--out", str(out), "--json"])
    assert json.loads(capsys.readouterr().out)["order"] == 24
    # without --json, nothing on stdout
    run(["group", "info", "instance-a", "--out", str(out)])
    assert capsys.readouterr().out == ""


def test_seed_rejected(capsys):
    # nothing in the program is random, so there is no --seed flag
    with pytest.raises(SystemExit) as e:
        run(["group", "info", "instance-a", "--seed", "7"])
    assert e.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


S6_DESCRIPTOR = Path(__file__).resolve().parents[1] / "perfbench" / \
    "instances" / "s6.json"


@pytest.mark.parametrize("p,sylow", [(4, "explicit"), (1, "auto"),
                                     (1000003 * 1000033, "auto"),
                                     (100000007 * 100000037, "auto")])
@pytest.mark.parametrize("command", [["group", "info"],
                                     ["fusion", "saturate-check"]])
def test_non_prime_p_exits_2(p, sylow, command, tmp_path, capsys):
    d = json.loads(S6_DESCRIPTOR.read_text())
    d["name"], d["p"] = "s6-p", p
    if sylow == "auto":
        d["sylow"] = "auto"
    start = time.perf_counter()
    assert run(command + [_write(tmp_path, d)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == f"'p' must be a prime, not {p}"
    assert "Traceback" not in err


def test_p_beyond_exact_primality_exits_2(tmp_path, capsys):
    d = json.loads(S6_DESCRIPTOR.read_text())
    d["name"], d["p"] = "s6-p", 10 ** 25
    assert run(["group", "info", _write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert "is too large" in json.loads(out)["error"]
    assert "Traceback" not in err


def test_large_prime_p_is_quick(tmp_path, capsys):
    # 10^9 + 7 is prime and does not divide |S6|: S is trivial
    d = json.loads(S6_DESCRIPTOR.read_text())
    d["name"], d["p"], d["sylow"] = "s6-p", 1000000007, "auto"
    start = time.perf_counter()
    assert run(["group", "info", _write(tmp_path, d)]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["sylow_order"] == 1


@pytest.mark.parametrize("value", ["0", "-1", "x"])
@pytest.mark.parametrize("command", [["locality", "validate"], ["suite"]])
def test_bad_max_word_len_exits_2(value, command, capsys):
    with pytest.raises(SystemExit) as e:
        run(command + ["instance-a", "--max-word-len", value])
    assert e.value.code == 2
    assert "--max-word-len" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["group", "info"], ["locality", "build"],
                                     ["theorem1"], ["theorem2"],
                                     ["restriction"], ["fusion", "build"],
                                     ["fusion", "saturate-check"],
                                     ["product-ed"], ["verify-ed"]])
def test_max_word_len_only_where_read(command, capsys):
    with pytest.raises(SystemExit) as e:
        run(command + ["instance-b", "--max-word-len", "3"])
    assert e.value.code == 2
    assert "unrecognized arguments: --max-word-len" in \
        capsys.readouterr().err


@pytest.mark.parametrize("name", ["instance-a", "s7"])
def test_max_word_len_flag_changes_no_byte(name, capsys):
    """The flag is accepted and ignored, as is the descriptor's
    ``max_word_length`` (5 on instance-a, 3 on the S7 benchmark
    descriptor): the report is the same with no flag, with 1 and with
    6, and names no word bound."""
    if name == "s7":
        name = str(S6_DESCRIPTOR.with_name("s7.json"))
    outs = []
    for flag in ([], ["--max-word-len", "1"], ["--max-word-len", "6"]):
        assert run(["locality", "validate", name, *flag]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    assert not {"max_word_length", "bounded_check_only"} & \
        json.loads(outs[0]).keys()


@pytest.mark.parametrize("value,message", [
    ("x", "'max_word_length' must be an integer, not 'x'"),
    (True, "'max_word_length' must be an integer, not True"),
    (0, "'max_word_length' must be at least 1, not 0"),
    (-1, "'max_word_length' must be at least 1, not -1")])
def test_bad_max_word_length_key_exits_2(value, message, tmp_path, capsys):
    from locfusion.instances import load_descriptor
    d = load_descriptor("instance-a")
    d["max_word_length"] = value
    assert run(["locality", "validate", _write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == message
    assert "Traceback" not in err


def _write(tmp_path, d):
    p = tmp_path / f"{d['name']}.json"
    p.write_text(json.dumps(d))
    return str(p)


def test_non_overgroup_closed_delta_exits_2(tmp_path, capsys):
    # S and a subgroup of order 2 without the order-4 groups between them
    d = {"name": "gap-delta",
         "group": {"degree": 4, "generators": [[2, 3, 4, 1], [2, 1, 3, 4]]},
         "p": 2, "sylow": "auto",
         "delta": {"explicit": [
             [[1, 2, 3, 4], [2, 1, 4, 3]],
             [[1, 2, 3, 4], [1, 2, 4, 3], [2, 1, 3, 4], [2, 1, 4, 3],
              [3, 4, 1, 2], [3, 4, 2, 1], [4, 3, 1, 2], [4, 3, 2, 1]]]}}
    for cmd in (["locality", "validate"], ["suite"]):
        assert run(cmd + [_write(tmp_path, d)]) == 2
        out, err = capsys.readouterr()
        assert "overgroup-closed" in json.loads(out)["error"]
        assert "Traceback" not in err


def test_group_over_cap_exits_3(tmp_path, capsys):
    d = {"name": "s8", "p": 2,
         "group": {"degree": 8, "generators": [[2, 3, 4, 5, 6, 7, 8, 1],
                                               [2, 1, 3, 4, 5, 6, 7, 8]]}}
    assert run(["group", "info", _write(tmp_path, d)]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["kind"] == "SizeCapExceeded"
    assert "Traceback" not in err


def test_string_p_exits_2(tmp_path, capsys):
    from locfusion.instances import load_descriptor
    d = load_descriptor("instance-a")
    d["p"] = "2"
    assert run(["suite", _write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert "'p' must be an integer" in json.loads(out)["error"]
    assert "Traceback" not in err


def test_string_min_order_exits_2(tmp_path, capsys):
    from locfusion.instances import load_descriptor
    d = load_descriptor("instance-a")
    d["delta"] = {"min_order": "4"}
    assert run(["locality", "build", _write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert "'min_order' must be an integer" in json.loads(out)["error"]
    assert "Traceback" not in err


def test_product_without_e_exits_2(tmp_path, capsys):
    from locfusion.instances import load_descriptor
    d = load_descriptor("product-24")
    del d["fusion_products"]["i"]["E"]
    assert run(["product-ed", _write(tmp_path, d), "--product", "i"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == "product 'i' missing 'E'"
    assert "Traceback" not in err


def _no_closure(*args):
    raise AssertionError("a group was built before the schema check")


@pytest.mark.parametrize("name,edit,message", [
    ("product-24", lambda d: d["fusion_products"]["ii"]["D"].pop("kind"),
     "product 'ii' 'D' missing 'kind'"),
    ("product-24", lambda d: d["fusion_products"]["subn"]["D"].pop("over"),
     "product 'subn' 'D' missing 'over'"),
    ("product-48", lambda d: d["fusion_products"].update(iv=[]),
     "product 'iv' must be an object, not []"),
    ("instance-b", lambda d: d["restriction"]["delta"].update(min_order="8"),
     "delta 'min_order' must be an integer, not '8'"),
    ("instance-b", lambda d: d["k_choices"].update(u2=5),
     "bad subgroup spec 5"),
    ("instance-b", lambda d: d.update(sylow=5),
     "'sylow' must be 'auto' or a list of permutations, not 5"),
    ("instance-a", lambda d: d.update(delta={"explicit": 5}),
     "delta 'explicit' must be a list of element lists, not 5"),
    ("instance-a", lambda d: d.update(delta={"explicit": [5]}),
     "delta 'explicit' must be a list of element lists, not [5]"),
    ("instance-a", lambda d: d.update(delta={"every": True}),
     "unrecognized delta rule {'every': True}"),
    ("instance-a", lambda d: d.update(delta={"all": "yes"}),
     "delta 'all' must be true, not 'yes'"),
    ("instance-a", lambda d: d.update(delta={"all": False}),
     "delta 'all' must be true, not False"),
    ("instance-a", lambda d: d.update(delta={"all": True, "min_order": 4}),
     "a delta rule has exactly one key, not ['all', 'min_order']"),
    ("instance-a", lambda d: d.update(delta={"min_order": 4,
                                             "explicit": 5}),
     "a delta rule has exactly one key, not ['explicit', 'min_order']"),
    ("instance-a", lambda d: d.update(delta={}),
     "unrecognized delta rule {}"),
    ("instance-b", lambda d: d["restriction"].update(delta={"all": 1}),
     "delta 'all' must be true, not 1"),
    ("instance-b", lambda d: d["restriction"]["delta"].update(all=True),
     "a delta rule has exactly one key, not ['all', 'min_order']"),
    ("product-24", lambda d: d["fusion_products"]["ii"]["D"].update(kind="x"),
     "product 'ii' 'D' 'kind' must be 'inner' or 'normalizer', not 'x'"),
    ("instance-b", lambda d: d["theorem1"].update(k=5),
     "'theorem1' 'k' must be a non-empty list of names, not 5"),
    ("instance-b", lambda d: d["theorem2"].update(k=[]),
     "'theorem2' 'k' must be a non-empty list of names, not []"),
    ("instance-b", lambda d: d["restriction"].update(k=["order12"]),
     "'restriction' 'k' must be a name, not ['order12']"),
    ("instance-b", lambda d: d["k_choices"].update(u2={"elements": 5}),
     "subgroup 'elements' must be a list of permutations, not 5"),
    ("instance-b", lambda d: d["k_choices"].update(u2={"generators": [5]}),
     "subgroup 'generators' must be a list of permutations, not [5]"),
    ("product-24", lambda d: d["fusion_products"]["i"]["E"].update(over=5),
     "product 'i' 'E' 'over' must be a list of permutations, not 5"),
    ("product-24", lambda d: d["fusion_products"]["i"]["E"].update(acting=5),
     "product 'i' 'E' 'acting' must be a list of permutations, not 5"),
    ("product-24",
     lambda d: d["fusion_products"]["i"]["oracle"].update(acting=5),
     "product 'i' 'oracle' 'acting' must be 'all' or a list of "
     "permutations, not 5"),
    ("instance-a", lambda d: d.update(name=[1]),
     "'name' must be a string, not [1]"),
], ids=["d-kind", "inner-over", "product-not-object", "restriction-delta",
        "k-choice", "sylow", "explicit-delta", "explicit-delta-member",
        "delta-rule", "all-not-true", "all-false", "all-and-min-order",
        "min-order-and-explicit", "empty-delta", "restriction-all-not-true",
        "restriction-two-rules", "d-kind-unknown",
        "theorem1-k", "theorem2-k-empty", "restriction-k", "elements", "generators", "e-over",
        "e-acting", "oracle-acting", "name"])
def test_malformed_section_exits_2_before_any_group(name, edit, message,
                                                    tmp_path, capsys,
                                                    monkeypatch):
    """Every section is checked on load, including sections the command
    never reads: ``group info`` reads none of these."""
    from locfusion import permgroup
    from locfusion.instances import load_descriptor
    d = load_descriptor(name)
    edit(d)
    path = _write(tmp_path, d)
    monkeypatch.setattr(permgroup, "_closure", _no_closure)
    assert run(["group", "info", path]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == message
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["theorem1", "theorem2", "suite"])
@pytest.mark.parametrize("section", ["theorem1", "theorem2"])
def test_empty_k_list_exits_2(command, section, tmp_path, capsys,
                              monkeypatch):
    """An empty K list would pass on no K at all: it is an input error,
    under every command that reads or loads the section."""
    from locfusion import permgroup
    from locfusion.instances import load_descriptor
    d = load_descriptor("instance-b")
    d[section]["k"] = []
    path = _write(tmp_path, d)
    monkeypatch.setattr(permgroup, "_closure", _no_closure)
    assert run([command, path]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == (
        f"'{section}' 'k' must be a non-empty list of names, not []")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["E", "D"])
def test_product_over_outside_s_exits_2(field, tmp_path, capsys):
    from locfusion.instances import load_descriptor
    d = load_descriptor("product-24")
    d["fusion_products"]["i"][field]["over"] = [[2, 3, 1, 4]]  # a 3-cycle
    path = _write(tmp_path, d)
    assert run(["product-ed", path, "--product", "i"]) == 2
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rep["kind"] == "DescriptorError"
    assert rep["error"] == (f"product 'i' '{field}' 'over' does not "
                            "generate a subgroup of S")
    assert "Traceback" not in err
    # the cap still exits 3 where the descriptor is sound
    assert run(["product-ed", "product-24", "--product", "i",
                "--morphism-cap", "5"]) == 3
    assert json.loads(capsys.readouterr().out)["kind"] == \
        "MorphismCapExceeded"


@pytest.mark.parametrize("command", ["product-ed", "verify-ed"])
@pytest.mark.parametrize("over", [[[1, 3, 2, 4]], [[2, 3, 1, 4]]],
                         ids=["outside-s", "not-a-p-group"])
def test_oracle_over_outside_s_exits_2(over, command, tmp_path, capsys):
    """The oracle's ``over`` is checked as E's and D's are: a transposition
    outside S, and a 3-cycle, which generates no p-group, are input
    errors."""
    from locfusion.instances import load_descriptor
    d = load_descriptor("product-24")
    d["fusion_products"]["i"]["oracle"]["over"] = over
    assert run([command, _write(tmp_path, d), "--product", "i"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {
        "error": "product 'i' 'oracle' 'over' does not generate a subgroup "
                 "of S", "kind": "DescriptorError"}
    assert "Traceback" not in err


def test_other_fusion_error_exits_2(monkeypatch, capsys):
    from locfusion import cli
    from locfusion.fusion import FusionError

    def broken(ctx, args):
        raise FusionError("not a subgroup of S")
    monkeypatch.setitem(cli.HANDLERS, ("group", "info"), broken)
    assert run(["group", "info", "instance-a"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["kind"] == "FusionError"
    assert "Traceback" not in err


def test_restriction_non_overgroup_closed_delta_exits_2(tmp_path, capsys):
    from locfusion.instances import load_descriptor
    d = load_descriptor("instance-b")
    # an order-4 subgroup of S without S itself
    d["restriction"]["delta"] = {"explicit": [
        [[1, 2, 3, 4, 5], [3, 2, 1, 4, 5], [1, 4, 3, 2, 5], [3, 4, 1, 2, 5]]]}
    assert run(["restriction", _write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == ("restriction delta is not "
                                        "overgroup-closed: missing overgroup "
                                        "of order 8")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["restriction", "suite"])
def test_restriction_delta_outside_s_exits_2(command, tmp_path, capsys):
    """A restriction delta member outside S (a 5-cycle of S6 at p = 2)
    gets the message of a top-level delta member outside S."""
    d = json.loads(S6_DESCRIPTOR.read_text())
    d["name"] = "s6-c5"
    d["restriction"]["delta"] = {"explicit": [
        [[1, 2, 3, 4, 5, 6], [2, 3, 4, 5, 1, 6], [3, 4, 5, 1, 2, 6],
         [4, 5, 1, 2, 3, 6], [5, 1, 2, 3, 4, 6]]]}
    assert run([command, _write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "delta member is not a subgroup of S",
                               "kind": "LocalityError"}
    assert "Traceback" not in err


def test_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    """An --out that cannot be written is an input error: exit 2, the
    error on stdout as for the other input errors, and no file."""
    out = tmp_path / "missing" / "r.json"
    assert run(["group", "info", "group-8", "--out", str(out)]) == 2
    got, err = capsys.readouterr()
    rep = json.loads(got)
    assert rep["kind"] == "FileNotFoundError"
    assert str(out) in rep["error"]
    assert err == ""
    assert not out.parent.exists()


def test_unreadable_descriptor_exits_2(tmp_path, capsys):
    """A descriptor path that names a directory is an input error too."""
    d = tmp_path / "d.json"
    d.mkdir()
    assert run(["group", "info", str(d)]) == 2
    got, err = capsys.readouterr()
    assert json.loads(got)["kind"] == "IsADirectoryError"
    assert err == ""


def test_descriptor_that_is_not_utf8_exits_2(tmp_path, capsys):
    d = tmp_path / "d.json"
    d.write_bytes(b"\xff\xfe{}")
    assert run(["group", "info", str(d)]) == 2
    got, err = capsys.readouterr()
    assert json.loads(got)["kind"] == "DescriptorError"
    assert err == ""


def test_morphism_cap_lasts_one_run(capsys):
    assert run(["fusion", "build", "instance-a", "--morphism-cap", "5"]) == 3
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rep["kind"] == "MorphismCapExceeded"
    assert rep["error"] == "fusion closure exceeded 5 morphisms"
    assert "Traceback" not in err
    assert run(["fusion", "build", "instance-a"]) == 0


def test_morphism_cap_reaches_product_closures(capsys):
    # F_S(G) is built without a closure; the cap fires in the product's
    assert run(["product-ed", "product-24", "--product", "i",
                "--morphism-cap", "5"]) == 3
    assert json.loads(capsys.readouterr().out)["kind"] == \
        "MorphismCapExceeded"
    assert run(["product-ed", "product-24", "--product", "i"]) == 0


def test_subsystem_enumeration_cap_exits_3(monkeypatch, capsys):
    from locfusion import fusion
    monkeypatch.setattr(fusion, "SUBSYSTEM_ENUM_CAP", 1)
    assert run(["verify-ed", "product-24"]) == 3
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rep["kind"] == "SizeCapExceeded"
    assert rep["error"] == ("subsystem enumeration exceeded 1 closed "
                            "subsystems over one subgroup of S")
    assert "Traceback" not in err


def test_unknown_normalizer_identity_exits_3(monkeypatch, capsys):
    """An undecided normalizer identity with no failed clause exits 3 from
    ``verify-ed`` and ``suite``, and a failed step still exits 1."""
    from locfusion import cli, products
    monkeypatch.setattr(products, "_normalizer_identity",
                        lambda *args: "unknown")
    assert run(["verify-ed", "product-24", "--product", "i"]) == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["products"][0]["clauses"]["N_ED_T_identity"] == "unknown"
    assert run(["suite", "product-24"]) == 3
    assert json.loads(capsys.readouterr().out)["ok"] is False
    monkeypatch.setattr(cli, "cmd_locality_validate",
                        lambda ctx, args: ({}, cli.EXIT_FAIL))
    assert run(["suite", "product-24"]) == 1


@pytest.mark.parametrize("cap,code", [("50", 3), ("120", 0)])
def test_group_cap_flag(cap, code, capsys):
    assert run(["group", "info", "instance-b", "--group-cap", cap]) == code
    out, err = capsys.readouterr()
    rep = json.loads(out)
    if code == 3:
        assert rep["kind"] == "SizeCapExceeded"
        assert rep["error"] == "closure exceeds cap of 50 elements"
    else:
        assert rep["order"] == 120
    assert "Traceback" not in err


def test_group_cap_default_is_10000(tmp_path, capsys):
    d = {"name": "s8", "p": 2,
         "group": {"degree": 8, "generators": [[2, 3, 4, 5, 6, 7, 8, 1],
                                               [2, 1, 3, 4, 5, 6, 7, 8]]}}
    assert run(["group", "info", _write(tmp_path, d)]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == \
        "closure exceeds cap of 10000 elements"


@pytest.mark.parametrize("flag", ["--group-cap", "--morphism-cap"])
def test_non_positive_cap_exits_2(flag, capsys):
    with pytest.raises(SystemExit) as e:
        run(["group", "info", "instance-a", flag, "0"])
    assert e.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("name,command", [
    ("instance-b", "theorem1"), ("instance-b", "theorem2"),
    ("instance-b", "restriction"), ("product-24", "verify-ed")])
def test_predicates_ignore_the_descriptor_word_bound(name, command,
                                                     monkeypatch):
    """The partial-subgroup tests of the theorem and restriction
    harnesses and of the locality route check pairs and walk no words:
    with a descriptor's ``max_word_length`` of 1 they give the report
    they give without one, also on the restricted locality, and no
    word-state exploration runs."""
    from locfusion import cli, instances as inst, locality
    calls = []
    explore = locality._word_states
    monkeypatch.setattr(locality, "_word_states",
                        lambda L: calls.append(L) or explore(L))
    args = cli.build_parser().parse_args([command, name])
    handler = cli.HANDLERS[(args.command, getattr(args, "sub", None))]
    d = inst.load_descriptor(name)
    reports = [handler(inst.Instance(dict(d, **bound)), args)
               for bound in ({}, {"max_word_length": 1})]
    assert reports[0] == reports[1]
    assert calls == []


@pytest.mark.parametrize("value", ["yes", 1, []])
def test_non_boolean_enumerate_minimality_exits_2(value, tmp_path, capsys):
    from locfusion.instances import load_descriptor
    d = load_descriptor("product-24")
    d["fusion_products"]["i"]["enumerate_minimality"] = value
    assert run(["suite", _write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == (
        f"product 'i' 'enumerate_minimality' must be a boolean, "
        f"not {value!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("name,command,edit,message", [
    ("product-24", ["verify-ed", "--product", "i"],
     lambda d: d["fusion_products"]["i"]["D"].update(over=None),
     "product 'i' 'D' 'over' must be a list of permutations, not None"),
    ("product-24", ["verify-ed", "--product", "i"],
     lambda d: d["fusion_products"]["i"]["E"].update(over=None),
     "product 'i' 'E' 'over' must be a list of permutations, not None"),
    ("product-24", ["verify-ed", "--product", "i"],
     lambda d: d["fusion_products"]["i"]["E"].update(acting=None),
     "product 'i' 'E' 'acting' must be a list of permutations, not None"),
    ("instance-b", ["theorem1"],
     lambda d: d["k_choices"]["trivial"].update(generators=None),
     "subgroup 'generators' must be a list of permutations, not None"),
    ("instance-b", ["theorem1"],
     lambda d: d["k_choices"].update(t={"elements": None}),
     "subgroup 'elements' must be a list of permutations, not None"),
    ("group-8", ["suite"], lambda d: d.update(delta=None),
     "delta must be an object, not None"),
    ("instance-b", ["restriction"],
     lambda d: d["restriction"].update(delta=None),
     "delta must be an object, not None"),
], ids=["d-over", "e-over", "e-acting", "generators", "elements", "delta",
        "restriction-delta"])
def test_null_where_a_value_is_required_exits_2(name, command, edit, message,
                                                tmp_path, capsys):
    """A ``null`` is not an absent key: where a value is required it is an
    input error naming the field, not a crash where it is read."""
    from locfusion.instances import load_descriptor
    d = load_descriptor(name)
    edit(d)
    assert run(command + [_write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == message
    assert "Traceback" not in err


FALSY = [None, [], {}, 0, ""]
FIRST_KEY = {"theorem1": "n", "theorem2": "n", "restriction": "delta"}


@pytest.mark.parametrize("value", FALSY, ids=repr)
@pytest.mark.parametrize("section", ["theorem1", "theorem2", "restriction"])
@pytest.mark.parametrize("command", ["suite", "own"])
def test_falsy_optional_section_exits_2(command, section, value, tmp_path,
                                        capsys):
    """A present section is read as given, not as absent when it is falsy:
    ``suite`` and the section's own command exit 2, naming it."""
    from locfusion.instances import load_descriptor
    d = load_descriptor("instance-b")
    d[section] = value
    argv = [section if command == "own" else command, _write(tmp_path, d)]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == (
        f"{section!r} missing {FIRST_KEY[section]!r}" if value == {} else
        f"{section!r} must be an object, not {value!r}")
    assert "Traceback" not in err


def test_normal_subgroup_must_be_an_object(tmp_path, capsys):
    """A string inside ``normal_subgroups`` is rejected on load, while a
    ``k_choices`` entry may still name a normal subgroup."""
    from locfusion.instances import load_descriptor
    d = load_descriptor("instance-b")
    d["normal_subgroups"]["alt"] = "my_generators"
    assert run(["theorem1", _write(tmp_path, d)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == \
        "normal subgroup 'alt' must be an object, not 'my_generators'"
    assert "Traceback" not in err
    d = load_descriptor("instance-b")
    d["k_choices"]["order12"] = "alt"
    assert run(["restriction", _write(tmp_path, d)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def _fields(d, path=()):
    """Every key path through the objects of a descriptor."""
    for key, value in d.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _fields(value, path + (key,))


@pytest.mark.parametrize("name,command", [
    ("instance-b", ["suite"]), ("product-24", ["verify-ed", "--product", "i"])])
def test_malformed_field_sweep_never_crashes(name, command, tmp_path,
                                            capsys):
    """Each field of the descriptor, in turn, replaced by null, a string
    (one the loader reads as a key), an int, [] and {}: the CLI returns
    0 to 3 without raising, and an exit 2 reports {"error", "kind"}."""
    from locfusion.instances import load_descriptor
    base = load_descriptor(name)
    for path in _fields(base):
        for value in (None, "generators", 7, [], {}):
            d = json.loads(json.dumps(base))
            parent = d
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            where = (path, value)
            code = run(command + [_write(tmp_path, d)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), where
            assert "Traceback" not in err, where
            if code == 2:
                assert set(json.loads(out)) == {"error", "kind"}, where
