"""Command-line behavior: payloads, exit codes, piping, determinism."""

import io
import json
import re
import subprocess
import sys

import pytest

from sx.cli import main
from sx.corpus import fixture_names


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_fixture(capsys):
    code, out, _ = run_cli(capsys, "info", "fixtures:bl_sigma3_16")
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [16, 106, 180, 90]
    assert payload["dimension"] == 3


def test_homology_poincare_sphere(capsys):
    code, out, _ = run_cli(capsys, "homology", "--field", "0", "fixtures:bl_sigma3_16")
    assert code == 0
    assert json.loads(out) == {"field": "Q", "reduced_betti": [0, 0, 0, 1]}


def test_classify(capsys):
    code, out, _ = run_cli(capsys, "classify", "fixtures:ziegler_b2")
    assert code == 0
    payload = json.loads(out)
    assert payload["normal_pseudomanifold"] and not payload["closed"]


def test_certify_shelled_refuted_exit_code(capsys):
    code, out, _ = run_cli(capsys, "certify", "shelled", "-k", "3", "fixtures:ziegler_b2")
    assert code == 1
    assert json.loads(out)["status"] == "REFUTED"


def test_certify_stellated_proved(capsys):
    code, out, _ = run_cli(capsys, "certify", "stellated", "-k", "1", "fixtures:ziegler_s2_10")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PROVED"
    assert payload["certificate"]["kind"] == "bistellar"


def test_certify_stellated_refutes_when_the_moves_run_out(capsys):
    code, out, _ = run_cli(capsys, "certify", "stellated", "-k", "3", "fixtures:dfm_s3_16")
    payload = json.loads(out)
    assert (code, payload["status"], payload["budget_spent"]) == (1, "REFUTED", {"nodes": 1})
    code, out, _ = run_cli(capsys, "certify", "stellated", "-k", "4", "fixtures:dfm_s3_16")
    assert (code, json.loads(out)["status"]) == (0, "PROVED")


def test_flips_empty_on_dfm(capsys):
    code, out, _ = run_cli(capsys, "flips", "--lo", "1", "--hi", "3", "fixtures:dfm_s3_16")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_stacked_ball_dispatch(capsys):
    code, out, _ = run_cli(capsys, "stacked", "-k", "2", "fixtures:dfm_b4_16")
    assert code == 0
    assert json.loads(out)["status"] == "PROVED"


@pytest.mark.parametrize(
    "cmd,k,src",
    [
        (["certify", "beta", "--field", "2"], "-1", "fixtures:lutz_s3_8"),
        (["certify", "beta", "--field", "2"], "5", "fixtures:lutz_s3_8"),
        (["stacked"], "-1", "fixtures:lutz_b1"),
        (["stacked"], "9", "fixtures:lutz_b1"),
    ],
)
def test_k_outside_the_dimension_exits_69_without_a_traceback(cmd, k, src):
    # β̃_k and the stacked skeleton of these 3-dimensional inputs exist for
    # 0 <= k <= 3 only: k = -1 once read β̃_3 and k = 5 raised IndexError;
    # a ball took any k
    argv = [sys.executable, "-m", "sx.cli", *cmd, "-k", k, src]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (69, "")
    assert proc.stderr == f"error: need 0 <= k <= 3, got k={k}\n"


def test_beta_on_fewer_than_k_plus_3_vertices_exits_69_without_a_traceback():
    # the formula reads binom(n - k - 3, k + 1): a triangle has n = 3 < 4,
    # which once surfaced as math.comb's own message
    cli = [sys.executable, "-m", "sx.cli"]
    triangle = subprocess.run([*cli, "generate", "standard-sphere", "1"], capture_output=True, text=True)
    proc = subprocess.run([*cli, "certify", "beta", "-k", "1", "-"], input=triangle.stdout,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (69, "")
    assert proc.stderr == "error: need at least k + 3 = 4 vertices, got n=3\n"


def test_stacked_sphere_with_candidate(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "stacked", "-k", "2", "--candidate", "fixtures:dfm_b4_16", "fixtures:dfm_s3_16"
    )
    assert code == 0
    assert json.loads(out)["status"] == "PROVED"


def test_generate_and_bar_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "generate", "klee-novik", "1", "4")
    assert code == 0
    m = tmp_path / "m.json"
    m.write_text(out)
    code, out2, _ = run_cli(capsys, "bar", "-k", "1", "--manifold", str(m))
    assert code == 0
    code, out3, _ = run_cli(capsys, "generate", "klee-novik-bar", "1", "4")
    assert json.loads(out2)["facets"] == json.loads(out3)["facets"]


def test_aut_order_via_pipe():
    gen = subprocess.run(
        [sys.executable, "-m", "sx.cli", "generate", "klee-novik", "1", "3"],
        capture_output=True,
        text=True,
        check=True,
    )
    aut = subprocess.run(
        [sys.executable, "-m", "sx.cli", "aut", "-"],
        input=gen.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(aut.stdout)["order"] == 20


def _parse_cycles(text: str, points: list[str]) -> dict:
    """The permutation that `sx aut` prints in cycle notation."""
    perm = {v: v for v in points}
    for cycle in re.findall(r"\(([^()]*)\)", text):
        members = cycle.split()
        for a, b in zip(members, members[1:] + members[:1]):
            perm[a] = b
    return perm


@pytest.mark.parametrize("source", ["klee-novik 1 3", "fixtures:lutz_s2_8"])
def test_aut_generators_close_to_the_printed_order_and_orbits(capsys, tmp_path, source):
    if not source.startswith("fixtures:"):
        code, out, _ = run_cli(capsys, "generate", *source.split())
        path = tmp_path / "m.json"
        path.write_text(out)
        source = str(path)
    code, out, _ = run_cli(capsys, "aut", source)
    assert code == 0
    payload = json.loads(out)
    points = [v for orbit in payload["orbits"] for v in orbit]
    gens = [_parse_cycles(g, points) for g in payload["generators"]]
    group = {tuple(points)}
    frontier = list(group)
    while frontier:
        e = dict(zip(points, frontier.pop()))
        for g in gens:
            composed = tuple(g[e[v]] for v in points)
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    assert len(group) == payload["order"]
    orbits = {frozenset(e[i] for e in group) for i in range(len(points))}
    assert orbits == {frozenset(orbit) for orbit in payload["orbits"]}


def test_iso_exit_codes(capsys, tmp_path):
    a = tmp_path / "a.fac"
    b = tmp_path / "b.fac"
    a.write_text("1 2\n2 3\n3 1\n")
    b.write_text("x y\ny z\nz x\n")
    code, out, _ = run_cli(capsys, "iso", str(a), str(b))
    assert code == 0
    assert json.loads(out)["isomorphic"]
    c = tmp_path / "c.fac"
    c.write_text("1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "iso", str(a), str(c))
    assert code == 1


def test_sum_command(capsys, tmp_path):
    a = tmp_path / "a.fac"
    b = tmp_path / "b.fac"
    a.write_text("1 2 3\n1 2 4\n1 3 4\n2 3 4\n")
    b.write_text("5 6 7\n5 6 8\n5 7 8\n6 7 8\n")
    code, out, _ = run_cli(capsys, "sum", str(a), str(b))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["facets"]) == 6


@pytest.mark.parametrize("entry", ["1", "1=2=3"])
def test_sum_malformed_match_entry_is_a_usage_error(capsys, entry):
    with pytest.raises(SystemExit) as err:
        main(["sum", "--match", entry, "fixtures:lutz_s2_8", "fixtures:ziegler_s2_10"])
    assert err.value.code == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"usage error: --match entry {entry!r} is not one a=b pair\n"


def test_fixtures_list(capsys):
    code, out, _ = run_cli(capsys, "fixtures", "list")
    assert code == 0
    rows = json.loads(out)["fixtures"]
    assert [row["name"] for row in rows] == list(fixture_names()) and len(rows) == 17
    assert [row["name"] for row in rows if row["kind"] == "certificate"] == ["lutz_b2_shelling_cert"]
    assert {row["kind"] for row in rows} == {"complex", "certificate"}
    assert all(row["provenance"] for row in rows)


def test_fixtures_export_fac(capsys, tmp_path):
    out_path = tmp_path / "z.fac"
    code, _, _ = run_cli(capsys, "fixtures", "export", "ziegler_s2_10", str(out_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "info", str(out_path))
    assert json.loads(out)["facets"] == 16


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as err:
        main(["certify", "bogus-kind", "fixtures:lutz_b1"])
    assert err.value.code == 64


def test_one_process_answers_as_fresh_processes_do(capsys):
    # main builds its parser once per process: a success, a usage error and
    # a command that relies on defaults, each run twice in this process,
    # print what a fresh process prints and exit as it does
    cases = [
        ["info", "fixtures:lutz_s2_8"],
        ["flips", "--lo", "-1", "--hi", "1", "fixtures:lutz_s2_8"],
        ["certify", "stellated", "fixtures:ziegler_s2_10"],
    ]
    fresh = [
        subprocess.run([sys.executable, "-m", "sx.cli", *argv], capture_output=True, text=True)
        for argv in cases
    ]
    assert [p.returncode for p in fresh] == [0, 64, 0]
    for argv, want in zip(cases + cases, fresh + fresh):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        assert (code, capsys.readouterr().out) == (want.returncode, want.stdout), argv


def test_parse_error_exit_65(capsys, tmp_path):
    bad = tmp_path / "bad.fac"
    bad.write_text("# only comments\n")
    code, _, err = run_cli(capsys, "info", str(bad))
    assert code == 65
    assert "error" in err


def test_unknown_fixture_exit_65(capsys):
    code, _, _ = run_cli(capsys, "info", "fixtures:not_a_fixture")
    assert code == 65


def test_unwritable_output_exit_73_and_unreadable_source_exit_65(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "x.fac"
    code, out, err = run_cli(capsys, "fixtures", "export", "lutz_b1", str(target))
    assert (code, out) == (73, "")
    assert err.startswith("error: ") and "no_such_dir" in err
    assert not target.parent.exists()
    for argv in (
        ["info", str(tmp_path / "absent.fac")],
        ["fixtures", "export", "not_a_fixture", str(tmp_path / "x.fac")],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (65, "")
        assert err.startswith("error: ")


@pytest.mark.parametrize("label", ["[2]", "2.5", "true"])
def test_bad_json_label_exit_65(capsys, tmp_path, label):
    bad = tmp_path / "bad.json"
    bad.write_text('{"facets": [[1, %s], [1, 3]]}' % label)
    code, out, err = run_cli(capsys, "info", str(bad))
    assert code == 65
    assert out == ""
    assert err.startswith("error: vertex labels must be integers or strings")


@pytest.mark.parametrize("name", ["[3]", "5", '["a"]'])
def test_bad_json_name_exit_65(capsys, tmp_path, name):
    bad = tmp_path / "bad.json"
    bad.write_text('{"facets": [[1, 2], [2, 3]], "name": %s}' % name)
    for argv in (["info", str(bad)], ["bar", "-k", "1", str(bad)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 65
        assert out == ""
        assert err.startswith('error: "name" must be a string or null')


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"facets": ' + "[" * 3000 + "]" * 3000 + "}"],
    ids=["bare-array", "facets"],
)
def test_deeply_nested_json_exit_65(capsys, tmp_path, monkeypatch, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    code, out, err = run_cli(capsys, "info", str(deep))
    assert (code, out, err) == (65, "", "error: JSON input nests too deeply to decode\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "info", "--format", "json", "-")
    assert (code, out, err) == (65, "", "error: JSON input nests too deeply to decode\n")


@pytest.mark.parametrize(
    "text", ['{"facets": [[1, 2], [2, 3]], "name": null}', '{"facets": [[1, 2], [2, 3]]}']
)
def test_json_null_or_absent_name_loads(capsys, tmp_path, text):
    good = tmp_path / "good.json"
    good.write_text(text)
    code, out, _ = run_cli(capsys, "info", str(good))
    assert code == 0
    assert json.loads(out)["name"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "klee-novik", "1"],
        ["generate", "standard-ball", "1", "2"],
        ["fixtures", "export"],
        ["verify-paper", "--criteria", "99"],
        ["certify", "stellated", "-k", "2", "--exhaustive", "fixtures:lutz_s2_8"],
    ],
)
def test_usage_errors_print_a_message(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "shelled", "-k", "2", "--budget-nodes", "-5", "fixtures:lutz_b2"],
        ["certify", "stellated", "-k", "2", "--budget-moves", "-1", "fixtures:lutz_s2_8"],
    ],
)
def test_negative_budgets_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: ") and "must not be negative" in out.err


def test_determinism_of_randomized_command(capsys):
    args = ("certify", "collapsible", "--seed", "7", "fixtures:ziegler_b2")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 7


def test_verify_paper_single_criterion(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--criteria", "1", "--pretty")
    assert code == 0
    payload = json.loads(out)
    assert payload["criteria"][0]["passed"]
    assert "criterion 1" in err


def test_aut_guard_flag(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "aut", "--guard-vertices", "3", "fixtures:lutz_s2_8"
    )
    assert code == 69
    assert out == ""
    assert "guard" in err


def test_broken_precondition_exit_69(capsys):
    code, out, err = run_cli(capsys, "certify", "shelled", "-k", "9", "fixtures:lutz_b1")
    assert code == 69
    assert out == ""
    assert err == "error: need 0 <= k <= 3, got k=9\n"


def test_generate_standard_objects(capsys):
    code, out, _ = run_cli(capsys, "generate", "standard-sphere", "3")
    assert code == 0
    assert len(json.loads(out)["facets"]) == 5
    code, out, _ = run_cli(capsys, "generate", "standard-ball", "4", "--format", "fac")
    assert code == 0
    assert out.strip().splitlines()[-1] == "1 2 3 4 5"


@pytest.mark.parametrize("d", ["-1", "-5"])
def test_generate_cross_polytope_below_dimension_0_exits_69(capsys, d):
    code, out, err = run_cli(capsys, "generate", "cross-polytope", d)
    assert (code, out) == (69, "")
    assert err == "error: cross-polytope dimension must be >= 0\n"


@pytest.mark.parametrize("name, ears", [("lutz_b2", [[2, 4, 5, 7]]), ("ziegler_b2", [])])
def test_certify_ears_lists_the_known_ears(capsys, name, ears):
    code, out, _ = run_cli(capsys, "certify", "ears", f"fixtures:{name}")
    assert code == 0
    assert json.loads(out) == {"ears": ears, "count": len(ears)}


@pytest.mark.parametrize("budget", [[], ["--budget-nodes", "0"]])
def test_certify_ears_on_a_five_ball_ignores_the_node_budget(capsys, monkeypatch, budget):
    # grow_shelled_ball(5, 1, 3, Random(0)): three ears, each decided by the
    # restriction-face rule with no search to cut short
    ball = "1 2 3 4 5 6\n1 2 3 4 5 9\n1 2 4 5 6 7\n1 3 4 5 6 8\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(ball))
    code, out, _ = run_cli(capsys, "certify", "ears", *budget, "-")
    assert code == 0
    assert json.loads(out) == {
        "ears": [[1, 2, 3, 4, 5, 9], [1, 2, 4, 5, 6, 7], [1, 3, 4, 5, 6, 8]],
        "count": 3,
    }


def test_certify_ears_on_a_sphere_or_a_non_normal_input_exits_69(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "certify", "ears", "fixtures:lutz_s3_8")
    assert (code, out, err) == (69, "", "error: boundary is empty\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 2 3\n3 4 5\n"))
    code, out, err = run_cli(capsys, "certify", "ears", "-")
    assert (code, out, err) == (69, "", "error: not a normal pseudomanifold\n")


def test_certify_one_stacked_cli(capsys):
    code, out, _ = run_cli(capsys, "certify", "one-stacked", "fixtures:ziegler_b1")
    assert code == 0
    assert json.loads(out)["status"] == "PROVED"


def test_certify_one_stacked_refutes_the_piped_zero_sphere(capsys, monkeypatch):
    code, sphere, _ = run_cli(capsys, "generate", "standard-sphere", "0")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(sphere))
    code, out, _ = run_cli(capsys, "certify", "one-stacked", "-")
    assert code == 1
    assert json.loads(out)["witness"] == {
        "reason": "closed complex has no boundary", "nodes": 2, "edges": 1
    }


def test_fixtures_export_json_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "fixtures", "export", "lutz_s2_8", "-", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "lutz_s2_8"
    assert len(payload["facets"]) == 12


def test_verify_paper_multiple_criteria(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--criteria", "1,8")
    assert code == 0
    payload = json.loads(out)
    assert [c["criterion"] for c in payload["criteria"]] == ["1", "8"]
    assert all(c["passed"] for c in payload["criteria"])


@pytest.mark.parametrize(
    "argv",
    [
        ["flips", "--lo", "-1", "--hi", "2", "fixtures:lutz_s2_8"],
        ["flips", "--lo", "3", "--hi", "1", "fixtures:lutz_s2_8"],
        ["flips", "--lo", "0", "--hi", "-1", "fixtures:lutz_s2_8"],
        ["aut", "--guard-vertices", "-1", "fixtures:lutz_s2_8"],
        ["iso", "--guard-vertices", "-1", "fixtures:lutz_s2_8", "fixtures:lutz_s2_8"],
        ["certify", "tight", "--guard-vertices", "-1", "fixtures:lutz_s2_8"],
    ],
)
def test_meaningless_index_ranges_and_negative_guards_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: ")


def test_flips_above_the_dimension_exit_69(capsys):
    code, out, err = run_cli(capsys, "flips", "--lo", "0", "--hi", "9", "fixtures:lutz_s2_8")
    assert (code, out) == (69, "")
    assert err == "error: need 0 <= lo <= hi <= 2, got lo=0, hi=9\n"
    code, out, _ = run_cli(capsys, "flips", "--lo", "0", "--hi", "2", "fixtures:lutz_s2_8")
    payload = json.loads(out)
    assert code == 0
    assert (payload["lo"], payload["hi"]) == (0, 2)
    assert payload["count"] == len(payload["moves"]) > 0


@pytest.mark.parametrize(
    "command, unread",
    [
        (["info"], ["--budget-moves", "5"]),
        (["info"], ["--seed", "5"]),
        (["info"], ["--guard-vertices", "3"]),
        (["info"], ["--budget-nodes", "0"]),
        (["info"], ["-k", "9"]),
        (["classify"], ["--field", "2"]),
        (["homology"], ["-k", "1"]),
        (["homology"], ["--restarts", "3"]),
        (["flips", "--lo", "0", "--hi", "1"], ["--field", "2"]),
        (["flips", "--lo", "0", "--hi", "1"], ["--budget-moves", "5"]),
        (["stacked", "-k", "1"], ["--seed", "3"]),
        (["stacked", "-k", "1"], ["--restarts", "2"]),
        (["bar", "-k", "1"], ["--guard-vertices", "3"]),
        (["bar", "-k", "1"], ["--field", "2"]),
        (["aut"], ["-k", "1"]),
        (["aut"], ["--budget-nodes", "10"]),
        (["certify", "collapsible"], ["--restarts", "1"]),
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, command, unread):
    with pytest.raises(SystemExit) as err:
        main(command + unread + ["fixtures:lutz_s2_8"])
    assert err.value.code == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage error: ")


@pytest.mark.parametrize(
    "k, candidate, src",
    [
        ("1", "/nonexistent.fac", "fixtures:lutz_b2"),
        ("2", "/nonexistent.fac", "fixtures:dfm_b4_16"),
        ("1", "fixtures:lutz_b1", "fixtures:lutz_b2"),
    ],
)
def test_stacked_candidate_on_a_ball_is_a_usage_error(capsys, k, candidate, src):
    # a ball is decided by its own interior faces, so a candidate is never
    # read, and giving one is an error even when it cannot be loaded
    with pytest.raises(SystemExit) as err:
        main(["stacked", "-k", k, "--candidate", candidate, src])
    assert err.value.code == 64
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "usage error: --candidate is read only for a closed input\n"


def test_stacked_refutes_a_mixed_label_ball_with_a_witness(capsys):
    code, out, _ = run_cli(capsys, "stacked", "-k", "1", "fixtures:d6_18")
    assert code == 1
    assert out == (
        '{"status":"REFUTED","witness":{"interior_face":[1,"2p","6p","a","b"],"dimension":4},'
        '"notes":["modulo field screen over {Q, F2, F3}"],"seed":0}\n'
    )


def test_stacked_still_echoes_seed_zero(capsys):
    code, out, _ = run_cli(capsys, "stacked", "-k", "2", "fixtures:dfm_b4_16")
    assert code == 0
    assert json.loads(out)["seed"] == 0
