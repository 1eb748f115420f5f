"""End-to-end command-line behavior, driven through main(argv)."""

import hashlib
import io
import os
import random
import shutil
import subprocess
import sys

import pytest

import bnpg
from bnpg import cli
from bnpg.cli import main
from bnpg.game import Game, Graph
from bnpg.instance_io import (
    FAMILIES,
    GameSpec,
    gen_random_game,
    parse_instance,
    serialize_instance,
)
from bnpg.oracle import max_usw

from helpers import best_shot_game, cycle_graph, path_graph, serialize_graph


ONE_PLAYER = "bnpg 1\nn 1\nc 0 1\ng 0 0 0\ng 0 1 2\n"
# matching pennies on an edge: no pure equilibrium
NO_PSNE = (
    "bnpg 1\nn 2\ne 0 1\n"
    "c 0 1\nc 1 1\n"
    "g 0 0 0\ng 0 1 2\ng 0 2 0\n"
    "g 1 0 0\ng 1 1 0\ng 1 2 3\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def machine_dict(out):
    pairs = dict(line.split("=", 1) for line in out.strip().splitlines())
    return pairs


def test_psne_human_output(tmp_path, capsys):
    inst = write(tmp_path, "one.bnpg", ONE_PLAYER)
    code, out, _ = run(capsys, "psne", inst)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "PSNE: yes"
    assert "profile: 0" in lines
    assert any(line.startswith("algorithm:") for line in lines)


def test_psne_machine_output(tmp_path, capsys):
    inst = write(tmp_path, "one.bnpg", ONE_PLAYER)
    code, out, _ = run(capsys, "psne", inst, "--machine")
    assert code == 0
    pairs = machine_dict(out)
    assert pairs["status"] == "solved"
    assert pairs["psne"] == "yes"
    assert pairs["profile"] == "0"
    assert pairs["algorithm"] == "ccforest"
    assert "table_entries" in pairs and "elapsed_s" in pairs


def test_no_psne_exit_code(tmp_path, capsys):
    inst = write(tmp_path, "mp.bnpg", NO_PSNE)
    code, out, _ = run(capsys, "psne", inst)
    assert code == 2
    assert out.splitlines()[0] == "PSNE: no"
    code, out, _ = run(capsys, "psne", inst, "--machine")
    pairs = machine_dict(out)
    assert code == 2 and pairs["status"] == "no_psne" and pairs["psne"] == "no"
    assert "profile" not in pairs


def test_usw_and_esw_values(tmp_path, capsys):
    game = best_shot_game(path_graph(3))
    inst = write(tmp_path, "p3.bnpg", serialize_instance(game))
    code, out, _ = run(capsys, "usw", inst)
    assert code == 0
    assert out.splitlines()[0] == "usw = 5/2"
    code, out, _ = run(capsys, "esw", inst)
    assert code == 0
    assert out.splitlines()[0] == "esw = 1/2"


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(ONE_PLAYER))
    code, out, _ = run(capsys, "usw", "-")
    assert code == 0
    assert out.splitlines()[0] == "usw = 1"


def test_ccforest_refuses_cyclic_clique_graph(tmp_path, capsys):
    game = best_shot_game(cycle_graph(4))
    inst = write(tmp_path, "c4.bnpg", serialize_instance(game))
    code, out, _ = run(capsys, "psne", inst, "--algo", "ccforest")
    assert code == 3
    assert "not applicable:" in out
    # auto falls through to another solver and succeeds
    code, out, _ = run(capsys, "psne", inst)
    assert code == 0


def test_auto_matches_brute(tmp_path, capsys):
    rng = random.Random(1)
    for seed in range(6):
        spec = GameSpec("gnp", n=7, seed=seed, p=0.5, g_mode="arbitrary")
        game = gen_random_game(spec)
        inst = write(tmp_path, f"g{seed}.bnpg", serialize_instance(game))
        _, auto_out, _ = run(capsys, "usw", inst, "--machine")
        _, brute_out, _ = run(capsys, "usw", inst, "--machine", "--algo", "brute")
        assert machine_dict(auto_out)["value"] == machine_dict(brute_out)["value"]


def test_width_cap_falls_back_to_brute(tmp_path, capsys):
    game = best_shot_game(cycle_graph(6))
    inst = write(tmp_path, "c6.bnpg", serialize_instance(game))
    code, out, _ = run(capsys, "usw", inst, "--machine", "--width-cap", "0")
    assert code == 0
    assert machine_dict(out)["algorithm"] == "brute"
    # and if brute is also ruled out, the failure explains itself
    code, out, _ = run(
        capsys, "usw", inst, "--machine", "--width-cap", "0", "--oracle-limit", "3"
    )
    assert code == 3
    pairs = machine_dict(out)
    assert pairs["status"] == "not_applicable"
    assert "no solver applies" in pairs["detail"]


def test_verify_reports_payoffs(tmp_path, capsys):
    game = best_shot_game(path_graph(3))
    inst = write(tmp_path, "p3.bnpg", serialize_instance(game))
    code, out, _ = run(capsys, "verify", inst, "--profile", "1")
    assert code == 0
    lines = out.splitlines()
    assert "player 0: payoff 1, deviation gain -1/2" in lines
    assert "player 1: payoff 1/2, deviation gain -1/2" in lines
    assert "psne: true" in lines
    assert "usw = 5/2" in lines and "esw = 1/2" in lines
    # a non-equilibrium profile
    code, out, _ = run(capsys, "verify", inst, "--profile", "0 1", "--machine")
    assert code == 0
    assert machine_dict(out)["psne"] == "false"


def test_verify_rejects_out_of_range_profile(tmp_path, capsys):
    inst = write(tmp_path, "one.bnpg", ONE_PLAYER)
    code, _, err = run(capsys, "verify", inst, "--profile", "5")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("profile", ["\u0660", "0 1_0", "\uff10"])
def test_verify_profile_takes_ascii_digits_only(tmp_path, capsys, profile):
    inst = write(tmp_path, "p3.bnpg", serialize_instance(best_shot_game(path_graph(3))))
    code, out, err = run(capsys, "verify", inst, "--profile", profile)
    assert (code, out) == (1, "")
    assert err == f"error: profile must list integers, got {profile!r}\n"


def test_reduce_3ris_round_trips(tmp_path, capsys):
    gfile = write(tmp_path, "pet.graph", serialize_graph(path_graph(4)))
    code, out, _ = run(capsys, "reduce", "3ris", gfile)
    assert code == 0
    assert "# witness vertex 0 -> player 0" in out
    game = parse_instance(out)
    assert game.player_count == 4


def test_reduce_clique_emits_threshold(tmp_path, capsys):
    text = serialize_graph(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    gfile = write(tmp_path, "k3.graph", text)
    code, out, _ = run(capsys, "reduce", "clique", gfile, "--kappa", "3")
    assert code == 0
    assert "# threshold 3" in out
    assert "# witness edge 0-1 -> player 3" in out
    assert "# witness special -> player 6" in out
    game = parse_instance(out)
    _, best = max_usw(game)
    assert best >= 3


def test_reduce_rbds_uses_red_marks(tmp_path, capsys):
    text = "n 3\ne 0 1\ne 0 2\nred 1 2\n"
    gfile = write(tmp_path, "star.graph", text)
    code, out, _ = run(capsys, "reduce", "rbds", gfile, "--kappa", "1")
    assert code == 0
    game = parse_instance(out)
    assert game.player_count == 4  # three vertices plus the watchdog
    code, _, err = run(capsys, "reduce", "rbds", gfile, "--kappa", "0")
    assert code == 1 and ">= 1" in err


def test_reduce_clique_requires_kappa(tmp_path, capsys):
    gfile = write(tmp_path, "k3.graph", serialize_graph(cycle_graph(3)))
    code, _, err = run(capsys, "reduce", "clique", gfile)
    assert code == 1
    assert "--kappa" in err


def test_gen_is_deterministic_and_parses(capsys):
    argv = ("gen", "--family", "tree", "--n", "9", "--seed", "4")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    game = parse_instance(first)
    assert game.player_count == 9


def test_gen_twin_tree_multiplicities(capsys):
    code, out, _ = run(
        capsys,
        "gen", "--family", "twin_tree", "--multiplicities", "2,3,2", "--seed", "1",
    )
    assert code == 0
    assert parse_instance(out).player_count == 7


# sha256 of `bnpg gen --family F --n 12 --seed 1` (twin_tree: block sizes
# 2,3,1,2 and --n 8, their sum), then of two other value modes: the
# serializer must print the generated values byte for byte, whatever view of
# them the Game keeps.
GEN_SHA256 = {
    "path": "810831044bbdcaf58abec9e94050f64deb0c84118a82f691895b09dbcdb1a22a",
    "cycle": "e3226321cc135941ae587be83d5575d0a70de1c3b151066253cad88ac8746309",
    "clique": "4e5053355a94e7bacaa31b5eee6c057ec655b30aa0d6aad530d7458ecb36d563",
    "tree": "e75713c82498e380e41a606b96d25f32dcdc07c4afde20af6a8fbef1eb829f4b",
    "caterpillar": "36151bb4ac1b30261d4cd45eb4da7937dadf55ff4e53c64cb34dc4ec09a3190b",
    "twin_tree": "033cbd15960212295603397969e4b1be2fb190add578b9622eb8c043ad977f6f",
    "gnp": "b6d02f9d111cfce3aa5f45ad78aa12e38d4265b20e71e84d6583d1ff9932e561",
    "bounded_tw": "fd5f42696a5f746b31b4dac27c36450e2cbf3f4de302326bbd90b9fd6d4e56ee",
}
GEN_MODE_SHA256 = [
    (
        ("--family", "gnp", "--g-mode", "arbitrary", "--cost-mode", "unit"),
        "1615b74c99be23082fae95f6ffe602c021248c2f07634ca7c823334e328fec8f",
    ),
    (
        ("--family", "tree", "--g-mode", "homogeneous", "--cost-mode", "zero"),
        "0bbc415ce161a212f3160705f2896995a69053681e70d595b6657410eb3bc6ad",
    ),
]


@pytest.mark.parametrize(
    "flags, digest",
    [
        (("--family", family)
         + (("--multiplicities", "2,3,1,2", "--n", "8") if family == "twin_tree" else ()),
         GEN_SHA256[family])
        for family in FAMILIES
    ]
    + GEN_MODE_SHA256,
)
def test_gen_output_is_pinned(capsys, flags, digest):
    code, out, _ = run(capsys, "gen", "--n", "12", "--seed", "1", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flags, fragment",
    [(("--family", "gnp", "--p", "1.5"), "p must be in [0, 1]"),
     (("--family", "gnp", "--p", "-0.5"), "p must be in [0, 1]"),
     (("--family", "bounded_tw", "--width", "0"), "width must be >= 1")],
)
def test_gen_rejects_out_of_range_parameters(capsys, flags, fragment):
    code, out, err = run(capsys, "gen", "--n", "5", *flags)
    assert code == 1
    assert out == ""
    assert fragment in err


def test_gen_requires_n_except_for_twin_tree(capsys):
    code, out, err = run(capsys, "gen", "--family", "tree", "--seed", "1")
    assert (code, out, err) == (1, "", "error: --n is required for family tree\n")
    # twin_tree takes its size from --multiplicities
    code, out, err = run(
        capsys, "gen", "--family", "twin_tree", "--multiplicities", "1,2", "--seed", "1"
    )
    assert code == 0 and err == ""
    assert parse_instance(out).player_count == 3


@pytest.mark.parametrize("blocks", ["1_0,2", "\u0662,1"])
def test_gen_multiplicities_take_ascii_digits_only(capsys, blocks):
    code, out, err = run(
        capsys, "gen", "--family", "twin_tree", "--multiplicities", blocks, "--seed", "1"
    )
    assert (code, out) == (1, "")
    assert err == f"error: --multiplicities must list integers, got {blocks!r}\n"


def test_gen_rejects_a_twin_tree_n_that_disagrees_with_the_blocks(capsys):
    args = ("gen", "--family", "twin_tree", "--multiplicities", "1,2", "--seed", "1")
    code, out, err = run(capsys, *args, "--n", "5")
    assert (code, out) == (1, "")
    assert err == "error: twin_tree n must be 0 or the sum of the block sizes (3), got 5\n"
    code, out, err = run(capsys, *args, "--n", "3")
    assert code == 0 and err == ""
    assert parse_instance(out).player_count == 3


def test_ccgraph_reports_forest_verdict(tmp_path, capsys):
    inst = write(tmp_path, "p3.bnpg", serialize_instance(best_shot_game(path_graph(3))))
    code, out, _ = run(capsys, "ccgraph", inst)
    assert code == 0
    assert "cliques: 3" in out and "forest: yes" in out
    inst = write(tmp_path, "c4.bnpg", serialize_instance(best_shot_game(cycle_graph(4))))
    code, out, _ = run(capsys, "ccgraph", inst, "--machine")
    pairs = machine_dict(out)
    assert pairs["forest"] == "no" and pairs["cliques"] == "4"


@pytest.mark.parametrize("heuristic", ["min_fill", "min_degree"])
def test_decompose_and_td_flow(tmp_path, capsys, heuristic):
    game = best_shot_game(cycle_graph(5))
    inst = write(tmp_path, "c5.bnpg", serialize_instance(game))
    code, td_text, _ = run(capsys, "decompose", inst, "--heuristic", heuristic)
    assert code == 0
    assert td_text.startswith("s td ")
    td_file = write(tmp_path, "c5.td", td_text)
    code, out, _ = run(capsys, "usw", inst, "--td", td_file, "--machine")
    assert code == 0
    pairs = machine_dict(out)
    assert pairs["algorithm"] == "treewidth"
    _, best = max_usw(game)
    assert pairs["value"] == str(best)


def test_td_player_count_mismatch(tmp_path, capsys):
    inst = write(tmp_path, "one.bnpg", ONE_PLAYER)
    td_file = write(tmp_path, "bad.td", "s td 1 2 2\nb 1 1 2\n")
    code, _, err = run(capsys, "usw", inst, "--td", td_file)
    assert code == 1
    assert "error:" in err


def test_td_conflicts_with_brute(tmp_path, capsys):
    inst = write(tmp_path, "one.bnpg", ONE_PLAYER)
    td_file = write(tmp_path, "one.td", "s td 1 1 1\nb 1 1\n")
    code, _, err = run(capsys, "usw", inst, "--td", td_file, "--algo", "brute")
    assert code == 1
    assert "--td" in err


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "psne", "/nonexistent/thing.bnpg")
    assert code == 1
    assert "error:" in err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["psne"])  # missing instance argument
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x"])
    assert exc.value.code == 1


def _outputs(capsys, calls):
    """(exit code, stdout without elapsed_s, stderr) of each main() call."""
    results = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = "".join(
            line for line in captured.out.splitlines(True) if not line.startswith("elapsed_s=")
        )
        results.append((code, out, captured.err))
    return results


def test_main_calls_in_a_row_share_one_parser(tmp_path, capsys, monkeypatch):
    inst = write(tmp_path, "one.bnpg", ONE_PLAYER)
    calls = [
        ("psne", inst, "--machine"),
        ("psne",),  # usage error: no instance
        ("gen", "--family", "tree", "--n", "12", "--seed", "1"),
        ("verify", inst, "--profile", "0", "--machine"),
        ("psne", inst, "--machine"),
    ]
    assert cli.build_parser() is cli.build_parser()
    cached = _outputs(capsys, calls)
    psne = (0, "status=solved\npsne=yes\nprofile=0\nalgorithm=ccforest\ntable_entries=1\n", "")
    assert cached[0] == cached[4] == psne
    code, out, err = cached[1]
    assert (code, out) == (1, "") and err.startswith("usage: bnpg psne ")
    assert err.endswith("bnpg psne: error: the following arguments are required: instance\n")
    assert hashlib.sha256(cached[2][1].encode()).hexdigest() == GEN_SHA256["tree"]
    assert cached[3] == (0, "payoff_0=1\ngain_0=-1\npsne=true\nusw=1\nesw=1\n", "")
    # byte for byte what a parser built for each call prints
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert _outputs(capsys, calls) == cached


def test_importing_the_cli_leaves_out_the_reductions():
    src = os.path.dirname(os.path.dirname(bnpg.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bnpg.cli; print('bnpg.reductions' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_importing_the_cli_loads_every_solver_but_not_dataclasses():
    """A one-shot `bnpg` start pays for its import, and `dataclasses` (with
    `inspect`) was about half of it.  The solver modules still load, so the
    import is cheaper because its classes are, not because work moved."""
    src = os.path.dirname(os.path.dirname(bnpg.__file__))
    names = ["dataclasses", "inspect"] + [
        f"bnpg.{m}" for m in ("ccforest", "treewidth", "decomposition", "oracle", "instance_io")
    ]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, bnpg.cli; print([n in sys.modules for n in {names!r}])"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == str([False, False] + [True] * 5) + "\n"


@pytest.mark.skipif(
    shutil.which("bnpg") is None,
    reason="the bnpg console script is not on PATH; install it with pip install -e .",
)
def test_console_script_works(tmp_path):
    inst = tmp_path / "one.bnpg"
    inst.write_text(ONE_PLAYER)
    proc = subprocess.run(
        ["bnpg", "psne", str(inst), "--machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "psne=yes" in proc.stdout


def test_answers_do_not_depend_on_the_hash_seed(tmp_path):
    """The treewidth DP reads its tables in insertion order; two processes
    with different string-hash seeds must print the same answers."""
    game = gen_random_game(GameSpec("bounded_tw", n=14, width=2, seed=3, g_mode="arbitrary"))
    inst = write(tmp_path, "tw.bnpg", serialize_instance(game))
    src = os.path.dirname(os.path.dirname(bnpg.__file__))
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        answers = []
        for question in ("psne", "usw", "esw"):
            proc = subprocess.run(
                [sys.executable, "-m", "bnpg.cli", question, inst, "--machine", "--algo", "treewidth"],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert proc.returncode in (0, 2), proc.stderr
            fields = machine_dict(proc.stdout)
            fields.pop("elapsed_s")
            answers.append(fields)
        outputs.append(answers)
    assert outputs[0] == outputs[1]
