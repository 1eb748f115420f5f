"""Command-line frontend for solving, verifying, generating, and reducing.

Subcommands: psne | usw | esw | verify | reduce | gen | ccgraph | decompose.
Exit codes: 0 = solved, 1 = input error, 2 = equilibrium proven absent
(psne only), 3 = solver not applicable or resource limits exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .critical_clique import build_cc_graph, is_forest
from .decomposition import (
    HEURISTICS,
    TreeDecomposition,
    heuristic_decomposition,
    read_pace,
    write_pace,
)
from .game import (
    Game,
    Profile,
    deviation_gain,
    esw,
    is_psne,
    payoff,
    read_int,
    usw,
)
from .instance_io import (
    COST_MODES,
    FAMILIES,
    G_MODES,
    GameSpec,
    format_rational,
    gen_random_game,
    parse_graph,
    parse_instance,
    serialize_instance,
)
from .oracle import LimitExceeded, OracleLimits
from .report import SolveReport, SolveStatus
from .solver import ALGORITHMS, solve

EXIT_SOLVED = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_PSNE = 2
EXIT_NOT_APPLICABLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this suite reserves 2 for
    "no equilibrium", so usage errors leave with the input-error code."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _profile_text(profile: Profile) -> str:
    if len(profile) == 0:
        return "-"
    return " ".join(str(v) for v in profile)


def _emit(pairs: list[tuple[str, str]], machine: bool) -> None:
    for key, value in pairs:
        if machine:
            print(f"{key.replace(' ', '_')}={value}")
        else:
            print(f"{key}: {value}")


def _parse_profile_arg(text: str, game: Game) -> Profile:
    tokens = text.replace(",", " ").split()
    if tokens == ["-"] or not tokens:
        investing: frozenset[int] = frozenset()
    else:
        try:
            investing = frozenset(read_int(t) for t in tokens)
        except ValueError:
            raise ValueError(f"profile must list integers, got {text!r}") from None
    profile = Profile(investing)
    profile.validate_for(game)
    return profile


def _load_td(args, game: Game) -> TreeDecomposition | None:
    if args.td is None:
        return None
    td, declared = read_pace(_read_text(args.td))
    if declared != game.graph.player_count:
        raise ValueError(
            f"decomposition file declares {declared} vertices but the "
            f"instance has {game.graph.player_count} players"
        )
    return td


def _solve_command(args) -> int:
    game = parse_instance(_read_text(args.instance))
    td = _load_td(args, game)
    limits = OracleLimits(max_players=args.oracle_limit)
    report = solve(game, args.command, args.algo, td, limits, args.width_cap)
    return _print_solve(args.command, report, args.machine)


def _print_solve(kind: str, report: SolveReport, machine: bool) -> int:
    pairs: list[tuple[str, str]] = []
    if machine:
        pairs.append(("status", report.status.name.lower()))
    if report.status == SolveStatus.NOT_APPLICABLE:
        pairs.append(("not applicable" if not machine else "detail", report.detail))
        pairs.append(("algorithm", report.algorithm))
        _emit(pairs, machine)
        return EXIT_NOT_APPLICABLE
    if kind == "psne":
        yes = report.status == SolveStatus.SOLVED
        pairs.append(("PSNE" if not machine else "psne", "yes" if yes else "no"))
    elif report.status == SolveStatus.SOLVED and not machine:
        print(f"{kind} = {format_rational(report.value)}")
    if machine and report.value is not None:
        pairs.append(("value", format_rational(report.value)))
    if report.profile is not None:
        pairs.append(("profile", _profile_text(report.profile)))
    pairs.append(("algorithm", report.algorithm))
    pairs.append(
        ("elapsed_s", f"{report.elapsed:.6f}")
        if machine
        else ("elapsed", f"{report.elapsed:.3f}s")
    )
    pairs.append(("table entries", str(report.table_entries)))
    if report.detail:
        pairs.append(("detail", report.detail))
    _emit(pairs, machine)
    if kind == "psne" and report.status == SolveStatus.NO_PSNE:
        return EXIT_NO_PSNE
    return EXIT_SOLVED


def _verify_command(args) -> int:
    game = parse_instance(_read_text(args.instance))
    profile = _parse_profile_arg(args.profile, game)
    machine = args.machine
    pairs: list[tuple[str, str]] = []
    for v in range(game.graph.player_count):
        pay = format_rational(payoff(game, profile, v))
        gain = format_rational(deviation_gain(game, profile, v))
        if machine:
            pairs.append((f"payoff_{v}", pay))
            pairs.append((f"gain_{v}", gain))
        else:
            print(f"player {v}: payoff {pay}, deviation gain {gain}")
    verdict = "true" if is_psne(game, profile) else "false"
    welfare = [("usw", format_rational(usw(game, profile)))]
    if game.graph.player_count:
        welfare.append(("esw", format_rational(esw(game, profile))))
    if machine:
        _emit(pairs + [("psne", verdict)] + welfare, machine)
    else:
        print(f"psne: {verdict}")
        for key, value in welfare:
            print(f"{key} = {value}")
    return EXIT_SOLVED


def _witness_lines(output) -> list[str]:
    lines = []
    if output.threshold is not None:
        lines.append(f"# threshold {format_rational(output.threshold)}")
    vertex_keys = sorted(k for k in output.witness_map if k[0] == "vertex")
    edge_keys = sorted(k for k in output.witness_map if k[0] == "edge")
    special_keys = [k for k in output.witness_map if k[0] == "special"]
    for key in vertex_keys:
        lines.append(f"# witness vertex {key[1]} -> player {output.witness_map[key]}")
    for key in edge_keys:
        u, v = key[1]
        lines.append(f"# witness edge {u}-{v} -> player {output.witness_map[key]}")
    for key in special_keys:
        lines.append(f"# witness special -> player {output.witness_map[key]}")
    return lines


def _reduce_command(args) -> int:
    # imported here: only this command uses it, and every start would pay it
    from .reductions import reduce_3ris, reduce_clique_to_uswc, reduce_rbds_to_eswc

    graph, red = parse_graph(_read_text(args.graph))
    if args.kind == "3ris":
        output = reduce_3ris(graph)
    elif args.kind == "clique":
        if args.kappa is None:
            raise ValueError("reduce clique needs --kappa")
        output = reduce_clique_to_uswc(graph, args.kappa)
    else:
        if args.kappa is None:
            raise ValueError("reduce rbds needs --kappa")
        blue = frozenset(range(graph.player_count)) - red
        output = reduce_rbds_to_eswc(graph, blue, red, args.kappa)
    for line in _witness_lines(output):
        print(line)
    sys.stdout.write(serialize_instance(output.game))
    return EXIT_SOLVED


def _gen_command(args) -> int:
    if args.n is None and args.family != "twin_tree":
        raise ValueError(f"--n is required for family {args.family}")
    multiplicities = None
    if args.multiplicities:
        try:
            multiplicities = tuple(
                read_int(t) for t in args.multiplicities.replace(",", " ").split()
            )
        except ValueError:
            raise ValueError(
                f"--multiplicities must list integers, got {args.multiplicities!r}"
            ) from None
    spec = GameSpec(
        family=args.family,
        n=args.n or 0,
        seed=args.seed,
        p=args.p,
        width=args.width,
        multiplicities=multiplicities,
        g_mode=args.g_mode,
        cost_mode=args.cost_mode,
    )
    sys.stdout.write(serialize_instance(gen_random_game(spec)))
    return EXIT_SOLVED


def _ccgraph_command(args) -> int:
    game = parse_instance(_read_text(args.instance))
    cc = build_cc_graph(game.graph)
    machine = args.machine
    pairs: list[tuple[str, str]] = [("cliques", str(len(cc.cliques)))]
    for i, members in enumerate(cc.cliques):
        pairs.append((f"clique_{i}" if machine else f"clique {i}",
                      " ".join(str(v) for v in members)))
    edges = sorted(cc.edges)
    if machine:
        pairs.append(("edge_count", str(len(edges))))
        for i, (a, b) in enumerate(edges):
            pairs.append((f"edge_{i}", f"{a} {b}"))
    else:
        for a, b in edges:
            pairs.append(("edge", f"{a} {b}"))
    pairs.append(("forest", "yes" if is_forest(cc) else "no"))
    _emit(pairs, machine)
    return EXIT_SOLVED


def _decompose_command(args) -> int:
    game = parse_instance(_read_text(args.instance))
    td = heuristic_decomposition(game.graph, args.heuristic)
    sys.stdout.write(write_pace(td, game.graph.player_count))
    return EXIT_SOLVED


def _add_solver_flags(sub) -> None:
    sub.add_argument("instance", help="instance file, or - for standard input")
    sub.add_argument("--algo", choices=ALGORITHMS, default="auto")
    sub.add_argument("--td", metavar="FILE", help="tree decomposition (.td) to use")
    sub.add_argument("--machine", action="store_true", help="key=value output")
    sub.add_argument(
        "--oracle-limit",
        type=int,
        default=20,
        metavar="N",
        help="player cap for brute-force solving (default 20)",
    )
    sub.add_argument(
        "--width-cap",
        type=int,
        default=8,
        metavar="W",
        help="auto mode falls back to brute force beyond this width (default 8)",
    )


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: `parse_args` leaves it
    as it was, and building it costs more than most small calls."""
    parser = _Parser(
        prog="bnpg",
        description="Exact solvers for binary networked public goods games.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for kind, blurb in (
        ("psne", "find a pure Nash equilibrium or prove none exists"),
        ("usw", "maximize the sum of payoffs"),
        ("esw", "maximize the minimum payoff"),
    ):
        sub = commands.add_parser(kind, help=blurb)
        _add_solver_flags(sub)

    verify = commands.add_parser("verify", help="evaluate a given profile")
    verify.add_argument("instance", help="instance file, or - for standard input")
    verify.add_argument(
        "--profile",
        required=True,
        metavar="PLAYERS",
        help='investing players, e.g. "0 2" (use - for the empty profile)',
    )
    verify.add_argument("--machine", action="store_true")

    reduce_cmd = commands.add_parser(
        "reduce", help="build a game instance from a source problem"
    )
    reduce_cmd.add_argument("kind", choices=("3ris", "clique", "rbds"))
    reduce_cmd.add_argument(
        "graph", help='graph file ("n"/"e"/"red" lines), or - for standard input'
    )
    reduce_cmd.add_argument("--kappa", type=int, default=None)

    gen = commands.add_parser("gen", help="generate a seeded random instance")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument(
        "--n", type=int, default=None, help="player count (twin_tree: from --multiplicities)"
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--p", type=float, default=0.3, help="gnp edge probability")
    gen.add_argument("--width", type=int, default=2, help="bounded_tw target width")
    gen.add_argument(
        "--multiplicities",
        default=None,
        metavar="SIZES",
        help='twin_tree block sizes, e.g. "2,3,1"',
    )
    gen.add_argument("--g-mode", choices=G_MODES, default="monotone")
    gen.add_argument("--cost-mode", choices=COST_MODES, default="random")

    ccgraph = commands.add_parser(
        "ccgraph", help="print the critical clique structure of an instance"
    )
    ccgraph.add_argument("instance", help="instance file, or - for standard input")
    ccgraph.add_argument("--machine", action="store_true")

    decompose = commands.add_parser(
        "decompose", help="emit a heuristic tree decomposition (.td)"
    )
    decompose.add_argument("instance", help="instance file, or - for standard input")
    decompose.add_argument("--heuristic", choices=HEURISTICS, default="min_fill")

    return parser


_COMMANDS = {
    "psne": _solve_command,
    "usw": _solve_command,
    "esw": _solve_command,
    "verify": _verify_command,
    "reduce": _reduce_command,
    "gen": _gen_command,
    "ccgraph": _ccgraph_command,
    "decompose": _decompose_command,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except (ValueError, IndexError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
