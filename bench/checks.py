"""Answer checks that do not go through bnpg's solvers.

`Scaled` re-scores profiles on the game's own tables, multiplied by the lcm
of every denominator so that all arithmetic is on ints.  The references are
an exhaustive enumeration (small-dense), a transfer-matrix DP around a
cycle (the sparse-tw cycle), the other DP family (forest), and the
properties every optimum has (the bounded_tw games).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from bnpg.treewidth import solve_esw_treewidth, solve_psne_treewidth, solve_usw_treewidth


class Scaled:
    """A game with every payoff multiplied by the lcm of its denominators."""

    def __init__(self, game):
        values = [x for row in game.externality for x in row] + list(game.cost)
        self.scale = math.lcm(*(x.denominator for x in values)) if values else 1
        self.g = [[int(x * self.scale) for x in row] for row in game.externality]
        self.c = [int(x * self.scale) for x in game.cost]
        self.n = game.player_count
        self.nbrs = [sorted(game.graph.neighbors(v)) for v in range(self.n)]

    def to_int(self, value: Fraction) -> int:
        scaled = value * self.scale
        if scaled.denominator != 1:
            raise ValueError(f"value {value} is no payoff of this game")
        return int(scaled)

    def counts(self, invest: set[int]) -> list[int]:
        return [
            (v in invest) + sum(1 for w in self.nbrs[v] if w in invest)
            for v in range(self.n)
        ]

    def payoffs(self, invest: set[int]) -> list[int]:
        return [
            self.g[v][k] - (self.c[v] if v in invest else 0)
            for v, k in enumerate(self.counts(invest))
        ]

    def gains(self, invest: set[int]) -> list[int]:
        """What each player gains by flipping its own action alone."""
        out = []
        for v, k in enumerate(self.counts(invest)):
            g, c = self.g[v], self.c[v]
            out.append(g[k - 1] - (g[k] - c) if v in invest else (g[k + 1] - c) - g[k])
        return out

    def is_psne(self, invest: set[int]) -> bool:
        return all(gain <= 0 for gain in self.gains(invest))

    def usw(self, invest: set[int]) -> int:
        return sum(self.payoffs(invest))

    def esw(self, invest: set[int]) -> int:
        return min(self.payoffs(invest))

    # -- exhaustive enumeration (small games) ------------------------------

    def _tables(self):
        closed = [sum(1 << w for w in self.nbrs[v]) | (1 << v) for v in range(self.n)]
        rows = []
        for v in range(self.n):
            g, c = self.g[v], self.c[v]
            top = len(g) - 1
            rows.append(
                (
                    closed[v],
                    [g[k] - c for k in range(top + 1)],
                    g,
                    [k >= 1 and g[k] - c >= g[k - 1] for k in range(top + 1)],
                    [k == top or g[k] >= g[k + 1] - c for k in range(top + 1)],
                )
            )
        return rows

    def has_psne(self) -> bool:
        rows = self._tables()
        for mask in range(1 << self.n):
            for v, (closed, _, _, ok_in, ok_out) in enumerate(rows):
                k = (mask & closed).bit_count()
                if not (ok_in[k] if (mask >> v) & 1 else ok_out[k]):
                    break
            else:
                return True
        return False

    def enumerate_optima(self) -> dict:
        """PSNE existence, max USW and max ESW over all 2^n profiles."""
        rows = self._tables()
        psne, best_usw, best_esw = False, None, None
        for mask in range(1 << self.n):
            total, low, stable = 0, None, True
            for v, (closed, pay_in, pay_out, ok_in, ok_out) in enumerate(rows):
                k = (mask & closed).bit_count()
                if (mask >> v) & 1:
                    p = pay_in[k]
                    stable = stable and ok_in[k]
                else:
                    p = pay_out[k]
                    stable = stable and ok_out[k]
                total += p
                low = p if low is None or p < low else low
            psne = psne or stable
            best_usw = total if best_usw is None or total > best_usw else best_usw
            best_esw = low if best_esw is None or low > best_esw else best_esw
        return {"psne": psne, "usw": best_usw, "esw": best_esw}

    # -- transfer matrix around a cycle ------------------------------------

    def cycle_optima(self) -> dict:
        """Exact answers when player i's neighbours are i-1 and i+1 mod n."""
        n = self.n
        if n < 4 or any(self.nbrs[i] != sorted({(i - 1) % n, (i + 1) % n}) for i in range(n)):
            raise ValueError("not a cycle in label order")

        def pay(i, left, me, right):
            return self.g[i][left + me + right] - (self.c[i] if me else 0)

        def stable(i, left, me, right):
            k = left + me + right
            g, c = self.g[i], self.c[i]
            return int(g[k] - c >= g[k - 1] if me else g[k] >= g[k + 1] - c)

        def best(local, combine):
            top = None
            for a0 in (0, 1):
                for a1 in (0, 1):
                    states = {(a0, a1): None}  # (a[i-1], a[i]) -> best so far
                    for i in range(1, n - 1):
                        nxt = {}
                        for (left, me), acc in states.items():
                            for right in (0, 1):
                                val = local(i, left, me, right)
                                val = val if acc is None else combine(acc, val)
                                key = (me, right)
                                if key not in nxt or val > nxt[key]:
                                    nxt[key] = val
                        states = nxt
                    for (left, last), acc in states.items():
                        val = combine(acc, local(n - 1, left, last, a0))
                        val = combine(val, local(0, last, a0, a1))
                        top = val if top is None or val > top else top
            return top

        return {
            "psne": best(stable, min) == 1,
            "usw": best(pay, lambda a, b: a + b),
            "esw": best(pay, min),
        }

    # -- properties of an optimum ------------------------------------------

    def random_profiles(self, rng: random.Random, count: int) -> list[set[int]]:
        out = [set(), set(range(self.n))]
        for _ in range(count):
            out.append({v for v in range(self.n) if rng.random() < 0.5})
        return out

    def best_response_finds_psne(self, rng: random.Random, starts: int) -> bool:
        """Best-response dynamics from seeded starts; True if one settles."""
        for _ in range(starts):
            invest = {v for v in range(self.n) if rng.random() < 0.5}
            for _ in range(20 * self.n):
                movers = [v for v, gain in enumerate(self.gains(invest)) if gain > 0]
                if not movers:
                    return True
                invest ^= {rng.choice(movers)}
        return False


def forest_reference(game, scaled: Scaled) -> dict:
    """Answers of the treewidth family, to compare with ccforest's."""
    psne = solve_psne_treewidth(game)
    return {
        "psne": psne.solved,
        "usw": scaled.to_int(solve_usw_treewidth(game).value),
        "esw": scaled.to_int(solve_esw_treewidth(game).value),
    }


def reference(instance, scaled: Scaled) -> dict | None:
    if instance.check == "exhaustive":
        return scaled.enumerate_optima()
    if instance.check == "cycle":
        return scaled.cycle_optima()
    if instance.check == "forest":
        return forest_reference(instance.game, scaled)
    return None  # "optimum": only the properties every optimum has


def check_answer(question, rc, out, scaled: Scaled, ref, rng_seed: int) -> str | None:
    """None when the printed answer holds, else what is wrong with it."""
    if rc not in (0, 2) or (rc == 2 and question != "psne"):
        return f"exit {rc}"
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    profile = fields.get("profile")
    invest = set() if profile in (None, "-") else {int(t) for t in profile.split()}
    if any(not 0 <= v < scaled.n for v in invest):
        return "profile names a player out of range"
    rng = random.Random(rng_seed)
    if question == "psne":
        if rc == 2:
            if fields.get("psne") != "no":
                return "exit 2 without psne=no"
            if ref is not None and ref["psne"]:
                return "psne=no, but the reference finds an equilibrium"
            if ref is None and scaled.best_response_finds_psne(rng, 16):
                return "psne=no, but best-response dynamics reach an equilibrium"
            return None
        if fields.get("psne") != "yes" or profile is None:
            return "exit 0 without psne=yes and a profile"
        if not scaled.is_psne(invest):
            return "the printed profile is not an equilibrium"
        if ref is not None and not ref["psne"]:
            return "psne=yes, but the reference finds no equilibrium"
        return None
    if "value" not in fields or profile is None:
        return "no value or no profile printed"
    value = scaled.to_int(Fraction(fields["value"]))
    score = scaled.usw if question == "usw" else scaled.esw
    if score(invest) != value:
        return f"the printed profile scores {Fraction(score(invest), scaled.scale)}, not {fields['value']}"
    if ref is not None:
        if ref[question] != value:
            return f"reference optimum {Fraction(ref[question], scaled.scale)}, printed {fields['value']}"
        return None
    for v in range(scaled.n):
        if score(invest ^ {v}) > value:
            return f"flipping player {v} raises {question}"
    for other in scaled.random_profiles(rng, 64):
        if score(other) > value:
            return f"a random profile beats the printed {question}"
    return None
