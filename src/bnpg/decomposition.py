"""Tree decompositions: validation, heuristics, nice form, and PACE files.

A decomposition is a tree of bags covering every vertex, covering both ends
of every edge in one bag, and keeping each vertex's bags connected.  The
solvers in `treewidth` consume the *nice* form, where every node is a leaf,
an introduce, a forget, or a join, and the root bag is empty.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .game import Graph, _immutable
from .instance_io import ParseError

HEURISTICS = ("min_fill", "min_degree")


class Violation(NamedTuple):
    """One broken decomposition property, with a human-readable witness."""

    axiom: str  # "vertex-cover" | "edge-cover" | "connectivity"
    detail: str


class TreeDecomposition:
    """Bags plus the tree skeleton joining them.

    `bags[i]` is a sorted vertex tuple; `tree_edges` hold bag indices with
    u < v.  The skeleton must be a tree (checked here); the three coverage
    axioms depend on a graph and live in `validate_decomposition`.
    """

    __slots__ = ("bags", "tree_edges")

    bags: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]

    def __init__(self, bags: Iterable[Iterable[int]], tree_edges: Iterable[tuple[int, int]]) -> None:
        bags = tuple(tuple(sorted(set(bag))) for bag in bags)
        if not bags:
            raise ValueError("a tree decomposition needs at least one bag")
        object.__setattr__(self, "bags", bags)
        for bag in bags:
            for v in bag:
                if v < 0:
                    raise ValueError(f"negative vertex {v} in a bag")
        canon = []
        seen = set()
        for u, v in tree_edges:
            if not (0 <= u < len(bags)) or not (0 <= v < len(bags)):
                raise ValueError(f"tree edge ({u}, {v}) references a missing bag")
            if u == v:
                raise ValueError(f"tree edge ({u}, {v}) is a self-loop")
            edge = (min(u, v), max(u, v))
            if edge in seen:
                raise ValueError(f"duplicate tree edge {edge}")
            seen.add(edge)
            canon.append(edge)
        object.__setattr__(self, "tree_edges", tuple(sorted(canon)))
        if len(canon) != len(bags) - 1:
            raise ValueError(
                f"{len(bags)} bags need {len(bags) - 1} tree edges, got {len(canon)}"
            )
        # connectivity of the skeleton (with the right edge count => a tree)
        adj = self.skeleton_neighbors()
        seen_bags = {0}
        queue = deque([0])
        while queue:
            b = queue.popleft()
            for nb in adj[b]:
                if nb not in seen_bags:
                    seen_bags.add(nb)
                    queue.append(nb)
        if len(seen_bags) != len(self.bags):
            raise ValueError("tree edges do not connect all bags")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return self.bags == other.bags and self.tree_edges == other.tree_edges

    def __hash__(self) -> int:
        return hash((self.bags, self.tree_edges))

    def __repr__(self) -> str:
        return f"TreeDecomposition(bags={self.bags!r}, tree_edges={self.tree_edges!r})"

    def __reduce__(self):
        return TreeDecomposition, (self.bags, self.tree_edges)

    __setattr__ = __delattr__ = _immutable

    def width(self) -> int:
        return max(len(bag) for bag in self.bags) - 1

    def skeleton_neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.bags]
        for u, v in self.tree_edges:
            adj[u].append(v)
            adj[v].append(u)
        return [sorted(nbrs) for nbrs in adj]


def validate_decomposition(td: TreeDecomposition, graph: Graph) -> list[Violation]:
    """Check the three coverage axioms; empty result means valid.

    Violations come out grouped by axiom (vertex cover, then edge cover,
    then per-vertex connectivity), each group in ascending witness order.
    """
    violations: list[Violation] = []
    in_bags: list[list[int]] = [[] for _ in range(graph.player_count)]
    foreign: list[tuple[int, int]] = []
    for i, bag in enumerate(td.bags):
        for v in bag:
            if v >= graph.player_count:
                foreign.append((i, v))
            else:
                in_bags[v].append(i)
    for i, v in foreign:
        violations.append(
            Violation("vertex-cover", f"bag {i} contains vertex {v}, which is not in the graph")
        )
    for v in range(graph.player_count):
        if not in_bags[v]:
            violations.append(Violation("vertex-cover", f"vertex {v} is in no bag"))
    holding_sets = [set(holding) for holding in in_bags]
    for u, v in sorted(graph.edges):
        if holding_sets[u].isdisjoint(holding_sets[v]):
            violations.append(
                Violation("edge-cover", f"edge ({u}, {v}) is contained in no bag")
            )
    adj = td.skeleton_neighbors()
    for v in range(graph.player_count):
        holding = in_bags[v]
        if len(holding) <= 1:
            continue
        holding_set = holding_sets[v]
        reached = {holding[0]}
        queue = deque([holding[0]])
        while queue:
            b = queue.popleft()
            for nb in adj[b]:
                if nb in holding_set and nb not in reached:
                    reached.add(nb)
                    queue.append(nb)
        if len(reached) != len(holding):
            stranded = sorted(holding_set - reached)
            violations.append(
                Violation(
                    "connectivity",
                    f"bags containing vertex {v} split into separate groups "
                    f"(bag {holding[0]} cannot reach bag {stranded[0]})",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# Nice form
# ---------------------------------------------------------------------------

class NiceTreeDecomposition:
    """Rooted decomposition with leaf / introduce / forget / join nodes.

    `parent[i]` is None exactly at `root`, whose bag must be empty.  Kinds,
    children, the introduced/forgotten vertex per node, and an iterative
    postorder are derived here; shape violations raise ValueError.
    Immutable; `==` and `hash` mean the canonical bags, `parent` and `root`,
    which determine the derived fields.
    """

    __slots__ = ("bags", "parent", "root", "kinds", "children", "distinguished", "postorder")

    bags: tuple[tuple[int, ...], ...]
    parent: tuple[int | None, ...]
    root: int
    kinds: tuple[str, ...]
    children: tuple[tuple[int, ...], ...]
    distinguished: tuple[int | None, ...]
    postorder: tuple[int, ...]

    def __init__(
        self, bags: Iterable[Iterable[int]], parent: tuple[int | None, ...], root: int
    ) -> None:
        bags = tuple(tuple(sorted(set(bag))) for bag in bags)
        count = len(bags)
        if count == 0:
            raise ValueError("a nice tree decomposition needs at least one node")
        if len(parent) != count:
            raise ValueError("parent array length does not match the bag count")
        setattr_ = object.__setattr__
        setattr_(self, "bags", bags)
        setattr_(self, "parent", parent)
        setattr_(self, "root", root)
        roots = [i for i, p in enumerate(self.parent) if p is None]
        if roots != [self.root]:
            raise ValueError(
                f"exactly one node may lack a parent (the root); got {roots}"
            )
        kids: list[list[int]] = [[] for _ in range(count)]
        for i, p in enumerate(self.parent):
            if p is None:
                continue
            if not (0 <= p < count):
                raise ValueError(f"node {i} has an out-of-range parent {p}")
            kids[p].append(i)
        # reachability from the root doubles as the acyclicity check
        order = _preorder(kids, self.root)
        if len(order) != count:
            raise ValueError("parent pointers do not form a single tree")
        if self.bags[self.root]:
            raise ValueError("the root bag must be empty")
        kinds: list[str] = [""] * count
        distinguished: list[int | None] = [None] * count
        for i in range(count):
            bag = set(self.bags[i])
            ch = kids[i]
            if not ch:
                if bag:
                    raise ValueError(f"leaf node {i} must have an empty bag")
                kinds[i] = "leaf"
            elif len(ch) == 1:
                child_bag = set(self.bags[ch[0]])
                if len(bag) == len(child_bag) + 1 and child_bag < bag:
                    kinds[i] = "introduce"
                    distinguished[i] = next(iter(bag - child_bag))
                elif len(bag) == len(child_bag) - 1 and bag < child_bag:
                    kinds[i] = "forget"
                    distinguished[i] = next(iter(child_bag - bag))
                else:
                    raise ValueError(
                        f"node {i} must introduce or forget exactly one vertex "
                        f"relative to its only child"
                    )
            elif len(ch) == 2:
                if any(set(self.bags[c]) != bag for c in ch):
                    raise ValueError(
                        f"join node {i} and its children must share one bag"
                    )
                kinds[i] = "join"
            else:
                raise ValueError(f"node {i} has {len(ch)} children; at most 2 allowed")
        setattr_(self, "kinds", tuple(kinds))
        setattr_(self, "children", tuple(tuple(c) for c in kids))
        setattr_(self, "distinguished", tuple(distinguished))
        setattr_(self, "postorder", tuple(reversed(order)))

    @classmethod
    def _trusted(
        cls,
        bags: tuple[tuple[int, ...], ...],
        parent: tuple[int | None, ...],
        root: int,
        kinds: tuple[str, ...],
        children: tuple[tuple[int, ...], ...],
        distinguished: tuple[int | None, ...],
    ) -> "NiceTreeDecomposition":
        """The instance `__init__` would derive from `bags`, `parent` and
        `root`, for a builder that made each node knowing its kind, sorted
        bag, children (a join's in ascending index) and distinguished
        vertex: nothing is re-derived or checked."""
        self = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(self, "bags", bags)
        setattr_(self, "parent", parent)
        setattr_(self, "root", root)
        setattr_(self, "kinds", kinds)
        setattr_(self, "children", children)
        setattr_(self, "distinguished", distinguished)
        setattr_(self, "postorder", tuple(reversed(_preorder(children, root))))
        return self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NiceTreeDecomposition):
            return NotImplemented
        return (self.bags, self.parent, self.root) == (other.bags, other.parent, other.root)

    def __hash__(self) -> int:
        return hash((self.bags, self.parent, self.root))

    def __repr__(self) -> str:
        return (
            f"NiceTreeDecomposition(bags={self.bags!r}, parent={self.parent!r}, root={self.root!r})"
        )

    def __reduce__(self):
        return NiceTreeDecomposition, (self.bags, self.parent, self.root)

    __setattr__ = __delattr__ = _immutable

    def width(self) -> int:
        return max(len(bag) for bag in self.bags) - 1

    def as_decomposition(self) -> TreeDecomposition:
        edges = tuple(
            (min(i, p), max(i, p)) for i, p in enumerate(self.parent) if p is not None
        )
        return TreeDecomposition(self.bags, edges)


def _preorder(children: Sequence[Sequence[int]], root: int) -> list[int]:
    """Nodes reachable from `root`, each before its children, the first
    child's subtree before the second's; reversed, a postorder."""
    order: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(children[node]))
    return order


def validate_nice(ntd: NiceTreeDecomposition, graph: Graph) -> list[Violation]:
    """The coverage axioms, which make every graph vertex forgotten exactly
    once: a vertex lies in some bag, its bags form one subtree, and the root
    bag is empty, so that subtree's topmost node is the only child of a
    forget of the vertex."""
    return validate_decomposition(ntd.as_decomposition(), graph)


class _NiceBuilder:
    """Accumulates nodes while converting to nice form."""

    def __init__(self) -> None:
        self.bags: list[tuple[int, ...]] = []
        self.parent: list[int | None] = []

    def add(self, bag: Iterable[int], children: tuple[int, ...] = ()) -> int:
        idx = len(self.bags)
        self.bags.append(tuple(sorted(bag)))
        self.parent.append(None)
        for c in children:
            self.parent[c] = idx
        return idx


def to_nice(
    td: TreeDecomposition, graph: Graph, root_bag: int = 0
) -> NiceTreeDecomposition:
    """Convert a valid decomposition to nice form without widening any bag.

    Each skeleton edge becomes a chain of forgets then introduces; bags with
    several children are folded through equal-bag joins; the chosen root bag
    is forgotten down to the mandatory empty root.  This serves user
    decompositions (`--td`) and acceptance check 8; with none given, the
    solvers take `elimination.nice_from_elimination` instead.

    The root matters.  A bag vertex's forgotten-neighbor count stays in
    every DP state until the vertex is forgotten.  On a min-fill
    decomposition, the default root bag 0 is the first eliminated vertex's,
    a leaf of the elimination tree, so the vertices on its path up are
    forgotten late and their counts multiply the join tables.  On the five
    `bounded_tw` games of the benchmark's sparse-tw workload, USW takes
    86,994 table entries and 191,256 join pairs rooted there, and 57,562
    and 150,584 rooted at the last eliminated vertex, at the same width.
    """
    problems = validate_decomposition(td, graph)
    if problems:
        first = problems[0]
        raise ValueError(
            f"not a valid tree decomposition ({first.axiom}: {first.detail})"
        )
    if not (0 <= root_bag < len(td.bags)):
        raise ValueError(f"root bag {root_bag} does not exist")
    adj = td.skeleton_neighbors()
    order: list[int] = []  # preorder; reversed gives a postorder
    skeleton_parent: dict[int, int | None] = {root_bag: None}
    stack = [root_bag]
    while stack:
        b = stack.pop()
        order.append(b)
        for nb in adj[b]:
            if nb not in skeleton_parent:
                skeleton_parent[nb] = b
                stack.append(nb)

    builder = _NiceBuilder()
    tops: dict[int, int] = {}  # skeleton bag -> its finished nice subtree top
    for b in reversed(order):
        target = set(td.bags[b])
        kids = [nb for nb in adj[b] if skeleton_parent.get(nb) == b]
        shaped: list[int] = []
        for c in sorted(kids):
            node = tops[c]
            bag = set(td.bags[c])
            for v in sorted(bag - target):  # forget what the parent lacks
                bag.discard(v)
                node = builder.add(bag, (node,))
            for v in sorted(target - bag):  # then introduce what it adds
                bag.add(v)
                node = builder.add(bag, (node,))
            shaped.append(node)
        if not shaped:
            node = builder.add(())
            running: set[int] = set()
            for v in sorted(target):
                running.add(v)
                node = builder.add(running, (node,))
            tops[b] = node
        else:
            node = shaped[0]
            for other in shaped[1:]:
                node = builder.add(target, (node, other))
            tops[b] = node

    node = tops[root_bag]
    bag = set(td.bags[root_bag])
    for v in sorted(bag):
        bag.discard(v)
        node = builder.add(bag, (node,))
    return NiceTreeDecomposition(
        tuple(builder.bags), tuple(builder.parent), root=node
    )


# ---------------------------------------------------------------------------
# Elimination-ordering heuristics
# ---------------------------------------------------------------------------


def heuristic_decomposition(
    graph: Graph, heuristic: str = "min_fill"
) -> TreeDecomposition:
    """The clique tree of `elimination.elimination_order`'s fill-in graph:
    bag i is the i-th eliminated vertex's, and joins the bag of its
    first-eliminated later neighbor, or, with none, the next bag."""
    # imported here, not at the top, so that `import bnpg.cli` does not load it
    from .elimination import elimination_order

    order, bags = elimination_order(graph, heuristic)
    if not bags:
        return TreeDecomposition(((),), ())
    elim_index = {v: i for i, v in enumerate(order)}
    edges = []
    for i, bag in enumerate(bags):
        later = [u for u in bag if elim_index[u] > i]
        if later:
            parent = min(later, key=lambda u: elim_index[u])
            edges.append((i, elim_index[parent]))
        elif i + 1 < len(bags):
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


# ---------------------------------------------------------------------------
# PACE-style .td files (1-indexed)
# ---------------------------------------------------------------------------


def read_pace(text: str) -> tuple[TreeDecomposition, int]:
    """Parse a .td file; returns the decomposition and the declared vertex count.

    Expected shape: optional `c` comment lines, one `s td <bags> <max-bag-size>
    <vertices>` header, `b <id> <members...>` lines, then skeleton edges as
    bag-id pairs.  Everything is 1-indexed on disk and 0-indexed in memory.
    """
    header: tuple[int, int, int] | None = None
    bag_lines: dict[int, tuple[int, tuple[int, ...]]] = {}
    edge_lines: list[tuple[int, int, int]] = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError(idx, "second 's td' header line")
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(idx, "header must look like 's td <bags> <max-bag-size> <vertices>'")
            try:
                counts = tuple(int(p) for p in parts[2:])
            except ValueError:
                raise ParseError(idx, "header counts must be integers") from None
            if any(c < 0 for c in counts):
                raise ParseError(idx, "header counts must be nonnegative")
            header = counts  # (bag_count, max_bag_size, vertex_count)
            continue
        if header is None:
            raise ParseError(idx, "expected the 's td' header before this line")
        if parts[0] == "b":
            if len(parts) < 2:
                raise ParseError(idx, "bag line is missing its id")
            try:
                values = [int(p) for p in parts[1:]]
            except ValueError:
                raise ParseError(idx, "bag line contains a non-integer") from None
            bag_id, members = values[0], values[1:]
            if not (1 <= bag_id <= header[0]):
                raise ParseError(idx, f"bag id {bag_id} out of range 1..{header[0]}")
            if bag_id in bag_lines:
                raise ParseError(idx, f"duplicate bag id {bag_id}")
            for v in members:
                if not (1 <= v <= header[2]):
                    raise ParseError(idx, f"vertex {v} out of range 1..{header[2]}")
            if len(set(members)) > header[1]:
                raise ParseError(
                    idx,
                    f"bag {bag_id} has {len(set(members))} vertices but the "
                    f"header allows at most {header[1]}",
                )
            bag_lines[bag_id] = (idx, tuple(v - 1 for v in members))
            continue
        if len(parts) != 2:
            raise ParseError(idx, "expected a skeleton edge line with two bag ids")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(idx, "skeleton edge line contains a non-integer") from None
        for b in (u, v):
            if not (1 <= b <= header[0]):
                raise ParseError(idx, f"bag id {b} out of range 1..{header[0]}")
        edge_lines.append((idx, u - 1, v - 1))
    if header is None:
        raise ParseError(None, "missing 's td' header line")
    if len(bag_lines) < header[0]:
        # the ids listed are distinct and in range, so one of the first
        # len + 1 is missing: the search follows the file, not the header
        missing = next(b for b in range(1, len(bag_lines) + 2) if b not in bag_lines)
        raise ParseError(None, f"bag {missing} was declared but never listed")
    bags = tuple(bag_lines[b][1] for b in range(1, header[0] + 1))
    try:
        td = TreeDecomposition(bags, tuple((u, v) for _, u, v in edge_lines))
    except ValueError as exc:
        raise ParseError(None, str(exc)) from None
    return td, header[2]


def write_pace(td: TreeDecomposition, vertex_count: int) -> str:
    """Serialize to the 1-indexed .td layout accepted by `read_pace`."""
    for bag in td.bags:
        for v in bag:
            if v >= vertex_count:
                raise ValueError(
                    f"bag vertex {v} exceeds the declared vertex count {vertex_count}"
                )
    lines = [
        f"s td {len(td.bags)} {max(len(bag) for bag in td.bags)} {vertex_count}"
    ]
    for i, bag in enumerate(td.bags, start=1):
        lines.append(" ".join(["b", str(i)] + [str(v + 1) for v in bag]))
    for u, v in td.tree_edges:
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
