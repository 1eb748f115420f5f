"""Tree decompositions: validation, heuristics, nice form, and PACE files.

A decomposition is a tree of bags covering every vertex, covering both ends
of every edge in one bag, and keeping each vertex's bags connected.  The
solvers in `treewidth` consume the *nice* form, where every node is a leaf,
an introduce, a forget, or a join, and the root bag is empty.  Both forms
are rooted once, when made, and one check, `_coverage_violations`, reads
either rooting.  One builder, `_nice_from_skeleton`, makes the nice form
from a rooted skeleton, with two entry points: `to_nice` for a given
decomposition, which it validates and roots at a chosen bag, and
`elimination.nice_from_elimination` for an elimination order's tree.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .game import Graph, _Record, read_int, root_walk
from .instance_io import ParseError

HEURISTICS = ("min_fill", "min_degree")


class Violation(NamedTuple):
    """One broken decomposition property, with a human-readable witness."""

    axiom: str  # "vertex-cover" | "edge-cover" | "connectivity"
    detail: str


def _canonical_bags(bags: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The one bag rule of both forms: sorted, deduplicated, nonnegative."""
    bags = tuple(tuple(sorted(set(bag))) for bag in bags)
    for bag in bags:
        if bag and bag[0] < 0:
            raise ValueError(f"negative vertex {bag[0]} in a bag")
    return bags


class TreeDecomposition(_Record):
    """Bags plus the tree skeleton joining them.

    `bags[i]` is a sorted vertex tuple; `tree_edges` hold bag indices with
    u < v.  The skeleton must be a tree, checked by rooting it at bag 0; the
    rooting is kept, outside `==` and `hash`, for `to_nice` and for
    `validate_decomposition`, where the three coverage axioms, which depend
    on a graph, live.
    """

    __slots__ = ("bags", "tree_edges", "_rooting")
    _fields = ("bags", "tree_edges")

    bags: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]

    def __init__(self, bags: Iterable[Iterable[int]], tree_edges: Iterable[tuple[int, int]]) -> None:
        bags = _canonical_bags(bags)
        if not bags:
            raise ValueError("a tree decomposition needs at least one bag")
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
        if len(canon) != len(bags) - 1:
            raise ValueError(
                f"{len(bags)} bags need {len(bags) - 1} tree edges, got {len(canon)}"
            )
        tree_edges = tuple(sorted(canon))
        # connectivity of the skeleton (with the right edge count => a tree)
        rooting = root_walk(len(bags), tree_edges, (0,))
        if len(rooting[1]) != len(bags):
            raise ValueError("tree edges do not connect all bags")
        object.__setattr__(self, "bags", bags)
        object.__setattr__(self, "tree_edges", tree_edges)
        object.__setattr__(self, "_rooting", rooting)

    def width(self) -> int:
        return max(len(bag) for bag in self.bags) - 1


def validate_decomposition(td: TreeDecomposition, graph: Graph) -> list[Violation]:
    """Check the three coverage axioms (`_coverage_violations`); empty means valid."""
    return _coverage_violations(td.bags, *td._rooting, graph)


def _coverage_violations(
    bags: Sequence[tuple[int, ...]], parent: Sequence[int | None], preorder: Sequence[int], graph: Graph
) -> list[Violation]:
    """The coverage axioms over a tree of sorted bags: `parent[b]` is None
    at the root, and `preorder` lists every bag after its parent.

    Violations come out grouped by axiom (vertex cover, then edge cover,
    then per-vertex connectivity), each group in ascending witness order.
    A vertex's bags are connected iff exactly one of them has a parent that
    does not hold it, so the check is linear in the total bag size; only a
    vertex that fails it has its bags grouped, to name one it cannot reach.
    The groups, and so the violations, do not depend on the root.
    """
    violations: list[Violation] = []
    in_bags: list[list[int]] = [[] for _ in range(graph.player_count)]
    foreign: list[tuple[int, int]] = []
    for i, bag in enumerate(bags):
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
    rank = [0] * len(preorder)
    for i, b in enumerate(preorder):
        rank[b] = i
    for v in range(graph.player_count):
        holding, holding_set = in_bags[v], holding_sets[v]
        if sum(parent[b] not in holding_set for b in holding) <= 1:
            continue
        # in preorder, a bag's parent comes first: label each bag by the top
        # of its group, then name the first bag outside bag holding[0]'s
        top: dict[int, int] = {}
        for b in sorted(holding, key=rank.__getitem__):
            top[b] = top.get(parent[b], b)
        stranded = next(b for b in holding if top[b] != top[holding[0]])
        violations.append(
            Violation(
                "connectivity",
                f"bags containing vertex {v} split into separate groups "
                f"(bag {holding[0]} cannot reach bag {stranded})",
            )
        )
    return violations


# ---------------------------------------------------------------------------
# Nice form
# ---------------------------------------------------------------------------

class NiceTreeDecomposition(_Record):
    """Rooted decomposition with leaf / introduce / forget / join nodes.

    `parent[i]` is None exactly at `root`, whose bag must be empty.  Kinds,
    children, the introduced/forgotten vertex per node, and an iterative
    postorder are derived here; shape violations raise ValueError.
    Immutable; `==` and `hash` mean the canonical bags, `parent` and `root`,
    which determine the derived fields.
    """

    __slots__ = ("bags", "parent", "root", "kinds", "children", "distinguished", "postorder")
    _fields = ("bags", "parent", "root")

    bags: tuple[tuple[int, ...], ...]
    parent: tuple[int | None, ...]
    root: int
    kinds: tuple[str, ...]
    children: tuple[tuple[int, ...], ...]
    distinguished: tuple[int | None, ...]
    postorder: tuple[int, ...]

    def __init__(
        self, bags: Iterable[Iterable[int]], parent: Iterable[int | None], root: int
    ) -> None:
        bags = _canonical_bags(bags)
        parent = tuple(parent)
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

    def width(self) -> int:
        return max(len(bag) for bag in self.bags) - 1


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
    forget of the vertex.  Checked over the nice tree's own rooting."""
    return _coverage_violations(ntd.bags, ntd.parent, ntd.postorder[::-1], graph)


def _nice_from_skeleton(
    bags: Sequence[tuple[int, ...]],
    parent: Sequence[int | None],
    postorder: Iterable[int],
) -> NiceTreeDecomposition:
    """The nice form of a rooted skeleton, as wide as its widest bag.

    `bags` are sorted; `parent[b]` is None at a root; `postorder` lists
    every bag after its children, and the order in which it finishes a
    bag's children is the order they are joined in.  For each bag: the
    finished top of each child, topped by introduces, in sorted order, of
    what it lacks, and these tops folded through equal-bag joins; a bag
    with no children starts from a leaf and introduces its bag.  Right
    after a bag's subtree come forgets, in sorted order, of what its parent
    lacks, or of everything at a root.  Several roots are joined at empty
    bags.  Each node is made knowing its kind, children (a join's in
    ascending index) and distinguished vertex, so the result takes
    `NiceTreeDecomposition._trusted`: it is what `__init__` would derive
    from the same bags and parents.
    """
    nice_bags: list[tuple[int, ...]] = []
    nice_parent: list[int | None] = []
    kinds: list[str] = []
    children: list[tuple[int, ...]] = []
    distinguished: list[int | None] = []

    def add(bag: tuple[int, ...], kind: str, below: tuple[int, ...] = (), vertex=None) -> int:
        idx = len(nice_bags)
        nice_bags.append(bag)
        nice_parent.append(None)
        kinds.append(kind)
        children.append(below)
        distinguished.append(vertex)
        for c in below:
            nice_parent[c] = idx
        return idx

    def joined(tops: list[int], bag: tuple[int, ...]) -> int:
        node = tops[0]
        for other in tops[1:]:
            node = add(bag, "join", (min(node, other), max(node, other)))
        return node

    finished: list[list[int]] = [[] for _ in bags]  # bag -> its children's tops
    roots: list[int] = []
    for b in postorder:
        bag = bags[b]
        shaped = []
        for node in finished[b]:
            have = set(nice_bags[node])
            for x in bag:
                if x not in have:
                    have.add(x)
                    node = add(tuple(y for y in bag if y in have), "introduce", (node,), x)
            shaped.append(node)
        if shaped:
            node = joined(shaped, bag)
        else:
            node = add((), "leaf")
            for k, x in enumerate(bag):
                node = add(bag[: k + 1], "introduce", (node,), x)
        up = parent[b]
        keep = () if up is None else bags[up]
        for x in bag:
            if x not in keep:
                bag = tuple(y for y in bag if y != x)
                node = add(bag, "forget", (node,), x)
        (roots if up is None else finished[up]).append(node)
    root = joined(roots, ()) if roots else add((), "leaf")
    return NiceTreeDecomposition._trusted(
        tuple(nice_bags),
        tuple(nice_parent),
        root,
        tuple(kinds),
        tuple(children),
        tuple(distinguished),
    )


def to_nice(
    td: TreeDecomposition, graph: Graph, root_bag: int = 0
) -> NiceTreeDecomposition:
    """Convert a valid decomposition to nice form without widening any bag:
    `_nice_from_skeleton` on the skeleton rooted at `root_bag` (at bag 0,
    the rooting `td` keeps), a bag's children joined in ascending index.
    This serves user decompositions (`--td`) and acceptance check 8; with
    none given, the solvers build the nice form from the min-fill order
    instead, rooted where it pays (see `elimination.nice_from_elimination`).
    """
    problems = validate_decomposition(td, graph)
    if problems:
        raise ValueError(f"not a valid tree decomposition ({': '.join(problems[0])})")
    if not (0 <= root_bag < len(td.bags)):
        raise ValueError(f"root bag {root_bag} does not exist")
    parent, order = root_walk(len(td.bags), td.tree_edges, (root_bag,)) if root_bag else td._rooting
    return _nice_from_skeleton(td.bags, parent, reversed(order))


# ---------------------------------------------------------------------------
# Elimination-ordering heuristics
# ---------------------------------------------------------------------------


def heuristic_decomposition(
    graph: Graph, heuristic: str = "min_fill"
) -> TreeDecomposition:
    """The clique tree of `elimination.elimination_order`'s fill-in graph:
    bag i is the i-th eliminated vertex's, and joins its parent in
    `elimination.elimination_tree`, or, at a root, the next bag."""
    # imported here, not at the top, so that `import bnpg.cli` does not load it
    from .elimination import elimination_order, elimination_tree

    order, bags = elimination_order(graph, heuristic)
    if not bags:
        return TreeDecomposition(((),), ())
    parents = elimination_tree(order, bags)
    edges = [(i, i + 1 if p is None else p) for i, p in enumerate(parents[:-1])]
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
                counts = tuple(read_int(p) for p in parts[2:])
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
                values = [read_int(p) for p in parts[1:]]
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
            u, v = read_int(parts[0]), read_int(parts[1])
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
