"""How often classify, trim and the degree-3 bound ask their host for a handle's neighbors.

classify and trim put the host behind a per-call memo of ``neighbors``, so
a handle reaches the host once per call. The memo reads a fixture's
component sizes off the neighbors it already holds, so classify's
inessential scan asks nothing again. Behind no memo, that scan still asks
only for the vertices it walks, and it walks no component it has already
built in the call. The degree-3 bound has no memo: it reads each member's
degree and boundary off one answer.
"""

import io
import random
from collections import Counter
from types import SimpleNamespace

import pytest

import arbor.cli as cli
import brute
from arbor import (
    ClassifyBudgets,
    DeclaredBounds,
    InvalidVertexError,
    Tree,
    TreeAsOracle,
    GWSpec,
    ball_code_sequence,
    classify,
    explore_ball,
    make_fixture,
    min_degree3_bound_check,
    random_connected_subset,
    sample,
)
from arbor.amenability import _SCAN_LIMIT, _degree3_bound, _inessential_witnesses
from arbor.exploration import _NeighborMemo


def counting(host):
    """host as an instance of a subclass whose ``neighbors`` counts its calls per handle."""

    class Counting(type(host)):
        def neighbors(self, h):
            self.asked[h] += 1
            return super().neighbors(h)

    twin = Counting.__new__(Counting)
    for slot in type(host).__slots__:
        if hasattr(host, slot):
            setattr(twin, slot, getattr(host, slot))
    twin.asked = Counter()
    return twin


def run_counted(monkeypatch, argv: list) -> Counter:
    """Run the CLI with its fixture counted; return the calls per handle."""
    hosts = []

    def make(name):
        hosts.append(counting(make_fixture(name)))
        return hosts[-1]

    monkeypatch.setattr(cli, "make_fixture", make)
    cli.main(argv, stdout=io.StringIO())
    (host,) = hosts
    return host.asked


@pytest.mark.parametrize(
    "argv, calls, handles",
    [
        (["classify", "--fixture", "regular(3)", "--declared-k", "0", "--declared-d", "1", "--declared-R", "1"], 1534, 1534),
        (["classify", "--fixture", "staircase", "--radius", "25", "--d-target", "23"], 325, 325),
        (["classify", "--fixture", "zline_pendant", "--d-target", "30"], 71, 71),
    ],
)
def test_classify_asks_each_handle_once(monkeypatch, argv: list, calls: int, handles: int):
    # without the memo the busiest handle was asked 11, 35 and 13 times, and
    # while the sizes asked for r again, 3068, 481 and 90 calls were made
    asked = run_counted(monkeypatch, argv)
    assert set(asked.values()) == {1}
    assert (sum(asked.values()), len(asked)) == (calls, handles)


def test_trim_asks_each_handle_once(monkeypatch):
    # without the memo: 607 calls for 102 handles, up to 13 for one handle
    asked = run_counted(monkeypatch, ["trim", "--fixture", "staircase_n(2)", "--radius", "8", "--steps", "6"])
    assert set(asked.values()) == {1}
    assert len(asked) == 102


def test_classify_on_a_finite_tree_asks_each_handle_once_per_call():
    t = Tree.from_edges(brute.random_tree_edges(random.Random(7), 120))
    host = counting(TreeAsOracle(Tree(t.adjacency, root=5)))
    classify(host, ClassifyBudgets(radius=6), declared=DeclaredBounds(3, 4, 200))
    assert set(host.asked.values()) == {1}
    classify(host, ClassifyBudgets(radius=6))
    assert set(host.asked.values()) == {2}  # a second call starts a new memo


def test_classify_asks_a_black_box_host_each_handle_once():
    inner = make_fixture("staircase")
    asked = Counter()

    def neighbors(h):
        asked[h] += 1
        return inner.neighbors(h)

    classify(SimpleNamespace(root=inner.root, neighbors=neighbors), ClassifyBudgets(radius=12))
    assert set(asked.values()) == {1}


def black_box_tree(n: int, seed: int):
    """A random n-vertex tree rooted at 0, offering only ``neighbors``, with its calls counted in ``asked``."""
    t = Tree.from_edges(brute.random_tree_edges(random.Random(seed), n))
    asked = Counter()

    def neighbors(h):
        asked[h] += 1
        return t.neighbors(h)

    return SimpleNamespace(root=0, neighbors=neighbors, asked=asked)


def sized_tree(n: int, seed: int, recursive: bool = False):
    """A random n-vertex tree rooted at 0, counted; ``recursive`` gives vertex v a parent below v."""
    rng = random.Random(seed)
    if recursive:
        t = Tree.from_edges([(rng.randrange(v), v) for v in range(1, n)])
    else:
        t = Tree.from_edges(brute.random_tree_edges(rng, n))
    return counting(TreeAsOracle(Tree(t.adjacency, root=0)))


@pytest.mark.parametrize(
    "make, radius, budget, reads",
    [
        (lambda: counting(make_fixture("staircase")), 25, 2000, 1558),
        (lambda: counting(make_fixture("staircase_n(2)")), 20, 2000, 1993),
        (lambda: sized_tree(140, 7), 140, 2000, 2344),
        (lambda: sized_tree(140, 1, recursive=True), 10, 2000, 868),
        (lambda: black_box_tree(200, 7), 200, 50, 4328),
    ],
    ids=["staircase", "staircase_n(2)", "tree", "recursive tree", "black-box tree"],
)
def test_inessential_scan_takes_components_it_built_whole(make, radius: int, budget: int, reads: int):
    # Without a memo in front, the scan's neighbors calls are its walks plus,
    # on a host with sizes, one call per scanned vertex. Walking every
    # component from scratch took 4134, 4444, 12740, 10640 and 8164 calls.
    host = make()
    ball = explore_ball(host, radius)
    host.asked.clear()
    _inessential_witnesses(host, ball, ClassifyBudgets(radius=radius, component_budget=budget), _SCAN_LIMIT)
    assert sum(host.asked.values()) == reads


def test_ball_code_sequence_asks_each_handle_once():
    host = counting(make_fixture("zline_pendant"))
    codes = ball_code_sequence(host, 4, 3)
    assert codes == ball_code_sequence(make_fixture("zline_pendant"), 4, 3)
    assert set(host.asked.values()) == {1}


def test_neighbor_memo_forwards_only_what_the_host_has():
    fixture = make_fixture("staircase")
    memo = _NeighborMemo(fixture)
    assert memo.root == (0, 0)
    assert memo.hanging_component_sizes((1, 0)) == fixture.hanging_component_sizes((1, 0))
    bare = _NeighborMemo(SimpleNamespace(neighbors=fixture.neighbors))
    assert not hasattr(bare, "root")
    assert not hasattr(bare, "hanging_component_sizes")
    # the public method but no size rule: the memo hands out the host's own
    sized = SimpleNamespace(neighbors=fixture.neighbors, hanging_component_sizes=fixture.hanging_component_sizes)
    assert _NeighborMemo(sized).hanging_component_sizes is sized.hanging_component_sizes


@pytest.mark.parametrize("law, root", [((0, 0, 0, 1), None), ((0, 0, "1/2", "1/2"), 0)])
def test_degree3_bound_asks_each_member_once(law, root):
    # a degree loop and then boundary_of asked twice per member; the public
    # check's connectivity walk asks once more
    ball = sample(GWSpec(law), 3, 4).truncate_ball(4)
    asked = Counter()

    def neighbors(v):
        asked[v] += 1
        return ball.neighbors(v)

    host = SimpleNamespace(neighbors=neighbors)
    rng = random.Random(5)
    for _ in range(30):
        members = random_connected_subset(ball, 1 + rng.randrange(10), rng)
        asked.clear()
        assert _degree3_bound(host, members, root)
        assert asked == Counter(members)
        if root is None:
            asked.clear()
            assert min_degree3_bound_check(host, members)
            assert asked == Counter(2 * list(members))


HOSTS = [
    "regular(2)",
    "regular(3)",
    "sary(1)",
    "sary(2)",
    "zline_pendant",
    "threereg_plus_ray",
    "staircase",
    "staircase_n(2)",
]


@pytest.mark.parametrize("name", HOSTS + ["tree"])
def test_neighbor_memo_sizes_match_the_public_ones(name: str):
    if name == "tree":
        t = Tree.from_edges(brute.random_tree_edges(random.Random(3), 80))
        host = TreeAsOracle(Tree(t.adjacency, root=9))
    else:
        host = make_fixture(name)
    memo = _NeighborMemo(counting(host))
    ball = explore_ball(memo, 6)  # asks the memo for every interior handle, as classify does
    for v in ball.sorted_interior:
        r = ball.handles[v]
        # key order included: the scan's witness order starts from it
        assert list(memo.hanging_component_sizes(r).items()) == list(host.hanging_component_sizes(r).items())
    assert set(memo.host.asked.values()) == {1}


def test_neighbor_memo_keeps_answers_but_not_errors():
    asked = Counter()
    fixture = make_fixture("regular(3)")

    def neighbors(h):
        asked[h] += 1
        return fixture.neighbors(h)

    memo = _NeighborMemo(SimpleNamespace(neighbors=neighbors))
    assert memo.neighbors(()) is memo.neighbors(())
    for _ in range(2):
        with pytest.raises(InvalidVertexError):
            memo.neighbors((5,))
    assert asked == {(): 1, (5,): 2}
