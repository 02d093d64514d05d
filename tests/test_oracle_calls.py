"""How often classify, trim and the degree-3 bound ask their host for a handle's neighbors.

classify and trim put the host behind a per-call memo of ``neighbors``, so
a handle reaches the host once per call. The memo reads a fixture's
component sizes off the neighbors it already holds, so classify's
inessential scan asks nothing again. The degree-3 bound has no memo: it
reads each member's degree and boundary off one answer.
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
from arbor.amenability import _degree3_bound
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
