import hashlib
import random
import time
from functools import cache, partial
from itertools import chain, combinations
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, strategies as st

from expindep.constructors import tree_good_set
from expindep.families import (
    free_trees,
    gen_cycle,
    gen_path,
    gen_perfect_binary,
    gen_tk,
    random_subcubic_graph,
    random_subcubic_tree,
)
from expindep.graphs import (
    INF,
    Graph,
    ParameterError,
    connected_components,
    degree2_vertices,
    induced_subgraph,
    is_connected,
    is_subcubic,
    is_tree,
    plain_row,
)
from expindep import solvers, weights
from expindep.solvers import (
    InfeasibleError,
    SearchResult,
    alpha_e_exact,
    find_maximal_ei_not_ed,
    gamma_e_exact,
    try_extend,
)
from expindep.weights import (
    _influence,
    _member_check,
    ed_holds,
    ei_holds,
    is_exponentially_dominating,
    is_exponentially_independent,
)
from oracles import alpha_e_bruteforce, bfs_distances, blocked_distance, kernel_reference


class TestAlphaExamples:
    def test_p5(self):
        assert alpha_e_exact(gen_path(5)).optimum == 2

    def test_k1(self):
        res = alpha_e_exact(Graph(1))
        assert res.optimum == 1 and res.witness == (0,)

    def test_p2(self):
        assert alpha_e_exact(gen_path(2)).optimum == 1

    def test_tk_family(self):
        for k in range(1, 5):
            lg = gen_tk(k)
            res = alpha_e_exact(lg.graph)
            assert res.optimum == k + 2
            # the endvertex selection attains the optimum
            from expindep.families import canonical_set_tk

            S = canonical_set_tk(k)
            assert len(S) == res.optimum
            assert ei_holds(lg.graph, S)

    def test_pbt_depth2(self):
        lg = gen_perfect_binary(2)
        res = alpha_e_exact(lg.graph)
        assert res.optimum == 4 == (lg.graph.n + 1) // 2
        assert frozenset(res.witness) == lg.vset("leaves")

    def test_required_respected(self):
        res = alpha_e_exact(gen_path(5), required={0, 4})
        assert set(res.witness) == {0, 4}

    def test_required_infeasible(self):
        with pytest.raises(InfeasibleError):
            alpha_e_exact(gen_path(2), required={0, 1})

    def test_excluded_respected(self):
        res = alpha_e_exact(gen_path(5), excluded={0, 2})
        assert not ({0, 2} & set(res.witness))

    @pytest.mark.parametrize("kind", ["required", "excluded"])
    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_ids_outside_the_graph_rejected(self, kind, bad):
        # -1 used to wrap the visited-marks index and return a witness
        # holding -1; ids >= n raised IndexError
        with pytest.raises(ValueError, match="outside the graph"):
            alpha_e_exact(gen_path(3), **{kind: {bad}})

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            alpha_e_exact(gen_path(5), required={0}, excluded={0})

    def test_nodes_deterministic(self):
        a = alpha_e_exact(gen_tk(2).graph)
        b = alpha_e_exact(gen_tk(2).graph)
        assert (a.witness, a.nodes_explored) == (b.witness, b.nodes_explored)


class TestBruteForce:
    def test_guard(self):
        with pytest.raises(ValueError):
            alpha_e_bruteforce(random_subcubic_graph(21, 0, 1))

    def test_k1(self):
        assert alpha_e_bruteforce(Graph(1)).optimum == 1

    def test_agrees_on_trees(self, trees_by_order):
        for n in range(1, 10):
            for T in trees_by_order[n]:
                a = alpha_e_exact(T)
                b = alpha_e_bruteforce(T)
                assert a.optimum == b.optimum, (n, list(T.edges()))
                assert a.witness == b.witness, (n, list(T.edges()))

    def test_agrees_on_random_graphs(self, random_graph_pool):
        for G in random_graph_pool[:60]:
            a = alpha_e_exact(G)
            b = alpha_e_bruteforce(G)
            assert a.optimum == b.optimum
            assert a.witness == b.witness

    def test_witnesses_reverify(self, random_graph_pool):
        for G in random_graph_pool[:20]:
            res = alpha_e_exact(G)
            assert is_exponentially_independent(G, res.witness).ok


class TestBounds:
    def test_half_ceiling(self, trees_by_order, random_graph_pool):
        for n in range(1, 10):
            for T in trees_by_order[n]:
                if is_subcubic(T):
                    assert 2 * alpha_e_exact(T).optimum <= T.n + 1
        for G in random_graph_pool[:40]:
            if is_subcubic(G) and is_connected(G):
                assert 2 * alpha_e_exact(G).optimum <= G.n + 1

    def test_quarter_bound_and_good_set(self, trees_by_order):
        for n in range(2, 10):
            for T in trees_by_order[n]:
                if not (is_subcubic(T) and degree2_vertices(T)):
                    continue
                opt = alpha_e_exact(T).optimum
                S, _ = tree_good_set(T)
                assert 4 * opt >= T.n + 3
                assert opt >= len(S)


def row_map(G):
    """The plain-distance rows the exact solvers read, one per vertex."""
    return cache(partial(plain_row, G))


def start(G):
    """The lane layout of one solve on G, the empty set's try_extend state
    in it, as ``alpha_e_exact`` builds them, and a reader of a state's
    lanes. A state is a triple ``(members, bounds, tops)``, the members a
    tuple in join order; ``lanes(state)`` maps each member of a state to
    its lane, and ``lanes(state, x)`` is x's lane."""
    layout = solvers._lanes(G)
    state = ((), 0, 0)
    w = layout.w

    def lanes(state, x=None):
        if x is not None:
            return state[1] >> w * x & (1 << w) - 1
        return {y: lanes(state, y) for y in sorted(state[0])}

    return layout, state, lanes


def joined(G, layout, members):
    """The state of ``members``, an exponentially independent set, built as
    ``alpha_e_exact`` joins a required set: by ``try_extend`` from the
    empty set's state, in ascending id."""
    state = ((), 0, 0)
    for u in sorted(members):
        state = try_extend(G, state, u, layout)
    return state


def on_lanes(num, exp):
    """num / 2 ** exp rounded up onto the lane scale, from the definition."""
    return -(-(num << solvers._LANE_BITS) >> exp)


class TestIncrementalExtension:
    def test_matches_full_verifier(self):
        rng = random.Random(71)
        for trial in range(80):
            G = random_subcubic_graph(5 + trial % 10, trial % 3, trial + 1100)
            layout, state, _ = start(G)
            members = frozenset()
            order = list(range(G.n))
            rng.shuffle(order)
            for v in order:
                step = try_extend(G, state, v, layout)
                full = ei_holds(G, members | {v})
                assert (step is not None) == full, (trial, sorted(members), v)
                if step is not None:
                    assert step[0] == (*state[0], v)
                    members, state = frozenset(step[0]), step

    def test_passing_recheck_stores_its_checked_value(self, monkeypatch):
        # the two re-checks of this search that pass: when 13 joins
        # {0, 4, 5, 9, 12}, the plain terms lift the bounds of members 9
        # and 12 to 1 or more; each check sweeps to the end, reads the
        # exact weight 31 / 2^5, on the scale of the last level that held
        # a member, and keeps it, rounded up onto the lane scale, as its
        # bound
        G = random_subcubic_graph(15, 1, 11)
        *_, lanes = start(G)
        passed, grown_maps = [], []

        def check(G, members, x):
            result = _member_check(G, members, x)
            if result[0]:
                passed.append((x, frozenset(members), result[1:]))
            return result

        def extend(G, state, v, layout):
            grown = try_extend(G, state, v, layout)
            if grown is not None:
                grown_maps.append(lanes(grown))
            return grown

        monkeypatch.setattr(solvers, "_member_check", check)
        monkeypatch.setattr(solvers, "try_extend", extend)
        result = alpha_e_exact(G)
        members = frozenset({0, 4, 5, 9, 12, 13})
        assert passed == [(9, members, (31, 5)), (12, members, (31, 5))]
        for x in (9, 12):
            assert checked(G, members, x) == (31, 5)
            assert exact_weight(G, members, x) == 31 << G.n - 5
            assert [grown[x] for grown in grown_maps if grown.keys() == members] == [on_lanes(31, 5)]
        oracle = alpha_e_bruteforce(G)
        assert (result.optimum, result.witness) == (oracle.optimum, oracle.witness)
        assert result.optimum == 6

    # v's plain sum reaches 1 in each case. On the path 0..6, 2 lies between
    # the members 0 and 4, both at distance 2, and 3 next to the member 4.
    # On the spider with centre 0 and legs 0-1, 0-2-{3, 7}, 0-4-{5, 6}, 3
    # reads 7 at 2, 1 at 3, and 5 and 6 at 4, an exact weight of 1. On the
    # 22-vertex graph v's plain sum is exactly 1, but each shortest path to
    # one member at distance 5 passes another member, so it sits at
    # blocked distance 9: v's weight is 241/256, its member check stops
    # below the cut with the bound 31/32, and v joins.
    @pytest.mark.parametrize(
        "G, members, v",
        [
            (gen_path(7), (0, 4), 2),
            (gen_path(7), (0, 4), 3),
            (Graph(8, [(0, 1), (0, 2), (0, 4), (2, 3), (2, 7), (4, 5), (4, 6)]), (6, 1, 5, 7), 3),
            (random_subcubic_graph(22, 2, 1500745915), (2, 14, 0, 9, 15), 19),
        ],
        ids=["between-members", "member-neighbour", "far-clean-terms", "blocked-far-terms"],
    )
    def test_plain_sum_of_one_is_decided_as_a_hot_member(self, monkeypatch, G, members, v):
        """v is decided as every hot member is: ``solvers`` runs no kernel
        sweep of its own, v is hot, the member checks run over the hot
        members in id order up to the first that fails, every kernel sweep
        is a member check, and the verdict agrees with ``ei_holds``."""
        layout, state, _ = start(G)
        rows = layout.rows
        for u in members:
            state = try_extend(G, state, u, layout)
        assert sum((2 << G.n) >> rows(v)[x] for x in members) >= 1 << G.n
        assert not hasattr(solvers, "_influence")
        checks, verdicts, sweeps = [], [], []

        def influence(G, members, u, cut=0):
            sweeps.append(u)
            return _influence(G, members, u, cut)

        def check(G, members, x):
            checks.append(x)
            result = _member_check(G, members, x)
            verdicts.append(result[0])
            return result

        monkeypatch.setattr(weights, "_influence", influence)
        monkeypatch.setattr(solvers, "_member_check", check)
        grown = try_extend(G, state, v, layout)
        total, w = state[1] + layout.terms(v), layout.w
        hot = [x for x in sorted({*state[0], v}) if total >> w * x & (1 << w) - 1 >= layout.one]
        assert v in hot
        if grown is None:
            assert checks == hot[: len(checks)]
            assert verdicts == [True] * (len(checks) - 1) + [False]
        else:
            assert checks == hot and all(verdicts)
        assert sweeps == checks
        assert (grown is not None) == ei_holds(G, set(members) | {v})

    def test_a_join_reads_no_plain_row(self):
        """A join reads v's term row and decides its hot members by kernel
        sweeps alone: with a layout whose plain rows raise, every
        try_extend call gives the state the real layout gives, over the
        identity graphs in id order and over a greedy pass in ascending
        (degree, id) order on a 300-vertex graph with cycles."""

        def no_rows(v):
            raise AssertionError(f"a join read the plain row of {v}")

        graphs, cyclic = identity_graphs()
        G = random_subcubic_graph(300, 37, 1)
        walks = [(H, range(H.n)) for H in graphs + cyclic]
        walks.append((G, sorted(range(G.n), key=lambda v: (G.degree(v), v))))
        for H, order in walks:
            layout = solvers._lanes(H)
            rowless = layout._replace(rows=no_rows)
            state = ((), 0, 0)
            for v in order:
                step = try_extend(H, state, v, layout)
                assert try_extend(H, state, v, rowless) == step, (list(H.edges()), state[0], v)
                if step is not None:
                    state = step
        assert ei_holds(G, state[0]) and len(state[0]) == 85

    # On the path 0..6, 4 joining {0, 2} lifts member 2's bound to 1, the
    # case that re-checks 2, and 2 reads 0 and 4 at distance 2, a weight of
    # 1. On the tree 0-1-{2, 3}, 2-5, 3-4, 5 joining {0, 2, 4} lifts member
    # 0's bound to 1, but 5 lies behind the member 2, so 0 passes at 3/4;
    # then the member 2, next to 5, fails.
    @pytest.mark.parametrize(
        "G, members, v, swept",
        [
            (gen_path(7), (0, 2), 4, [2]),
            (Graph(6, [(0, 1), (1, 2), (1, 3), (2, 5), (3, 4)]), (0, 2, 4), 5, [0, 2]),
        ],
        ids=["member-recheck", "pass-then-reject"],
    )
    def test_reject_runs_one_sweep_per_checked_member(self, monkeypatch, G, members, v, swept):
        """A reject takes one kernel sweep, with the member check's cut of
        3, for each hot member up to the one that fails, and no other."""
        layout, state, _ = start(G)
        for u in members:
            state = try_extend(G, state, u, layout)
        grown = frozenset({*members, v})
        assert [_member_check(G, grown, x)[0] for x in swept] == [True] * (len(swept) - 1) + [False]
        sweeps = []

        def influence(G, members, u, cut=0):
            sweeps.append((u, cut))
            return _influence(G, members, u, cut)

        # every kernel sweep, a member's re-check included, runs in the
        # weights module
        monkeypatch.setattr(weights, "_influence", influence)
        assert try_extend(G, state, v, layout) is None
        assert sweeps == [(x, 3) for x in swept]
        assert not ei_holds(G, grown)

    def test_member_checks_sweep_a_frozenset(self, monkeypatch):
        """A state holds its members as a tuple, but every member check
        sweeps over a frozenset, as ``in`` on a tuple would make each
        sweep slow on a large graph."""
        kinds = []

        def check(G, members, x):
            kinds.append(type(members))
            return _member_check(G, members, x)

        monkeypatch.setattr(solvers, "_member_check", check)
        graphs, cyclic = identity_graphs()
        for G in graphs + cyclic:
            alpha_e_exact(G)
        assert kinds and set(kinds) == {frozenset}


@st.composite
def cyclic_graphs(draw):
    """Random subcubic graphs with at least one cycle, on 4..24 vertices."""
    n = draw(st.integers(4, 24))
    try:
        G = random_subcubic_graph(n, draw(st.integers(1, 4)), draw(st.integers(0, 10**6)))
    except ValueError:
        assume(False)
    assert not is_tree(G)
    return G


def exact_weight(G, members, x):
    """The member x's exact weight from the other members, over 2 ** G.n,
    from ``kernel_reference``."""
    return kernel_reference(G, frozenset(members) - {x}, x)[0]


def checked(G, members, x):
    """The member check's value for the member x, a pair (num, exp) for
    num / 2 ** exp: what a passing x stores, rounded up onto the lane
    scale. It is asserted to be at least x's exact weight."""
    num, exp = _member_check(G, frozenset(members), x)[1:]
    assert num << G.n >= exact_weight(G, members, x) << exp, (list(G.edges()), sorted(members), x)
    return num, exp


def plain_term(G, d):
    """The plain term 2 ** (1 - d) of a row's distance byte d, rounded up
    onto the lane scale: one unit for a 255, on every graph, as it stands
    for an unreachable vertex or a distance of 255 or more."""
    return on_lanes((2 << G.n) >> d, G.n) if d < 255 else 1


def plain_sum(G, row, members):
    """The plain-distance terms read off ``row`` summed over ``members``,
    each rounded up onto the lane scale."""
    return sum(plain_term(G, row[x]) for x in members)


@st.composite
def graphs_with_a_spread_set(draw):
    """A random subcubic graph on 4..24 vertices with 1..n/2 extra edges,
    and a random set with no adjacent pair, under which a near member's
    plain distance is its blocked one (the dead mask's near floors)."""
    n = draw(st.integers(4, 24))
    try:
        G = random_subcubic_graph(n, draw(st.integers(1, n // 2)), draw(st.integers(0, 10**6)))
    except ValueError:
        assume(False)
    S = set()
    for v in draw(st.permutations(range(n))):
        if S.isdisjoint(G.adj[v]) and draw(st.booleans()):
            S.add(v)
    return G, frozenset(S)


def spread_points(G, S):
    """The vertices with no member neighbour: the members, and every
    candidate that no member neighbour already rules out."""
    return [x for x in range(G.n) if S.isdisjoint(G.adj[x])]


def relaxation_sums(G, combo):
    """Every vertex's plain sum from ``combo`` on the lane scale, read off
    the sum of the picks' term rows, as ``gamma_e_exact`` sums a prefix of
    picks; a pick's own lane holds the other picks' terms only."""
    layout = solvers._lanes(G)
    total = sum(map(layout.terms, combo))
    return [total >> layout.w * x & (1 << layout.w) - 1 for x in range(G.n)]


def rounded_sums(G, combo):
    """The same sums from ``bfs_distances``: each pick's term on every
    other vertex, its distance capped at 255, rounded up onto the lane
    scale."""
    two = 2 << solvers._LANE_BITS
    dists = [bfs_distances(G, v) for v in combo]
    return [sum(max(two >> min(d[x], 255), 1) for d in dists if d[x]) for x in range(G.n)]


class TestInfluenceBounds:
    """The bounds the branch and bound carries, and the facts about blocked
    distances they rest on, on graphs that are not trees."""

    @given(cyclic_graphs(), st.data())
    def test_carried_bounds_dominate_exact_weights(self, G, data):
        layout, state, lanes = start(G)
        rows = layout.rows
        one = 1 << solvers._LANE_BITS
        members = frozenset()
        for v in data.draw(st.permutations(range(G.n))):
            step = try_extend(G, state, v, layout)
            assert (step is not None) == ei_holds(G, members | {v}), (list(G.edges()), sorted(members), v)
            if step is None or not data.draw(st.booleans()):
                continue
            assert step[0] == (*state[0], v)
            plain = plain_sum(G, rows(v), members)
            members, state = frozenset(step[0]), step
            bounds = lanes(state)
            assert bounds[v] == (plain if plain < one else on_lanes(*checked(G, members, v)))
            for x in members:
                exact = on_lanes(exact_weight(G, members, x), G.n)
                assert bounds[x] >= exact, (list(G.edges()), sorted(members), x)
                # below 1, or a checked value below 1 rounded up to 1
                assert bounds[x] < one or bounds[x] == on_lanes(*checked(G, members, x))

    @given(cyclic_graphs(), st.data())
    def test_every_subset_of_an_independent_set_is_independent(self, G, data):
        S = set()
        for v in data.draw(st.permutations(range(G.n))):
            if ei_holds(G, S | {v}):
                S.add(v)
        sub = data.draw(st.sets(st.sampled_from(sorted(S))))
        assert ei_holds(G, sub), (list(G.edges()), sorted(S), sorted(sub))
        for v in S:
            assert ei_holds(G, S - {v})

    @given(cyclic_graphs(), st.data())
    def test_kernel_is_at_most_the_plain_distance_sum(self, G, data):
        u = data.draw(st.integers(0, G.n - 1))
        S = frozenset(data.draw(st.sets(st.integers(0, G.n - 1))))
        num, exp = _influence(G, S, u)
        plain = sum(1 << (G.n + 1 - d) for v, d in enumerate(bfs_distances(G, u)) if v in S and d < G.n)
        assert num << G.n <= plain << exp

    @given(graphs_with_a_spread_set())
    def test_near_members_are_at_their_plain_distance(self, case):
        """A member at plain distance 3 or less from x is at the same
        blocked distance: every inner vertex of such a path is next to x or
        the member, so none is a member."""
        G, S = case
        for x in spread_points(G, S):
            row = plain_row(G, x)
            for y in S:
                if 0 < row[y] <= 3:
                    assert blocked_distance(G, S, x, y) == row[y], (list(G.edges()), sorted(S), x, y)

    @given(cyclic_graphs(), st.data())
    def test_relaxation_reject_is_sound(self, G, data):
        """The lane sums the domination search reads are the rounded-up
        plain sums, and a vertex outside the combination whose sum stays
        below 1 is left undominated."""
        combo = sorted(data.draw(st.sets(st.integers(0, G.n - 1), min_size=1)))
        one = 1 << solvers._LANE_BITS
        total = relaxation_sums(G, combo)
        assert total == rounded_sums(G, combo), (list(G.edges()), combo)
        for x, low in enumerate(total):
            if low < one and x not in combo:
                num, exp = _influence(G, frozenset(combo), x)
                assert num < 1 << exp
                assert not ed_holds(G, combo)

    def test_capped_scale_sums_are_exact(self):
        # past 255 every row distance is capped at 255, whose term is one
        # unit on the lane scale, so each lane sum still equals the sum of
        # the capped terms, each rounded up
        G = gen_path(300)
        combo = [0, 40, 150, 299]
        total = relaxation_sums(G, combo)
        assert total == rounded_sums(G, combo)
        # picks 0, 40 and 150 are all too far for a term above one unit
        assert total[299] == 3


class TestOneDecisionPerHotMember:
    @given(cyclic_graphs(), st.data())
    def test_hot_members_are_decided_in_id_order(self, G, data):
        """Every try_extend call runs one member check for each hot member,
        in id order, up to the first that fails, and no other kernel
        sweep. It returns None exactly when a check fails; otherwise each
        checked member's lane holds its check's value rounded up onto the
        lane scale, and every other lane its grown lane. Each accepted
        vertex joins, so the set grows to a maximal one and the later calls
        meet the hot members of a large set."""
        layout, state, lanes = start(G)
        w, one = layout.w, layout.one
        for v in data.draw(st.permutations(range(G.n))):
            checks, sweeps = [], []

            def influence(G, members, u, cut=0):
                sweeps.append(u)
                return _influence(G, members, u, cut)

            def check(G, members, x):
                result = _member_check(G, members, x)
                checks.append((x, *result))
                return result

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(weights, "_influence", influence)
                patch.setattr(solvers, "_member_check", check)
                step = try_extend(G, state, v, layout)
            where = (list(G.edges()), sorted(state[0]), v)
            grown = state[1] + layout.terms(v)
            hot = [x for x in sorted({*state[0], v}) if grown >> w * x & (1 << w) - 1 >= one]
            assert [x for x, *_ in checks] == hot[: len(checks)], where
            assert sweeps == [x for x, *_ in checks], where
            verdicts = [good for _, good, *_ in checks]
            assert (verdicts == [True] * len(checks)) if step else (verdicts[-1:] == [False]), where
            assert all(verdicts[:-1]), where
            assert (step is not None) == ei_holds(G, {*state[0], v}), where
            if step is None:
                continue
            assert step[0] == (*state[0], v) and len(checks) == len(hot), where
            values = {x: on_lanes(num, exp) for x, _, num, exp in checks}
            for x in step[0]:
                want = values.get(x, grown >> w * x & (1 << w) - 1)
                assert lanes(step, x) == want, (*where, x)
            state = step


def far_member_tree():
    """A subcubic tree on 330 vertices, a set of members and a vertex v,
    0, whose three arms hold members at distance 2, 3 and 4. Members
    behind those, out of v's reach, lift v's plain sum to exactly 1 plus
    the term of a member 301 hops down a path off the third arm; v's
    weight is 7/8 plus that member's 2 ** -300."""
    edges = []

    def path(start, length):
        # a path of new vertices hanging off start: each new vertex's id is
        # the count of edges so far
        first = len(edges) + 1
        edges.extend((u - 1 if u > first else start, u) for u in range(first, first + length))
        return list(range(first, first + length))

    a, b, c = path(0, 6), path(0, 7), path(0, 8)
    members = [a[1], b[2], c[3], a[5], path(a[3], 2)[1], path(a[4], 2)[1]]
    members += [b[6], path(b[4], 2)[1], c[7], path(c[5], 2)[1], path(c[0], 300)[-1]]
    return Graph(len(edges) + 1, edges), members, 0


@st.composite
def extension_graphs(draw):
    """A graph with a cycle, a tree, or a disconnected graph (two trees
    and an isolated vertex), on at most 29 vertices."""
    n = draw(st.integers(1, 20))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["cycle", "tree", "disconnected"]))
    if kind == "cycle":
        try:
            return random_subcubic_graph(max(n, 4), draw(st.integers(1, 4)), seed)
        except ValueError:
            assume(False)
    if kind == "tree":
        return random_subcubic_tree(n, seed)
    A, B = random_subcubic_tree(n, seed), random_subcubic_tree(draw(st.integers(1, 8)), seed + 1)
    return Graph(A.n + B.n + 1, list(A.edges()) + [(a + A.n, b + A.n) for a, b in B.edges()])


class TestPlainRowExtension:
    """try_extend with plain-distance rows: v is accepted with its plain sum
    as its bound, and takes a member check only when that sum reaches 1."""

    @given(extension_graphs(), st.data())
    def test_row_based_extension_matches_ei_holds(self, G, data):
        layout, state, lanes = start(G)
        rows = layout.rows
        one = 1 << solvers._LANE_BITS
        members = frozenset()
        for v in data.draw(st.permutations(range(G.n))):
            step = try_extend(G, state, v, layout)
            where = (list(G.edges()), sorted(members), v)
            assert (step is not None) == ei_holds(G, members | {v}), where
            if step is None:
                continue
            grown = members | {v}
            assert step[0] == (*state[0], v)
            bounds, lanes_now = lanes(state), lanes(step)
            for x in grown:
                exact = on_lanes(exact_weight(G, grown, x), G.n)
                # below 1, or a checked value below 1 rounded up to 1
                assert exact <= lanes_now[x], where + (x,)
                assert lanes_now[x] < one or lanes_now[x] == on_lanes(*checked(G, grown, x)), where + (x,)
            row = rows(v)
            plain = plain_sum(G, row, members)
            if plain < one:
                assert lanes_now[v] == plain
                for x in members:
                    carried = bounds[x] + plain_term(G, row[x])
                    want = carried if carried < one else on_lanes(*checked(G, grown, x))
                    assert lanes_now[x] == want, where + (x,)
            else:
                assert lanes_now[v] == on_lanes(*checked(G, grown, v))
            for x in members:
                if row[x] == 255 and bounds[x] + 1 < one:
                    # unreachable from v, on these graphs: its term is one
                    # unit, and it takes no re-check
                    assert lanes_now[x] == bounds[x] + 1, where + (x,)
            if data.draw(st.booleans()):
                members, state = grown, step

    def test_capped_term_still_bounds_the_weight(self):
        # on a 300-vertex path the far end's distance 299 is stored as 255,
        # so it adds 2 ** (1 - 255), not its exact 2 ** (1 - 299)
        G = gen_path(300)
        two = 2 << G.n
        layout, state, lanes = start(G)
        rows = layout.rows
        assert rows(299)[0] == 255
        for x, d in enumerate(bfs_distances(G, 0)):
            assert two >> rows(0)[x] >= two >> d
        grown = try_extend(G, try_extend(G, state, 0, layout), 299, layout)
        # 2 ** (1 - 255) rounded up onto the lane scale
        assert lanes(grown) == {0: plain_term(G, 255), 299: plain_term(G, 255)} == {0: 1, 299: 1}
        assert exact_weight(G, grown[0], 0) == two >> 299
        assert (two >> 299) << solvers._LANE_BITS < lanes(grown, 0) << G.n

    def test_blocked_distance_past_255_takes_the_capped_term(self):
        """v's plain sum reaches 1, so v takes its member check. v reaches
        a member at a blocked distance past 255, whose plain term, from a
        row's 255, is one unit on the lane scale; the check's cut stops
        its sweep long before that member, with an upper bound below 1
        that v keeps. v joins, as ``ei_holds`` says, directly and as the
        one candidate of a search."""
        G, members, v = far_member_tree()
        layout, state, lanes = start(G)
        for u in members:
            state = try_extend(G, state, u, layout)
            assert state is not None, u
        S = frozenset(state[0])
        assert lanes(state, v) >= 1 << solvers._LANE_BITS
        num, reached = kernel_reference(G, S, v)
        assert num == (7 << G.n - 3) + ((2 << G.n) >> 301)
        assert max(d for _, d in reached) == 301
        grown = try_extend(G, state, v, layout)
        assert ei_holds(G, S | {v}) and grown is not None
        assert grown[0] == (*state[0], v)
        assert lanes(grown, v) == on_lanes(*checked(G, grown[0], v))
        for x in grown[0]:
            assert lanes(grown, x) >= on_lanes(exact_weight(G, grown[0], x), G.n), x
        rest = set(range(G.n)) - S - {v}
        assert alpha_e_exact(G, required=S, excluded=rest).witness == tuple(sorted(S | {v}))


def rule_marks(G, S):
    """The vertices the dead mask's three rules mark for the set S, from
    BFS distances alone: a vertex u outside S whose near floor reaches 1,
    or which lies at distance 2 or 3 of a member whose near floor leaves
    no room for u's term. A near floor is the plain terms from the members
    at distance 3 or less, in quarters."""
    dist = {x: bfs_distances(G, x) for x in S}
    quarter = {1: 4, 2: 2, 3: 1}

    def floor(u):
        return sum(quarter.get(dist[x][u], 0) for x in S if x != u)

    return {
        u
        for u in range(G.n)
        if u not in S
        and (floor(u) >= 4 or any(dist[x][u] in (2, 3) and quarter[dist[x][u]] + floor(x) >= 4 for x in S))
    }


@st.composite
def dense_graphs(draw):
    """A random graph on at most 12 vertices with no degree cap, so that a
    vertex's near floor can pass what one byte lane holds."""
    n = draw(st.integers(1, 12))
    p = draw(st.sampled_from([0.3, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p])


class TestDeadMask:
    """``alpha_e_exact`` carries a mask of dead candidates, each a reject
    that holds in every superset, and runs no ``try_extend`` for them."""

    @given(st.one_of(extension_graphs(), dense_graphs()), st.data())
    def test_marked_candidates_are_rejects(self, G, data):
        """After each join the marked vertices outside the set are those of
        the rules, from BFS distances, each lane at its vertex id; each one
        is rejected by ``try_extend`` and fails ``ei_holds``, and a mark is
        lifted only when its vertex joins."""
        layout, state, _ = start(G)
        w, join = solvers._dead_marks(G, layout.rows)
        lane = (1 << w) - 1
        q = dead = 0
        marked = set()
        for v in data.draw(st.permutations(range(G.n))):
            step = try_extend(G, state, v, layout)
            if step is None or not data.draw(st.booleans()):
                continue
            q, dead = join(v, state[0], q, dead)
            state = step
            S = frozenset(state[0])
            now = {u for u in range(G.n) if dead >> w * u & lane and u not in S}
            where = (list(G.edges()), sorted(S))
            assert now == rule_marks(G, S), where
            assert marked - now <= S, where
            for u in now:
                assert try_extend(G, state, u, layout) is None, where + (u,)
                assert not ei_holds(G, S | {u}), where + (u,)
            marked = now

    def test_member_neighbours_take_no_try_extend(self, monkeypatch):
        """On the path of 30 no call tests a member's neighbour, and the
        search with nothing marked, which calls ``try_extend`` at every
        inner node, gives the same optimum, witness and node count. On a
        path small enough for the oracle the search matches
        ``alpha_e_bruteforce``."""
        calls = [0]

        def extend(G, state, v, layout):
            assert frozenset(state[0]).isdisjoint(G.adj[v]), (sorted(state[0]), v)
            calls[0] += 1
            return try_extend(G, state, v, layout)

        monkeypatch.setattr(solvers, "try_extend", extend)
        G = gen_path(30)
        marked = alpha_e_exact(G)
        skipping = calls[0]
        small = alpha_e_exact(gen_path(12))
        oracle = alpha_e_bruteforce(gen_path(12))
        assert (small.optimum, small.witness) == (oracle.optimum, oracle.witness)
        monkeypatch.setattr(solvers, "try_extend", try_extend)
        monkeypatch.setattr(solvers, "_dead_marks", lambda *args: (8, lambda *state: (0, 0)))
        assert alpha_e_exact(G) == marked
        assert marked.optimum == 12 and marked.status == "optimal"
        assert 0 < skipping < marked.nodes_explored // 2

    def test_wide_lanes_on_a_dense_graph(self):
        """Degree 11 needs two bytes a lane: near floors of up to 1030
        quarters must not carry into the next lane."""
        G = Graph(12, [(a, b) for a in range(12) for b in range(a + 1, 12) if (a * b + a + b) % 5])
        w, _ = solvers._dead_marks(G, row_map(G))
        assert w == 16
        oracle = alpha_e_bruteforce(G)
        res = alpha_e_exact(G)
        assert (res.optimum, res.witness) == (oracle.optimum, oracle.witness)


def identity_graphs():
    """The graphs of ``TestSolverByteIdentity``: every subcubic tree shape
    up to order 10 and 40 random graphs, then 40 with many cycles."""
    graphs = [T for n in range(1, 11) for T in free_trees(n, max_degree=3)]
    graphs += [random_subcubic_graph(12 + i % 9, (12 + i % 9) // 8, 7300 + i) for i in range(40)]
    return graphs, [random_subcubic_graph(12 + i % 9, (12 + i % 9) // 2, 9100 + i) for i in range(40)]


class TestLaneScale:
    """The search's bounds sit on the fixed scale 2 ** _LANE_BITS, each
    rounded up. A scale of a few bits rounds almost every term and every
    weight, and must change no verdict, only add sweeps and re-checks."""

    @pytest.mark.parametrize("bits", [2, 3])
    def test_coarse_scale_keeps_optima_witnesses_and_nodes(self, monkeypatch, bits):
        graphs, cyclic = identity_graphs()
        graphs += cyclic
        # a required pair from each optimum joins at the root
        cases = [(G, ()) for G in graphs]
        cases += [(G, alpha_e_exact(G).witness[:2]) for G in cyclic]
        want = [alpha_e_exact(G, required).to_text() for G, required in cases]
        monkeypatch.setattr(solvers, "_LANE_BITS", bits)
        for (G, required), text in zip(cases, want):
            assert alpha_e_exact(G, required).to_text() == text, (list(G.edges()), required)
        for G in graphs:
            if G.n <= 12:
                res, oracle = alpha_e_exact(G), alpha_e_bruteforce(G)
                assert (res.optimum, res.witness) == (oracle.optimum, oracle.witness), list(G.edges())

    @pytest.mark.parametrize("budget", [0, 100])
    def test_term_rows_past_their_budget_are_rebuilt(self, monkeypatch, budget):
        """With room for no term row, or for one or two on these graphs,
        the search keeps at most that many and rebuilds the others when it
        reads them again, with the same optima, witnesses and nodes. The
        plain rows are kept under the same budget, at most a few of them.
        The domination search reads the same rows, with the same optima,
        witnesses and combinations tried."""
        graphs, cyclic = identity_graphs()
        cases = graphs[-20:] + cyclic[:20]
        want = [(alpha_e_exact(G).to_text(), gamma_e_exact(G).to_text()) for G in cases]
        monkeypatch.setattr(solvers, "_TERM_ROW_BYTES", budget)
        for G in cases:
            layout = solvers._lanes(G)
            assert layout.terms.cache_info().maxsize == budget // (layout.w // 8 * G.n) < 3
            assert layout.rows.cache_info().maxsize == budget // G.n < 9
        assert [(alpha_e_exact(G).to_text(), gamma_e_exact(G).to_text()) for G in cases] == want

    @given(extension_graphs(), st.sampled_from([None, 2, 3]), st.data())
    def test_lanes_bound_exact_weights_and_plain_sums(self, G, bits, data):
        """After each join, and at the root of a required set, every
        member's lane is at least its exact weight and every other
        vertex's at least its exact plain sum from the members, on the
        default scale and on coarse ones."""
        with pytest.MonkeyPatch.context() as patch:
            if bits is not None:
                patch.setattr(solvers, "_LANE_BITS", bits)
            layout, state, lanes = start(G)

            def assert_bounds(state):
                S = state[0]
                for x in range(G.n):
                    if x in S:
                        want = exact_weight(G, S, x)
                    else:
                        want = sum((2 << G.n) >> d for y, d in enumerate(bfs_distances(G, x)) if y in S and d != INF)
                    assert lanes(state, x) << G.n >= want << solvers._LANE_BITS, (list(G.edges()), sorted(S), x)

            for v in data.draw(st.permutations(range(G.n))):
                step = try_extend(G, state, v, layout)
                if step is not None and data.draw(st.booleans()):
                    state = step
                    assert_bounds(state)
            assert_bounds(joined(G, layout, state[0]))


class TestSolverByteIdentity:
    """The carried bounds and the relaxation reject make each node cheaper
    without changing which nodes are visited: optima, node counts and
    witnesses must stay those of the solvers without them. The constant was
    recorded with the solvers that re-checked every reached member and ran
    ``ed_holds`` on every combination."""

    def test_trees_and_random_graphs(self):
        graphs, _ = identity_graphs()
        h = hashlib.sha256()
        for G in graphs:
            h.update(alpha_e_exact(G).to_text().encode())
            h.update(gamma_e_exact(G).to_text().encode())
        assert h.hexdigest() == "c0d479a609bfc6dafdf0de0515fedaafc1912e67cb61a577dd3976c3b70a49cc"

    def test_random_graphs_with_many_cycles(self):
        """n // 2 extra edges, many more cycles than the graphs above.
        Recorded with the solvers that swept before every reject."""
        _, graphs = identity_graphs()
        h = hashlib.sha256()
        for G in graphs:
            h.update(alpha_e_exact(G).to_text().encode())
            h.update(gamma_e_exact(G).to_text().encode())
        assert h.hexdigest() == "8ca66a99c3027a07e4e8230ac0fab57e41cc5a7bfa608156bc13446e777b1172"


def reference_gamma(G):
    """``(optimum, witness, nodes)`` of the plain enumeration: per
    component, every combination by size and then lexicographically, each
    counted and checked with ``ed_holds`` until one dominates."""
    nodes = 0
    witness = []
    for comp in connected_components(G):
        sub, old_ids = induced_subgraph(G, comp)
        for combo in chain.from_iterable(combinations(range(sub.n), s) for s in range(1, sub.n + 1)):
            nodes += 1
            if ed_holds(sub, combo):
                break
        witness += [old_ids[v] for v in combo]
    return len(witness), tuple(sorted(witness)), nodes


@st.composite
def gamma_cases(draw):
    """A random subcubic graph on at most 12 vertices, in up to three
    parts, each a tree (an isolated vertex at size 1) or a graph with a
    cycle, with the vertex ids shuffled so that a component's ids need not
    be contiguous."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if n == 12:
            break
        size, seed = draw(st.integers(1, 12 - n)), draw(st.integers(0, 10**6))
        if size >= 4 and draw(st.booleans()):
            try:
                part = random_subcubic_graph(size, draw(st.integers(1, 3)), seed)
            except ValueError:
                assume(False)
        else:
            part = random_subcubic_tree(size, seed)
        edges += [(a + n, b + n) for a, b in part.edges()]
        n += size
    order = draw(st.permutations(range(n)))
    return Graph(n, [(order[a], order[b]) for a, b in edges])


class TestGamma:
    def test_k1(self):
        res = gamma_e_exact(Graph(1))
        assert res.optimum == 1 and res.witness == (0,)

    def test_p3_center(self):
        res = gamma_e_exact(gen_path(3))
        assert res.optimum == 1 and res.witness == (1,)

    def test_p7_regression(self):
        res = gamma_e_exact(gen_path(7))
        assert res.optimum == 2 and res.witness == (1, 5)

    def test_witness_reverifies(self, trees_by_order):
        for T in trees_by_order[7]:
            res = gamma_e_exact(T)
            assert is_exponentially_dominating(T, res.witness).ok

    def test_disconnected_sums_components(self):
        G = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])  # two 3-paths
        res = gamma_e_exact(G)
        assert res.optimum == 2
        assert set(res.witness) == {1, 4}

    def test_supersets_need_not_dominate(self):
        # the domination search cannot prune by monotonicity: growing a
        # dominating set can sever routes and uncover a vertex
        G = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6)])
        assert ed_holds(G, {2, 3, 4, 5})  # vertex 6 receives exactly 4 * 1/4
        assert not ed_holds(G, {0, 2, 3, 4, 5})  # 0 now shields 6 from the leaves

    @given(gamma_cases())
    def test_matches_the_reference_enumeration(self, G):
        res = gamma_e_exact(G)
        assert (res.optimum, res.witness, res.nodes_explored) == reference_gamma(G), list(G.edges())

    def test_connected_graph_is_not_copied(self, monkeypatch):
        # one component covering every vertex is searched on G itself
        def no_copy(*args):
            raise AssertionError("induced_subgraph called on a connected graph")

        monkeypatch.setattr(solvers, "induced_subgraph", no_copy)
        G = random_subcubic_graph(14, 2, 3)
        assert is_connected(G)
        res = gamma_e_exact(G)
        assert (res.optimum, res.witness, res.nodes_explored) == reference_gamma(G)

    def test_timeout_returns_greedy_bound(self):
        # the timeout bound is the trivial one: the whole vertex set
        G = random_subcubic_graph(16, 2, 9)
        res = gamma_e_exact(G, time_budget=0.0)
        assert res.status == "timeout"
        assert res.witness == tuple(range(G.n))
        assert ed_holds(G, res.witness)

    def test_timeout_reverifies_greedy_witness(self, monkeypatch):
        # the timeout witness goes through the full verifier too
        G = random_subcubic_graph(16, 2, 9)
        checked = []

        def failing_verifier(G, S):
            checked.append(S)
            return SimpleNamespace(ok=False)

        monkeypatch.setattr(solvers, "is_exponentially_dominating", failing_verifier)
        with pytest.raises(RuntimeError, match="re-verification"):
            gamma_e_exact(G, time_budget=0.0)
        assert checked == [tuple(range(G.n))]

    def test_timeout_fallback_keeps_the_budget(self):
        # an unbudgeted greedy fallback used to take several seconds here
        T = random_subcubic_tree(120, seed=3)
        start = time.monotonic()
        res = gamma_e_exact(T, time_budget=1.0)
        assert time.monotonic() - start < 2.5
        assert res.status == "timeout"
        assert ed_holds(T, res.witness)

    def test_long_path_keeps_the_budget(self):
        # the distance rows are built on first use, under the deadline check
        start = time.monotonic()
        res = gamma_e_exact(gen_path(3000), time_budget=0.5)
        assert time.monotonic() - start < 1.5
        assert res.status == "timeout"

    @pytest.mark.parametrize("budget", [float("nan"), -1.0, -0.001])
    def test_nan_or_negative_budget_is_rejected_before_any_work(self, budget):
        # a NaN deadline never compares true, so gamma_e_exact on
        # gen_path(3000) used to run on with no budget
        for solve in (gamma_e_exact, alpha_e_exact):
            with pytest.raises(ParameterError, match="time budget must be a nonnegative number"):
                solve(gen_path(8), time_budget=budget)

    def test_zero_and_infinite_budgets_are_allowed(self):
        # a zero budget stops at the first node, with the empty incumbent
        G = gen_path(5)
        assert alpha_e_exact(G, time_budget=0.0) == SearchResult(0, (), 1, "timeout")
        assert alpha_e_exact(G, time_budget=float("inf")).optimum == 2
        assert gamma_e_exact(G, time_budget=float("inf")).status == "optimal"


class TestBudgetChecks:
    """Both searches read the clock once for the deadline and then once per
    node or combination, and never without a budget."""

    @pytest.mark.parametrize("solve", [alpha_e_exact, gamma_e_exact])
    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_clock_is_read_on_every_node(self, monkeypatch, solve, k):
        # the clock jumps past the deadline on its (k + 1)-th read, the
        # one at node k
        reads = []

        def clock():
            reads.append(len(reads))
            return 0.0 if len(reads) <= k else 10.0

        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=clock))
        res = solve(gen_path(30), time_budget=1.0)
        assert (res.status, res.nodes_explored, len(reads)) == ("timeout", k, k + 1)

    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_timeout_witness_is_the_stopped_nodes_members(self, monkeypatch, k):
        # include-first, the search reaches no leaf of the 30-path before
        # node 31, so a stop at node k returns the members of that node
        reads = []

        def clock():
            reads.append(len(reads))
            return 0.0 if len(reads) <= k else 10.0

        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=clock))
        G = gen_path(30)
        res = alpha_e_exact(G, time_budget=1.0)
        assert (res.status, res.nodes_explored) == ("timeout", k)
        assert res.optimum == len(res.witness) > 0
        assert ei_holds(G, res.witness)

    def test_stop_inside_a_run_of_dead_candidates(self, monkeypatch):
        """The nodes of a run of dead candidates are walked within one pop
        of the stack, and a stop can land on any of them: a stop at node k
        inside a run has read the clock k + 1 times, and returns that
        node's members. The nodes before the 30-path's first leaf come from
        a plain include-first search that tests each include with
        ``ei_holds``; a node is dead when ``rule_marks`` marks its
        candidate, and inside a run when the node before it is its parent
        and dead too."""
        G = gen_path(30)
        cands = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
        nodes, stack = [], [(0, ())]
        while len(nodes) < G.n:
            i, S = stack.pop()
            nodes.append((i, S))
            stack.append((i + 1, S))
            if ei_holds(G, (*S, cands[i])):
                stack.append((i + 1, (*S, cands[i])))
        dead = [cands[i] in rule_marks(G, set(S)) for i, S in nodes]
        inside = [
            k
            for k in range(2, len(nodes) + 1)
            if dead[k - 1] and dead[k - 2] and nodes[k - 2] == (nodes[k - 1][0] - 1, nodes[k - 1][1])
        ]
        assert len(inside) >= 3
        for k in inside:
            reads = []

            def clock():
                reads.append(len(reads))
                return 0.0 if len(reads) <= k else 10.0

            monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=clock))
            res = alpha_e_exact(G, time_budget=1.0)
            members = nodes[k - 1][1]
            assert (res.status, res.nodes_explored, len(reads)) == ("timeout", k, k + 1)
            assert members and res.witness == tuple(sorted(members)), k
            assert ei_holds(G, res.witness)

    @pytest.mark.parametrize("k", [1, 2, 30])
    def test_required_joins_stop_at_the_deadline(self, monkeypatch, k):
        """Under a budget each required member's join first reads the
        clock, and a stop there runs no further join: a stop at the k-th
        join has run k - 1 joins and returns the required set with one
        node, as a stop at the first node of the search does."""
        T = random_subcubic_tree(200, 5)
        ends = [v for v in range(T.n) if T.degree(v) == 1]
        assert len(ends) > 30
        joins, reads = [], []

        def extend(G, state, v, layout):
            joins.append(v)
            return try_extend(G, state, v, layout)

        def clock():
            reads.append(len(reads))
            return 0.0 if len(reads) <= k else 10.0

        monkeypatch.setattr(solvers, "try_extend", extend)
        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=clock))
        res = alpha_e_exact(T, required=ends, time_budget=1.0)
        assert res == SearchResult(len(ends), tuple(ends), 1, "timeout")
        assert (len(reads), joins) == (k + 1, ends[: k - 1])

    def test_stopped_joins_name_the_same_infeasible_vertex(self, monkeypatch):
        """A required set that is not independent raises the error of an
        unbudgeted solve wherever the deadline falls: the set is decided
        before any join, so the budget's one clock read is the only one,
        and no member joins."""
        G = gen_path(8)
        required = (0, 3, 4, 7)
        with pytest.raises(InfeasibleError) as unbudgeted:
            alpha_e_exact(G, required)
        assert str(unbudgeted.value).endswith("at vertex 3")
        joins = []
        monkeypatch.setattr(solvers, "try_extend", lambda *args: joins.append(args))
        for k in range(1, len(required) + 2):
            reads = []

            def clock():
                reads.append(len(reads))
                return 0.0 if len(reads) <= k else 10.0

            monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=clock))
            with pytest.raises(InfeasibleError) as stopped:
                alpha_e_exact(G, required, time_budget=1.0)
            assert str(stopped.value) == str(unbudgeted.value), k
            assert len(reads) == 1, k
            assert joins == [], k

    @pytest.mark.parametrize("solve", [alpha_e_exact, gamma_e_exact])
    def test_no_budget_never_reads_the_clock(self, monkeypatch, solve):
        def clock():
            raise AssertionError("clock read with no budget")

        monkeypatch.setattr(solvers, "time", SimpleNamespace(monotonic=clock))
        assert solve(random_subcubic_graph(12, 2, 5)).status == "optimal"


class TestMaximalNotDominating:
    def test_p5_witness(self):
        S = find_maximal_ei_not_ed(gen_path(5))
        assert S == {0, 2}

    def test_contract(self, trees_by_order):
        found = 0
        for n in range(2, 9):
            for T in trees_by_order[n]:
                S = find_maximal_ei_not_ed(T)
                if S is None:
                    continue
                found += 1
                assert ei_holds(T, S)
                assert not ed_holds(T, S)
                for v in range(T.n):
                    if v not in S:
                        assert not ei_holds(T, S | {v})
        assert found >= 1

    def test_p3_center_not_a_witness(self):
        # {1} on the 3-path is independent and dominating, so the search
        # must return something else or nothing of size 1 containing it
        S = find_maximal_ei_not_ed(gen_path(3))
        assert S != {1}

    def test_guard(self):
        with pytest.raises(ValueError):
            find_maximal_ei_not_ed(gen_cycle(17))


class TestSearchResult:
    def test_text_block(self):
        res = SearchResult(2, (0, 4), 17, "optimal")
        text = res.to_text()
        assert "optimum 2" in text
        assert "witness 0 4" in text
        assert "status optimal" in text
