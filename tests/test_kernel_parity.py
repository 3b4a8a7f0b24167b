"""Both kernel backends, run on the same operations, build the same nodes.

The C kernel comes from the `kernel_c` fixture (conftest.py), so these
tests run whether or not the package was built in place, and whichever
backend the rest of the suite selected.
"""

import itertools
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basinscope import cli
from basinscope.attractors import attractors
from basinscope.basins import basin_triples
from basinscope.dd import (
    OP_XOR, ExprStyle, StateSet, _kernel_py, _select, to_expression)
from basinscope.diagrams import walk_keys
from basinscope.model import Var, make_and, parse_bnet
from basinscope.stg import UpdateMode, build
from conftest import VAN_HAM
from oracle import random_network, with_van_ham_pair

OPS = ("mk", "apply", "negate", "exists", "shift", "and_exists")
STEPS = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 3),
              st.integers(0, 1 << 20), st.integers(0, 1 << 20),
              st.integers(0, 1 << 20)),
    max_size=120)


def run_ops(kernel, steps):
    """Apply the steps to the kernel; operands index the results so far,
    which start with one node per level.  Returns every result (or error)
    and the node table."""
    pool = [0, 1]
    trace = []
    for level in range(kernel.num_levels):
        try:
            pool.append(kernel.mk(level, 0, 1))
        except MemoryError as exc:
            trace.append((type(exc), str(exc)))
    for name, small, a, b, c in steps:
        f, g = pool[a % len(pool)], pool[b % len(pool)]
        try:
            if name == "mk":
                # any level above both children keeps the diagram ordered
                top = min(kernel.level_of(f), kernel.level_of(g))
                if top == 0:
                    continue
                res = kernel.mk(c % top, f, g)
            elif name == "apply":
                res = kernel.apply(small, f, g)
            elif name == "negate":
                res = kernel.apply(OP_XOR, f, 1)
            elif name == "exists":
                res = kernel.and_exists(small % 2, f, 1)
            elif name == "shift":
                res = kernel.shift(1 if small % 2 else -1, f)
            else:
                res = kernel.and_exists(small % 2, f, g)
        except (ValueError, MemoryError) as exc:
            trace.append((type(exc), str(exc)))
            continue
        pool.append(res)
        trace.append(res)
    return trace, node_table(kernel)


def node_table(kernel):
    return [(kernel.level_of(i), kernel.low_of(i), kernel.high_of(i))
            for i in range(kernel.num_nodes())]


@settings(max_examples=150, deadline=None)
@given(steps=STEPS, n_vars=st.integers(1, 4),
       node_limit=st.one_of(st.none(), st.integers(2, 40)), data=st.data())
def test_random_operations_match_node_for_node(kernel_c, steps, n_vars,
                                               node_limit, data):
    order = data.draw(st.permutations(range(n_vars)))
    args = (n_vars, 1 << 24 if node_limit is None else node_limit, order)
    expected = run_ops(_kernel_py.Kernel(*args), steps)
    assert run_ops(kernel_c.Kernel(*args), steps) == expected


def exists_by_expansion(kernel, parity, f):
    """Quantify the levels of the given parity from f by Shannon expansion,
    OR-ing the cofactors of each quantified node with apply."""
    if f < 2:
        return f
    level = kernel.level_of(f)
    r0 = exists_by_expansion(kernel, parity, kernel.low_of(f))
    r1 = exists_by_expansion(kernel, parity, kernel.high_of(f))
    if level % 2 == parity:
        return kernel.apply(_kernel_py.OP_OR, r0, r1)
    return kernel.mk(level, r0, r1)


@settings(max_examples=60, deadline=None)
@given(steps=STEPS)
def test_and_exists_is_exists_of_conjunction(kernel_c, steps):
    for module in (_kernel_py, kernel_c):
        kernel = module.Kernel(3)
        trace, _ = run_ops(kernel, steps)
        refs = [0, 1] + [r for r in trace if isinstance(r, int)][-6:]
        for f in refs:
            for parity in (0, 1):
                assert kernel.and_exists(parity, f, 1) == \
                    exists_by_expansion(kernel, parity, f)
            for g in refs:
                for parity in (0, 1):
                    conj = kernel.apply(_kernel_py.OP_AND, f, g)
                    assert kernel.and_exists(parity, f, g) == \
                        kernel.and_exists(parity, conj, 1)


def test_and_exists_skips_high_branch_once_true(kernel_c):
    """At a quantified level whose low branch already yields TRUE, the high
    branch (which would build x1 & x2 here) is never computed."""
    for module in (_kernel_py, kernel_c):
        kernel = module.Kernel(4)
        x1, x2, x1p, x3p = (kernel.mk(lvl, 0, 1) for lvl in (2, 4, 3, 7))
        high = kernel.apply(module.OP_AND, x1,
                            kernel.apply(module.OP_AND, x2, x3p))
        f = kernel.mk(1, 1, high)  # x0' -> x1 & x2 & x3'
        g = kernel.mk(1, x1p, 1)   # x0' | x1'
        before = kernel.num_nodes()
        assert kernel.and_exists(1, f, g) == 1
        assert kernel.num_nodes() == before


def walks(kernel, f):
    """Primed flag of f and its state-level walks, or the errors they
    raise."""
    out = [kernel.has_primed(f)]
    for walk in (kernel.count_states, kernel.pick_min_state, kernel.states):
        try:
            out.append(walk(f))
        except ValueError as exc:
            out.append(str(exc))
    return out


@settings(max_examples=100, deadline=None)
@given(steps=STEPS, n_vars=st.integers(1, 8), data=st.data())
def test_state_walks_match(kernel_c, steps, n_vars, data):
    """The walks agree on both kernels under the same variable order, and
    list and pick states in the order of their bit strings."""
    order = data.draw(st.permutations(range(n_vars)))
    results = []
    for module in (_kernel_py, kernel_c):
        kernel = module.Kernel(n_vars, 1 << 24, order)
        run_ops(kernel, steps)
        results.append([walks(kernel, f) for f in range(kernel.num_nodes())])
    assert results[0] == results[1]
    for primed, count, pick, states in results[0]:
        if not primed:
            assert count == len(states)
            assert all(isinstance(x, int) for x in states)
            assert states == sorted(states, key=lambda x: bits(x, n_vars))
            assert pick == (states[0] if states else
                            "cannot pick a state from the empty set")


def bits(x, n):
    """The bit string of the packed state x over n variables."""
    return "".join(str(x >> i & 1) for i in range(n))


def cube(kernel, x, order):
    """Diagram of the packed state x (bit i holds variable i) in a kernel
    whose level 2p holds the variable order[p]."""
    acc = 1
    for p in reversed(range(kernel.n)):
        acc = (kernel.mk(2 * p, 0, acc) if x >> order[p] & 1
               else kernel.mk(2 * p, acc, 0))
    return acc


def eval_by_walk(kernel, f, x, order):
    """Membership of x in f by a walk over the kernel's accessors."""
    while f >= 2:
        v = order[kernel.level_of(f) // 2]
        f = kernel.high_of(f) if x >> v & 1 else kernel.low_of(f)
    return f == 1


def successors_by_image(kernel, r, x, order):
    """Packed successors of x in r through the relational product: the
    primed image of the cube of x, renamed and listed."""
    image = kernel.shift(-1, kernel.and_exists(0, r, cube(kernel, x, order)))
    return kernel.states(image)


def packed_walks(kernel, nodes):
    """contains of every node and successors of the given nodes, for every
    state and one state out of range on each side, or the errors raised."""
    out = []
    states = list(range(-1, 2 ** kernel.n + 1))
    for f in range(kernel.num_nodes()):
        for walk, x_of in ((kernel.contains, states),
                           (kernel.successors, states if f in nodes else [])):
            for x in x_of:
                try:
                    out.append(walk(f, x))
                except ValueError as exc:
                    out.append(str(exc))
    return out


@settings(max_examples=100, deadline=None)
@given(steps=STEPS, n_vars=st.integers(1, 4), data=st.data())
def test_packed_state_walks_match(kernel_c, steps, n_vars, data):
    """contains and successors give the same results and errors on both
    kernels under the same variable order; contains agrees with a walk
    over the accessors and successors with the relational product, in the
    order of the bit strings."""
    order = data.draw(st.permutations(range(n_vars)))
    results = []
    for module in (_kernel_py, kernel_c):
        kernel = module.Kernel(n_vars, 1 << 24, order)
        trace, _ = run_ops(kernel, steps)
        nodes = {0, 1, *[r for r in trace if isinstance(r, int)][-8:]}
        results.append(packed_walks(kernel, nodes))
        for f in range(kernel.num_nodes()):
            for x in range(2 ** n_vars):
                if not kernel.has_primed(f):
                    assert kernel.contains(f, x) == \
                        eval_by_walk(kernel, f, x, order)
                if f in nodes:
                    assert kernel.successors(f, x) == \
                        successors_by_image(kernel, f, x, order)
    assert results[0] == results[1]


@pytest.mark.parametrize("module", ["py", "c"])
def test_packed_state_errors(kernel_c, module):
    kernel = (_kernel_py if module == "py" else kernel_c).Kernel(3)
    f, primed = kernel.mk(2, 0, 1), kernel.mk(3, 0, 1)
    for x in (-1, 8, -(1 << 70), 1 << 70):
        for walk in (kernel.contains, kernel.successors):
            with pytest.raises(ValueError,
                               match=f"state {x} out of range for 3 variables"):
                walk(f, x)
    with pytest.raises(ValueError, match="primed"):
        kernel.contains(primed, 0)
    assert kernel.successors(primed, 0) == [2, 6, 3, 7]


def walks_on(kernel_cls, monkeypatch, net, mode, stop_of, keys, cap):
    """kernel.walks on the kernel class over the relation of net, one walk
    per key, ending in the set stop_of(ts)."""
    monkeypatch.setattr(_select, "Kernel", kernel_cls)
    ts = build(net, mode)
    stop = stop_of(ts)
    return ts.manager.kernel.walks(ts.relation, ts.space_ref,
                                   ts.backward_reach_ref(stop), stop, keys,
                                   cap)


def listed(count):
    """stop_of for the union of the first count attractors (all for
    None)."""
    def stop_of(ts):
        stop = 0
        for a in attractors(ts)[:count]:
            stop = ts.manager.or_(stop, a.states.ref)
        return stop
    return stop_of


# keys beyond the simulator's: the empty key seeds as 0, and trailing zero
# bytes are high zero words that do not count
ODD_KEYS = [b"", b"\0\0", b"\2" + bytes(8), bytes(range(1, 10))]


@pytest.mark.parametrize("mode", [UpdateMode.ASYNC, UpdateMode.SYNC])
def test_walks_match(kernel_c, monkeypatch, mode):
    """walks returns the same ends, capped count and step total on both
    kernels, on random networks, every other one with a van Ham pair, with
    complete and partial attractor lists."""
    rng = random.Random(11)
    keys = [*walk_keys(3, 200), *ODD_KEYS]
    partial_capped = 0
    for k in range(12):
        n = rng.randrange(3, 9)
        net = random_network(rng, n)
        if k % 2:
            net = with_van_ham_pair(net, *rng.sample(range(n), 2))
        for count in (None, 1):
            expected = walks_on(_kernel_py.Kernel, monkeypatch, net, mode,
                                listed(count), keys, 64 << n)
            assert walks_on(kernel_c.Kernel, monkeypatch, net, mode,
                            listed(count), keys, 64 << n) == expected
            ends, capped, _ = expected
            assert sum(ends.values()) + capped == len(keys)
            if count is None:
                assert capped == 0
            partial_capped += capped
    assert partial_capped > 0


@pytest.mark.parametrize("mode", [UpdateMode.ASYNC, UpdateMode.SYNC])
def test_walks_match_beyond_one_word(kernel_c, monkeypatch, mode):
    """35 toggle pairs have 70 variables, so a state spans two words; a
    walk ends once every pair is settled or the last pair is on."""
    pairs = 35
    net = parse_bnet("".join(f"a{j}, !b{j}\nb{j}, !a{j}\n"
                             for j in range(pairs)))

    def stop_of(ts):
        m = ts.manager
        settled = 1
        for j in range(pairs):
            settled = m.and_(settled, m.apply(OP_XOR, m.var(2 * j),
                                              m.var(2 * j + 1)))
        return m.or_(settled, m.and_(m.var(2 * pairs - 2),
                                     m.var(2 * pairs - 1)))

    keys = list(walk_keys(5, 60))
    expected = walks_on(_kernel_py.Kernel, monkeypatch, net, mode, stop_of,
                        keys, 100)
    assert walks_on(kernel_c.Kernel, monkeypatch, net, mode, stop_of, keys,
                    100) == expected
    ends, capped, steps = expected
    assert steps > 0 and any(x >> 64 for x in ends)


def test_a_walk_without_end_can_be_interrupted(manager_on):
    """A walk on a one-variable oscillator runs until its cap, 2^30 steps
    (about a minute on the C kernel); a signal stops it inside that one
    walk, on either kernel, within seconds."""
    ts = build(parse_bnet("a, !a\n"), UpdateMode.ASYNC)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0.2)
    try:
        with pytest.raises(KeyboardInterrupt):
            ts.manager.kernel.walks(ts.relation, ts.space_ref, ts.space_ref,
                                    0, list(walk_keys(0, 1)), 1 << 30)
        assert time.monotonic() - start < 10
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_walks_of_a_deep_diagram(manager_on):
    """A 1200-variable cube is deeper than Python's recursion limit."""
    n = 1200
    m = manager_on(n)
    ones = 2 ** n - 1
    cube = m.cube(ones)
    assert m.count_states(cube) == 1
    assert m.pick_min_state(cube) == "1" * n
    assert list(m.iter_states(cube)) == ["1" * n]
    others = 0  # every state but the cube: some variable is 0
    for i in reversed(range(n)):
        others = m.kernel.mk(2 * i, 1, others)
    assert m.count_states(others) == 2 ** n - 1
    assert m.pick_min_state(others) == "0" * n
    k = m.kernel
    assert k.pick_min_state(cube) == ones and k.states(cube) == [ones]
    assert k.pick_min_state(others) == 0
    assert k.contains(cube, ones)
    assert StateSet(m, cube).contains("1" * n)
    for i in (0, 63, 64, n - 1):
        assert not k.contains(cube, ones ^ 1 << i)
        assert k.contains(others, ones ^ 1 << i)
    assert not k.contains(others, ones)
    # every variable keeps its value but the last, which is free: the
    # relation skips its primed slot
    relation = 1
    for i in reversed(range(n - 1)):
        relation = k.mk(2 * i, k.mk(2 * i + 1, relation, 0),
                        k.mk(2 * i + 1, 0, relation))
    x = ones ^ 1 << 64 ^ 1 << (n - 1)
    assert k.successors(relation, x) == [x, x | 1 << (n - 1)]
    assert k.successors(relation, ones) == [ones ^ 1 << (n - 1), ones]
    # every variable is 1 but 0, 63, 64 and n - 1, which are free: the set
    # skips their slots, and two of them share a 64-bit word of the walk
    free = (0, 63, 64, n - 1)
    fixed = 1
    for i in reversed(range(n)):
        if i not in free:
            fixed = k.mk(2 * i, 0, fixed)
    expected = []
    for bits in itertools.product("01", repeat=len(free)):
        state = ["1"] * n
        for i, b in zip(free, bits):
            state[i] = b
        expected.append("".join(state))
    assert list(m.iter_states(fixed)) == expected
    assert k.states(fixed) == [int(s[::-1], 2) for s in expected]
    assert k.pick_min_state(fixed) == ones ^ sum(1 << i for i in free)


@pytest.mark.parametrize("style", [ExprStyle.FACTORED, ExprStyle.ISOP])
def test_export_of_a_deep_diagram(manager_on, style):
    n = 1200
    m = manager_on(n)
    cube = m.cube(2 ** n - 1)
    assert to_expression(m, cube, style) == make_and(
        [Var(i) for i in range(n)])


def test_quantification_of_a_deep_diagram(manager_on):
    """exists folds over the diagram without recursing in Python."""
    m = manager_on(1200)
    assert m.count_states(m.exists({0}, m.cube(2 ** 1200 - 1))) == 2


def test_walks_reject_a_deep_primed_node(manager_on):
    m = manager_on(4)
    k = m.kernel
    f = k.mk(0, k.mk(2, 0, k.mk(4, 1, k.mk(7, 0, 1))), 1)
    assert m.node(f)[0] == 0
    for walk in (m.count_states, m.pick_min_state, m.iter_states):
        with pytest.raises(ValueError, match="primed"):
            walk(f)


def analyse(kernel_cls, monkeypatch, net, node_limit=None, order=None):
    """Attractors and basins of net on the given kernel class, in the given
    variable order (FORCE for None); returns each attractor's
    representative and basin sizes, or the node-limit error, plus the node
    table."""
    kernels = []

    def make(*args):
        kernels.append(kernel_cls(*args))
        return kernels[-1]

    monkeypatch.setattr(_select, "Kernel", make)
    if node_limit is not None:
        monkeypatch.setenv("BASINSCOPE_NODE_LIMIT", str(node_limit))
    try:
        ts = build(net, order=order)
        sizes = [(t.attractor.representative, t.weak_info.size,
                  t.strong_info.size, t.cycle_free_info.size)
                 for t in basin_triples(ts, attractors(ts))]
    except _kernel_py.NodeLimitError as exc:
        sizes = str(exc)
    return sizes, node_table(kernels[0])


@pytest.mark.parametrize("seed, n, node_limit", [
    (1, 11, None), (2, 11, None), (2, 11, 5000)])
def test_pipeline_matches_node_for_node(kernel_c, monkeypatch, seed, n,
                                        node_limit):
    """Whole analyses, in the declaration order and in FORCE order, match
    node for node.  In the declaration order they grow the C kernel's
    unique and computed tables past their initial size, and the small limit
    stops both kernels mid-run."""
    net = random_network(random.Random(seed), n)
    for order in (range(n), None):
        expected = analyse(_kernel_py.Kernel, monkeypatch, net, node_limit,
                           order)
        assert analyse(kernel_c.Kernel, monkeypatch, net, node_limit,
                       order) == expected
        if order is None:
            continue  # FORCE keeps these networks below both marks
        if node_limit is None:
            assert len(expected[1]) > 4096
        else:
            assert expected[0] == \
                f"decision diagram exceeds node limit {node_limit}"


# a toggle (a, b) that, with a on, lets c and d cycle and otherwise holds
# them at 0: one cyclic and one steady async attractor
MODEL = "a, !b\nb, !a\nc, a & !d\nd, c\n"
INVOCATIONS = [
    ["attractors", "--json", "-"],
    ["attractors", "--update", "sync", "--json", "-"],
    ["basins", "--json", "-", "--svg", "{out}/bars.svg"],
    ["basins", "--update", "sync", "--attractor-file", "{seeds}",
     "--json", "-"],
    ["basins", "--update", "sync", "--json", "-", "--svg",
     "{out}/sync_bars.svg"],
    ["commitment", "--json", "-", "--expression-style", "factored",
     "--dot", "{out}/diagram.dot", "--svg", "{out}/pie.svg"],
    ["commitment", "--attractor-file", "{seeds}", "--json", "-"],
    ["commitment", "--update", "sync", "--json", "-", "--dot",
     "{out}/sync.dot"],
    ["phenotypes", "--markers", "c,d", "--json", "-", "--expression-style",
     "dnf", "--dot", "{out}/phenotypes.dot", "--svg", "{out}/phenotypes.svg"],
    ["phenotypes", "--bnet", "{van_ham}", "--update", "sync", "--markers",
     "a,c", "--json", "-"],
    ["check", "--ctl", "AG(EF(c))", "--json", "-"],
    ["check", "--update", "sync", "--ctl", "EF(a & b)", "--json", "-",
     "--expression-style", "dnf"],
    ["render", "--dot", "{out}/stg.dot"],
    ["render", "--update", "sync", "--attractor-file", "{seeds}"],
    ["simulate", "--markers", "c", "--walks", "300", "--seed", "2",
     "--json", "-"],
    ["simulate", "--attractor-file", "{seeds}", "--markers", "a",
     "--walks", "100", "--json", "-"],
    ["render", "--bnet", "{van_ham}", "--dot", "{out}/van_ham.dot"],
    ["simulate", "--bnet", "{van_ham}", "--update", "sync", "--markers",
     "a,c", "--walks", "300", "--seed", "4", "--json", "-"],
]


def run_cli(kernel_cls, monkeypatch, tmp_path, capsys):
    """Stdout and written files of every invocation on the kernel class;
    an invocation without --bnet runs on MODEL."""
    monkeypatch.setattr(_select, "Kernel", kernel_cls)
    model = tmp_path / "model.bnet"
    model.write_text(MODEL)
    van_ham = tmp_path / "van_ham.bnet"
    van_ham.write_text(VAN_HAM)
    seeds = tmp_path / "seeds.json"
    seeds.write_text('["1000"]')
    results = []
    for i, argv in enumerate(INVOCATIONS):
        out = tmp_path / f"{kernel_cls.__module__}-{i}"
        out.mkdir()
        argv = [arg.format(out=out, seeds=seeds, van_ham=van_ham)
                for arg in argv]
        if "--bnet" not in argv:
            argv[1:1] = ["--bnet", str(model)]
        assert cli.run(argv) == 0
        files = {path.name: path.read_bytes()
                 for path in sorted(out.iterdir())}
        results.append((capsys.readouterr().out, files))
    return results


def test_cli_matches_byte_for_byte(kernel_c, monkeypatch, tmp_path, capsys):
    """Every subcommand writes the same bytes on both kernels."""
    expected = run_cli(_kernel_py.Kernel, monkeypatch, tmp_path, capsys)
    assert all(out or files for out, files in expected)
    assert run_cli(kernel_c.Kernel, monkeypatch, tmp_path, capsys) == expected
