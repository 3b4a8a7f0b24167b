"""Pure-Python reduced ordered BDD kernel.

Node ids are small ints; 0 and 1 are the FALSE/TRUE terminals.  Levels are
interleaved: the variable order[p] occupies level 2p (unprimed) and 2p+1
(primed), and the order defaults to the declaration order.  Terminals sit
at the sentinel level 2n.  A packed state keeps bit i = variable i under
any order.  Every node records
whether a primed slot occurs at or below it, so that the state-level walks
can reject a diagram with primed slots without walking it.  All operations
share one computed table, keyed as in the C kernel: (op, f, g) for apply,
(TAG_AND_EXISTS + parity, f, g) and (TAG_SHIFT + (delta > 0), f, 0).
"""

from __future__ import annotations

import random

from ._errors import NodeLimitError

BACKEND = "py"

OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_DIFF = 3

TAG_AND_EXISTS = 4
TAG_SHIFT = 6


class Kernel:
    def __init__(self, n_vars: int, node_limit: int = 1 << 24, order=None):
        self.n = n_vars
        if order is None:
            order = range(n_vars)
        self.order = list(order)
        if sorted(self.order) != list(range(n_vars)):
            raise ValueError("order must be a permutation of range(n_vars)")
        self.num_levels = 2 * n_vars
        self.node_limit = node_limit
        sentinel = self.num_levels
        self._level = [sentinel, sentinel]
        self._low = [0, 1]
        self._high = [0, 1]
        self._primed = [0, 0]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple[int, int, int], int] = {}

    # -- node construction -------------------------------------------------

    def mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is not None:
            return node
        node = len(self._level)
        if node > self.node_limit:
            raise NodeLimitError(
                f"decision diagram exceeds node limit {self.node_limit}")
        self._level.append(level)
        self._low.append(low)
        self._high.append(high)
        self._primed.append(
            self._primed[low] | self._primed[high] | (level & 1))
        self._unique[key] = node
        return node

    # -- accessors ---------------------------------------------------------

    def level_of(self, f: int) -> int:
        return self._level[f]

    def low_of(self, f: int) -> int:
        return self._low[f]

    def high_of(self, f: int) -> int:
        return self._high[f]

    def num_nodes(self) -> int:
        return len(self._level)

    def has_primed(self, f: int) -> bool:
        """Whether a primed slot occurs in f."""
        return bool(self._primed[f])

    # -- Boolean operations ------------------------------------------------

    def apply(self, op: int, f: int, g: int) -> int:
        if op == OP_AND:
            if f == 0 or g == 0:
                return 0
            if f == 1:
                return g
            if g == 1 or f == g:
                return f
        elif op == OP_OR:
            if f == 1 or g == 1:
                return 1
            if f == 0:
                return g
            if g == 0 or f == g:
                return f
        elif op == OP_XOR:
            if f == g:
                return 0
            if f == 0:
                return g
            if g == 0:
                return f
        elif op == OP_DIFF:
            if f == 0 or g == 1 or f == g:
                return 0
            if g == 0:
                return f
        else:
            raise ValueError(f"unknown operation code {op}")
        if op != OP_DIFF and f > g:
            f, g = g, f
        key = (op, f, g)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        level = self._level
        lf = level[f]
        lg = level[g]
        if lf <= lg:
            top = lf
            f0, f1 = self._low[f], self._high[f]
        else:
            top = lg
            f0 = f1 = f
        if lg <= lf:
            g0, g1 = self._low[g], self._high[g]
        else:
            g0 = g1 = g
        r0 = self.apply(op, f0, g0)
        r1 = self.apply(op, f1, g1)
        res = self.mk(top, r0, r1)
        self._cache[key] = res
        return res

    # -- quantification ----------------------------------------------------

    def and_exists(self, parity: int, f: int, g: int) -> int:
        """Relational product: quantify every level with the given parity
        (0 = all unprimed slots, 1 = all primed slots) from
        apply(OP_AND, f, g) in one recursion that never builds the
        conjunction; and_exists(parity, f, 1) quantifies f alone."""
        if f == 0 or g == 0:
            return 0
        if f == g or f == 1:  # one operand: it goes first, TRUE second
            f, g = g, 1
        if f == 1:
            return 1
        if g != 1 and f > g:
            f, g = g, f
        key = (TAG_AND_EXISTS + parity, f, g)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        level = self._level
        lf = level[f]
        lg = level[g]
        if lf <= lg:
            top = lf
            f0, f1 = self._low[f], self._high[f]
        else:
            top = lg
            f0 = f1 = f
        if lg <= lf:
            g0, g1 = self._low[g], self._high[g]
        else:
            g0 = g1 = g
        r0 = self.and_exists(parity, f0, g0)
        if top % 2 != parity:
            res = self.mk(top, r0, self.and_exists(parity, f1, g1))
        elif r0 == 1:
            res = 1  # the disjunction is already TRUE: skip the high branch
        else:
            res = self.apply(OP_OR, r0, self.and_exists(parity, f1, g1))
        self._cache[key] = res
        return res

    # -- renaming ----------------------------------------------------------

    def shift(self, delta: int, f: int) -> int:
        """Rename variables by level shift: +1 maps unprimed slots to their
        primed partners, -1 is the inverse.  The diagram must reference
        only one polarity of slots."""
        if delta not in (1, -1):
            raise ValueError("shift delta must be +1 or -1")
        if f < 2:
            return f
        key = (TAG_SHIFT + (delta > 0), f, 0)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        lf = self._level[f]
        want = 0 if delta == 1 else 1
        if lf % 2 != want:
            raise ValueError("rename applied to a mixed-polarity diagram")
        res = self.mk(lf + delta,
                      self.shift(delta, self._low[f]),
                      self.shift(delta, self._high[f]))
        self._cache[key] = res
        return res

    # -- iterative state walks over packed states (bit i holds variable i)

    def _check_unprimed(self, f: int):
        if self._primed[f]:
            raise ValueError("diagram references primed slots")

    def _fold(self, f: int, memo: dict, combine):
        """memo[f], folded bottom-up over f on an explicit stack: a node g
        gets combine(level, memo[low], memo[high]) of its children.  memo
        holds the terminals' values and keeps every value folded."""
        level, low, high = self._level, self._low, self._high
        stack = [f]
        while stack:
            g = stack[-1]
            if g in memo:
                stack.pop()
                continue
            lo, hi = low[g], high[g]
            if lo in memo and hi in memo:
                memo[g] = combine(level[g], memo[lo], memo[hi])
                stack.pop()
            else:
                stack += (lo, hi)
        return memo[f]

    def count_states(self, f: int) -> int:
        """Number of satisfying states over the n unprimed variables."""
        self._check_unprimed(f)
        # a node counts the states of its function over all n variables:
        # its variable is 0 in half of low's and 1 in half of high's
        return self._fold(f, {0: 0, 1: 1 << self.n},
                          lambda lvl, x, y: (x + y) >> 1)

    def pick_min_state(self, f: int) -> int:
        """The packed state of f whose bit string is lexicographically
        smallest (0 < 1), folded bottom-up over f as in count_states."""
        if f == 0:
            raise ValueError("cannot pick a state from the empty set")
        self._check_unprimed(f)
        order = self.order

        # the smallest state of a node with the variables that it skips at
        # 0: the smaller of low's and high's with its variable set, where
        # the first variable at which the two differ decides
        def smaller(lvl, x, y):
            if y is None:
                return x
            y |= 1 << order[lvl >> 1]
            return y if x is None or x & (d := x ^ y) & -d else x

        return self._fold(f, {0: None, 1: 0}, smaller)

    def states(self, f: int) -> list[int]:
        """The packed states of f, in lexicographic order of their bit
        strings."""
        self._check_unprimed(f)
        return self._by_bits(self._walk(f, None))

    def _check_state(self, x: int):
        if x < 0 or x >> self.n:
            raise ValueError(
                f"state {x!r} out of range for {self.n} variables")

    def contains(self, f: int, x: int) -> bool:
        """Whether the packed state x is in the unprimed diagram f."""
        self._check_unprimed(f)
        self._check_state(x)
        order, level, low, high = self.order, self._level, self._low, self._high
        while f >= 2:
            f = high[f] if (x >> order[level[f] >> 1]) & 1 else low[f]
        return f == 1

    def successors(self, r: int, x: int) -> list[int]:
        """The packed states y with (x, y') in r, in lexicographic order of
        their bit strings."""
        self._check_state(x)
        return self._by_bits(self._walk(r, x))

    def _walk(self, r: int, x: int | None) -> list[int]:
        """The packed states y of r, depth-first over the levels.  An
        entry (g, p, y) is the node g of r for the slots from 2p on, with
        the variables of the positions above p set in y.  Without x, the
        unprimed slot of each position branches.  With x, it follows x and
        the primed slot branches; so the walk lists the successors of x.  A
        slot that branches does so also where r skips it."""
        n, order = self.n, self.order
        level, low, high = self._level, self._low, self._high
        out = []
        stack = [(r, 0, 0)] if r != 0 else []
        while stack:
            g, p, y = stack.pop()
            if p == n:
                out.append(y)
                continue
            slot, bit = 2 * p, 1 << order[p]
            if x is not None:
                if level[g] == slot:
                    g = high[g] if x & bit else low[g]
                    if g == 0:
                        continue
                slot += 1
            if level[g] == slot:
                lo, hi = low[g], high[g]
            else:
                lo = hi = g
            if hi != 0:
                stack.append((hi, p + 1, y | bit))
            if lo != 0:
                stack.append((lo, p + 1, y))
        return out

    def _by_bits(self, states: list[int]) -> list[int]:
        """The packed states in lexicographic order of their bit strings."""
        one = 1 << self.n
        # bin(y | one) is "0b1" followed by y's n bits, variable 0 last
        return sorted(states, key=lambda y: bin(y | one)[:2:-1])

    # -- random walks over packed states ------------------------------------

    def walks(self, r: int, space: int, reach: int, stop: int, keys,
              cap: int) -> tuple[dict[int, int], int, int]:
        """One random walk over the relation r per key, a bytes object.

        The walk draws from random.Random(int.from_bytes(key, "little")).
        It starts from a uniformly random state of space, drawn by
        rejection one bit per variable, and steps to a uniformly random
        successor other than the state itself, among them in ascending
        order of x ^ y.  It ends when it enters stop, or as capped when it
        is outside reach, has no successor left or has taken cap steps.
        Returns the number of walks ending at each state of stop, the
        number of capped walks and the number of steps taken in all."""
        if space == 0:
            raise ValueError("no admissible state to start from")
        n = self.n
        contains = self.contains
        ends: dict[int, int] = {}
        capped = steps = 0
        for key in keys:
            bits = random.Random(int.from_bytes(key, "little")).getrandbits
            while True:
                x = 0
                for i in range(n):
                    x |= _below(bits, 2) << i
                if contains(space, x):
                    break
            walked = 0
            while True:
                if contains(stop, x):
                    ends[x] = ends.get(x, 0) + 1
                    break
                flips = []
                if walked < cap and contains(reach, x):
                    flips = sorted(x ^ y for y in self._walk(r, x) if y != x)
                if not flips:
                    capped += 1
                    break
                x ^= flips[_below(bits, len(flips))]
                walked += 1
            steps += walked
        return ends, capped, steps


def _below(bits, m: int) -> int:
    """randrange(m), 0 < m < 2**32, as CPython draws it from the 32-bit
    outputs of bits: the first output whose top m.bit_length() bits are
    below m, shifted down to those bits."""
    shift = 32 - m.bit_length()
    while True:
        v = bits(32) >> shift
        if v < m:
            return v
