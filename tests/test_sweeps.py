"""The oracle, order and CD sweeps seen failing: each kept check of
criteria 2, 3 and 5 fires on the diamond when one piece is broken, with a
message that names the idempotents, or the stage, the matrix rows and the
invariant.  The five order mutants break a law that ``sweep_order`` no
longer checks on its own (its docstring has the proofs); each is caught by
the kept check the proof names.  The oracle sweep's bitset domains are
also checked against the dict-composing sweep they replaced.  The
conjugate-core, decision-pair and symmetry sweeps each fail with their
exact lines when one collaborator is patched to answer wrongly."""

import dataclasses
import random

import pytest

from shiftmorita import smorita, sweeps
from shiftmorita.cli import _MismatchedOracle
from shiftmorita.core_order import CoreOrder, cached_order
from shiftmorita.decide import Verdict
from shiftmorita.hull import (
    HullIdempotent,
    base_idem,
    enumerate_idems,
    fmt_idem,
    idem_leq,
    idem_product,
)
from shiftmorita.oracle import Oracle, compose
from shiftmorita.reference import core_of_at, covers_below
from shiftmorita.shift import f_classes
from shiftmorita.smorita import CDSet, SIdem, coherent_check

from conftest import mx

# the diamond's classes {b}, {a,b}, {b,c}, {a,b,c} by index
B, AB, BC, ABC = range(4)


def broken(order, cls=CoreOrder, **fields):
    """A copy of ``order`` as ``cls``, with some bitset fields replaced; a
    derived one (``core_bits``) is set in place of its first computation."""
    names = {f.name for f in dataclasses.fields(CoreOrder)}
    kw = {name: fields.pop(name, getattr(order, name)) for name in names}
    out = cls(**kw)
    vars(out).update(fields)
    return out


def changed(bits, i, fn):
    """The tuple ``bits`` with entry i replaced by ``fn(bits[i])``."""
    return bits[:i] + (fn(bits[i]),) + bits[i + 1:]


class NonCommutativeMeet(CoreOrder):
    def meet(self, a, b):
        return None if a > b else super().meet(a, b)


class MeetOfSelfIsZero(CoreOrder):
    def meet(self, a, b):
        return None if a == b else super().meet(a, b)


class IncomparableMeetsDropped(CoreOrder):
    def meet(self, a, b):
        return super().meet(a, b) if self.leq(a, b) or self.leq(b, a) else None


class LowestCommonBound(CoreOrder):
    """The least common lower bound where the greatest belongs."""

    def meet(self, a, b):
        lower = self.down[self.index[a]] & self.down[self.index[b]]
        return self.classes[(lower & -lower).bit_length() - 1] if lower else None


class LastCoverDropped(CoreOrder):
    def covers(self, v):
        return super().covers(v)[:-1]


class FakeCovers(CoreOrder):
    """Two incomparable one-letter idempotents given as covers of {a,b,c}:
    their product, on word c, is no class representative."""

    def covers(self, v):
        if v == 0b111:
            return (HullIdempotent((2,), 0b011), HullIdempotent((2,), 0b110))
        return super().covers(v)


def down_changed(*edits):
    """A patch that applies (class index, fn) edits to the down-sets."""

    def patch(o):
        down = o.down
        for i, fn in edits:
            down = changed(down, i, fn)
        return broken(o, down=down)

    return patch


def core_changed(i, fn):
    return lambda o: broken(o, core_bits=changed(o.core_bits, i, fn))


def as_class(cls):
    return lambda o: broken(o, cls)


GLB = "a meet is not the greatest lower bound"
# name: (patch of the diamond's order, stage, part of the message)
ORDER_PATCHES = {
    # the five laws with no check of their own, each caught as its proof says
    "non-commutative meet": (as_class(NonCommutativeMeet), "meets", GLB),
    "meet(a, a) is zero": (as_class(MeetOfSelfIsZero), "meets", GLB),
    "incomparable meets dropped": (as_class(IncomparableMeetsDropped), "meets", GLB),
    "2-cycle {a,b} <= {b,c} <= {a,b}": (
        down_changed((AB, lambda d: d | 1 << BC), (BC, lambda d: d | 1 << AB)), "meets", GLB),
    "core missing its lowest member": (
        core_changed(ABC, lambda c: c & c - 1), "cores",
        "core of {a,b,c} differs from the reference"),
    # one per kept check
    "covers": (as_class(LastCoverDropped), "covers", "covers of {b} differ from the reference"),
    "core": (core_changed(B, lambda c: c | 1 << ABC), "cores",
             "core of {b} differs from the reference"),
    "natural order": (down_changed((BC, lambda d: d | 1 << B | 1 << AB)), "order",
                      "{a,b} below {b,c} exceeds the natural order"),
    "transitivity": (down_changed((ABC, lambda d: d & ~(1 << B))), "order",
                     "not transitive: {b} < {a,b} < {a,b,c}"),
    "reflexivity": (down_changed((ABC, lambda d: d & ~(1 << ABC))), "order",
                    "not reflexive at {a,b,c}"),
    "meet identity": (as_class(LowestCommonBound), "meets", GLB),
}


@pytest.mark.parametrize("name", ORDER_PATCHES)
def test_order_sweep_names_each_broken_law(diamond, monkeypatch, name):
    patch, stage, invariant = ORDER_PATCHES[name]
    order = patch(cached_order(diamond))
    monkeypatch.setattr(sweeps, "cached_order", lambda T: order)
    fails = sweeps.sweep_order(diamond)
    assert any(
        m.startswith(f"{stage} on rows {diamond.rows}: ") and invariant in m for m in fails
    ), fails


def test_order_sweep_passes_the_diamond(diamond):
    assert sweeps.sweep_order(diamond) == []


def dropped_representative(u):
    """``CDSet`` with class u's representative left out of C."""

    class Dropped(CDSet):
        def __init__(self, T):
            super().__init__(T)
            self.C = tuple(x for x in self.C if x.u != u)
            self.elements = self.C + self.Cll

    return Dropped


class TestCoherentCheckFails:
    """Each of ``coherent_check``'s three conditions, broken alone."""

    def test_product_of_representatives_outside_C(self, diamond, monkeypatch):
        # {a,b} * {b,c} is {b}'s representative, which C lacks
        monkeypatch.setattr(smorita, "CDSet", dropped_representative(0b010))
        assert not coherent_check(diamond)

    def test_interval_not_closed(self, diamond, monkeypatch):
        # C keeps {b} and {a,b,c}, closed under products, but not {a,b}
        # between them
        monkeypatch.setattr(smorita, "CDSet", dropped_representative(0b011))
        assert not coherent_check(diamond)

    def test_product_of_incomparable_covers_outside_C(self, diamond, monkeypatch):
        order = broken(cached_order(diamond), FakeCovers)
        monkeypatch.setattr(smorita, "cached_order", lambda T: order)
        assert not coherent_check(diamond)


class WrongCllCanon(CDSet):
    """{b}'s guarded cover written with the outer class {a,b}."""

    def __init__(self, T):
        super().__init__(T)
        self.Cll = tuple(SIdem(0b011, x.g) if x.u == 0b010 else x for x in self.Cll)
        self.elements = self.C + self.Cll


class ReversedC(CDSet):
    """C listed in reverse, so C[index of the meet] is the wrong class."""

    def __init__(self, T):
        super().__init__(T)
        self.C = self.C[::-1]
        self.elements = self.C + self.Cll


class CProductsFirstFactor(CDSet):
    """A product of two representatives answered with its first factor."""

    def product(self, x, y):
        return x if x in self.C and y in self.C else super().product(x, y)


class MembersOnlyC(CDSet):
    """The member set holds C alone, so a product that is a guarded cover
    leaves the CD."""

    def __init__(self, T):
        super().__init__(T)
        self._members = frozenset(self.C)


class FlippedLeq(CoreOrder):
    def leq(self, a, b):
        return super().leq(b, a)


class CllProductsNonzero(CDSet):
    def product(self, x, y):
        return x if x in self.Cll and y in self.Cll else super().product(x, y)


def fixed(value):
    return lambda T: value


# (stage, invariant, module, attribute, its replacement given the order)
CD_PATCHES = [
    ("coherence", "coherent_check failed",
     smorita, "cached_order", lambda o: fixed(broken(o, FakeCovers))),
    ("CD", "guarded cover not in canonical form: [{a,b},",
     smorita, "CDSet", lambda o: WrongCllCanon),
    ("CD", "C is not one representative per class", smorita, "CDSet", lambda o: ReversedC),
    ("CD", "C*C rule failed", smorita, "CDSet", lambda o: CProductsFirstFactor),
    ("CD", "CD is not closed under products", smorita, "CDSet", lambda o: MembersOnlyC),
    ("CD", "Cll*C rule failed", smorita, "cached_order", lambda o: fixed(broken(o, FlippedLeq))),
    ("CD", "Cll*Cll rule failed", smorita, "CDSet", lambda o: CllProductsNonzero),
    ("CD", "primitivity misclassified", sweeps, "sidem_leq", lambda o: lambda _, x, y: x == y),
]


@pytest.mark.parametrize(
    "stage, invariant, module, attr, replacement", CD_PATCHES, ids=[p[1] for p in CD_PATCHES]
)
def test_cd_sweep_names_each_broken_rule(
    diamond, monkeypatch, stage, invariant, module, attr, replacement
):
    """Each patch breaks one rule, and only that rule's message fires."""
    monkeypatch.setattr(module, attr, replacement(cached_order(diamond)))
    fails = sweeps.sweep_cd(diamond)
    want = f"{stage} on rows {diamond.rows}: {invariant}"
    assert fails and all(m.startswith(want) for m in fails), fails


def test_cd_sweep_reports_a_missing_representative(diamond, monkeypatch):
    """A C without {b}'s representative gives failure lines, not an
    IndexError from the C*C rule's lookup by class index."""
    monkeypatch.setattr(smorita, "CDSet", dropped_representative(0b010))
    assert sweeps.sweep_cd(diamond) == [
        f"coherence on rows {diamond.rows}: coherent_check failed",
        f"CD on rows {diamond.rows}: C is not one representative per class, in class order",
    ]


def test_cd_sweep_passes_the_diamond(diamond):
    assert sweeps.sweep_cd(diamond) == []


def clip(oracle, m):
    """``m`` restricted to words x with x and m[x] of length <= depth - 1."""
    lim = oracle.depth - 1
    return {x: y for x, y in m.items() if len(x) <= lim and len(y) <= lim}


def dict_oracle_failures(T, oracle):
    """The oracle sweep as it was before its domains became bitsets: every
    product is composed from the clipped maps and compared as a dict."""
    fails = []
    idems2 = enumerate_idems(T, 2)
    idems3 = enumerate_idems(T, 3)
    for e in idems3:
        if len(e.word) + 2 <= oracle.depth and not oracle.matches(e):
            fails.append(f"Oracle.matches failed: {fmt_idem(T, e)}")
    clipped = {e: clip(oracle, oracle.idem_map(e)) for e in idems3}
    doms = {e: frozenset(m) for e, m in clipped.items()}
    for e1 in idems2:
        for e2 in idems2:
            comp = clip(oracle, compose(clipped[e1], clipped[e2]))
            p = idem_product(e1, e2)
            want = clipped[p] if p is not None else {}
            if comp != want:
                fails.append(f"product mismatch: {fmt_idem(T, e1)} * {fmt_idem(T, e2)}")
            if idem_leq(e1, e2) != (doms[e1] <= doms[e2]):
                fails.append(f"leq mismatch: {fmt_idem(T, e1)} vs {fmt_idem(T, e2)}")
    for v in f_classes(T):
        top = doms[base_idem(T, v)]
        cs = covers_below(T, v)
        for c in cs:
            if not doms[c] < top:
                fails.append(f"cover not strictly below: {fmt_idem(T, c)}")
            for d in cs:
                if c != d and doms[c] <= doms[d]:
                    fails.append(f"covers not an antichain: {fmt_idem(T, c)}, {fmt_idem(T, d)}")
            for e in idems3:
                if doms[c] < doms[e] < top:
                    fails.append(f"{fmt_idem(T, e)} interposes below {T.fmt_vec(v)}")
    return fails


@pytest.mark.parametrize("oracle_cls", [Oracle, _MismatchedOracle])
@pytest.mark.parametrize("depth", [4, 6])
def test_bitset_sweep_matches_the_dict_sweep(oracle_cls, depth):
    """Each side gets its own oracle, so neither reads the other's maps."""
    sample = random.Random(28).sample(list(sweeps.all_matrices(3)), 24)
    lines = 0
    for T in sample:
        want = dict_oracle_failures(T, oracle_cls(T, depth))
        assert sweeps.oracle_failures(T, oracle_cls(T, depth)) == want, T.rows
        lines += len(want)
    assert (lines > 0) == (oracle_cls is _MismatchedOracle)


def idem(T, word, letters):
    return HullIdempotent(tuple(T.symbols.index(x) for x in word), T.mask_of(letters))


def flipped_at(fn, pair, flip):
    """``fn`` with its answer on the one argument pair replaced."""
    return lambda e1, e2: flip(fn(e1, e2)) if (e1, e2) == pair else fn(e1, e2)


def covers_of_top(T, *covers):
    """``covers_below`` with the covers of {a,b,c} replaced."""
    top = T.mask_of("abc")
    return lambda T_, v: tuple(covers) if v == top else covers_below(T_, v)


class TestOracleSweepFails:
    """Each ``oracle_failures`` message, fired on the diamond by one patch;
    every line names the idempotents involved."""

    def sweep(self, T):
        return sweeps.oracle_failures(T, Oracle(T, 6))

    def test_product_mismatch(self, diamond, monkeypatch):
        # {a,b} * {b,c} is {b}, answered as zero
        pair = (idem(diamond, "", "ab"), idem(diamond, "", "bc"))
        monkeypatch.setattr(sweeps, "idem_product", flipped_at(idem_product, pair, lambda p: None))
        assert self.sweep(diamond) == ["product mismatch: (ε,{a,b}) * (ε,{b,c})"]

    def test_leq_mismatch(self, diamond, monkeypatch):
        # {b} * {a,b} is {b}, answered as {a,b}: the order is read off the
        # product, so {b} <= {a,b} fails along with the product
        pair = (idem(diamond, "", "b"), idem(diamond, "", "ab"))
        monkeypatch.setattr(sweeps, "idem_product", flipped_at(idem_product, pair, lambda p: pair[1]))
        assert self.sweep(diamond) == [
            "product mismatch: (ε,{b}) * (ε,{a,b})",
            "leq mismatch: (ε,{b}) vs (ε,{a,b})",
        ]

    def test_cover_not_strictly_below(self, diamond, monkeypatch):
        top = idem(diamond, "", "abc")
        monkeypatch.setattr(sweeps, "covers_below", covers_of_top(diamond, top))
        assert self.sweep(diamond) == ["cover not strictly below: (ε,{a,b,c})"]

    def test_covers_not_an_antichain(self, diamond, monkeypatch):
        # {b} below both true covers; they interpose between it and the top
        covers = [idem(diamond, "", v) for v in ("ab", "bc", "b")]
        monkeypatch.setattr(sweeps, "covers_below", covers_of_top(diamond, *covers))
        assert self.sweep(diamond) == [
            "covers not an antichain: (ε,{b}), (ε,{a,b})",
            "covers not an antichain: (ε,{b}), (ε,{b,c})",
            "(ε,{a,b}) interposes below {a,b,c}",
            "(ε,{b,c}) interposes below {a,b,c}",
        ]

    def test_interposes_below(self, diamond, monkeypatch):
        bottom = idem(diamond, "", "b")
        monkeypatch.setattr(sweeps, "covers_below", covers_of_top(diamond, bottom))
        assert self.sweep(diamond) == [
            "(ε,{a,b}) interposes below {a,b,c}",
            "(ε,{b,c}) interposes below {a,b,c}",
        ]

    def test_a_map_that_is_no_identity_fails_matches(self, diamond, monkeypatch):
        """theta_a with the images of a and b swapped: the idempotent
        (ε,{b}), whose class witness is a, b, c, then sends b to a.  The
        witness of {b,c} is b, c, so (b,{b,c}) composes no theta_a and
        still matches."""
        o = Oracle(diamond, 4)
        theta_a = dict(o.theta(0))
        theta_a[(0,)], theta_a[(1,)] = theta_a[(1,)], theta_a[(0,)]
        monkeypatch.setitem(o._theta, 0, theta_a)
        assert o.idem_map(idem(diamond, "", "b"))[(1,)] == (0,)
        assert not o.matches(idem(diamond, "", "b"))
        assert o.matches(idem(diamond, "b", "bc"))
        fails = sweeps.oracle_failures(diamond, o)
        assert "Oracle.matches failed: (ε,{b})" in fails
        assert "Oracle.matches failed: (b,{b,c})" not in fails

    def test_the_diamond_passes(self, diamond):
        assert self.sweep(diamond) == []


@pytest.mark.parametrize("depth", [2, 3])
def test_oracle_sweep_refuses_depths_below_four(diamond, depth):
    with pytest.raises(ValueError, match="oracle sweep depth must be >= 4"):
        sweeps.oracle_failures(diamond, Oracle(diamond, depth))
    with pytest.raises(ValueError, match="oracle sweep depth must be >= 4"):
        sweeps.sweep_oracle(diamond, depth)


def corner_cores_emptied(T, word, vec, rule_order=(2, 3, 4)):
    """``core_of_at`` with every core in a conjugated corner left empty."""
    return frozenset() if word else core_of_at(T, word, vec, rule_order)


def test_conjugate_core_sweep_names_each_corner(monkeypatch):
    monkeypatch.setattr(sweeps, "core_of_at", corner_cores_emptied)
    assert sweeps.sweep_conjugate_cores(mx("a b\n10\n01")) == [
        "conjugated core differs at word a, class {a}",
        "conjugated core differs at word b, class {b}",
    ]
    monkeypatch.undo()
    assert sweeps.sweep_conjugate_cores(mx("a b\n10\n01")) == []


class TestDecisionPairSweepFails:
    """Three matrices: (3, 2), its letter-swapped copy (1, 3), and the
    one-letter full shift, which has fewer classes than either.  Only the
    first pair is equivalent, so each patch fires once, on it."""

    @pytest.fixture
    def mats(self):
        T = mx("a b\n11\n01")
        return [T, sweeps.permuted_copy(T, [1, 0]), mx("a\n1")]

    @pytest.mark.parametrize("attr, replacement, line", [
        ("verify_witness", lambda G1, G2, w: False, "unsound witness for (3, 2) vs (1, 3)"),
        ("brute_force_isomorphic", lambda G1, G2: False,
         "search vs brute force disagree: (3, 2) (1, 3)"),
        ("cd_isomorphic", lambda cd1, cd2: None, "graph vs CD verdict disagree: (3, 2) (1, 3)"),
    ], ids=["unsound witness", "brute force", "CD verdict"])
    def test_each_disagreement_is_named(self, mats, monkeypatch, attr, replacement, line):
        monkeypatch.setattr(sweeps, attr, replacement)
        assert sweeps.sweep_decision_pairs(mats) == ([line], 3, 1)

    def test_the_three_pass(self, mats):
        assert sweeps.sweep_decision_pairs(mats) == ([], 3, 1)


class TestSymmetrySweepFails:
    """Two samples at seed 1: rows (3, 1) under the identity permutation,
    and the one-letter full shift."""

    def test_a_copy_decided_inequivalent(self, monkeypatch):
        monkeypatch.setattr(sweeps, "decide_morita", lambda T1, T2: Verdict(False, None, "x"))
        assert sweeps.sweep_symmetry(2, 1) == [
            "permuted copy not equivalent: (3, 1) perm [0, 1]",
            "permuted copy not equivalent: (1,) perm [0]",
        ]

    def test_a_witness_that_fails_verification(self, monkeypatch):
        monkeypatch.setattr(sweeps, "verify_witness", lambda G1, G2, w: False)
        assert sweeps.sweep_symmetry(2, 1) == [
            "witness failed verification: (3, 1) perm [0, 1]",
            "witness failed verification: (1,) perm [0]",
        ]

    def test_the_samples_pass(self):
        assert sweeps.sweep_symmetry(2, 1) == []
