"""Diagrams, numberings, colorings and state sums."""

import itertools
import random
import re
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from twistq.catalog import load_catalog
from twistq.coeff import GroupRingElem, parse_ring
from twistq.chain import Cochain, ComplexSpec, delta
from twistq.cocycles import (SesSpec, dihedral_integral_cocycle,
                             obstruction_2cocycle)
from twistq.knot import (DiagramError, SurfacePresentation, _colorings,
                         alexander_numbering, colorings, parse_pd,
                         parse_surface, state_sum, state_sum_surface,
                         surface_colorings)
from twistq.quandle import (QuandleMap, dihedral_quandle, quandle_product,
                            quandle_standard, trivial_quandle)

HOPF = """
Xp[1,3,2,4]
Xp[3,1,4,2]
face out: 3L
outer out
"""

# closures of the braids s1^2 and s1 s1^-1 s1^2 (same link)
HOPF_BRAID = """
Xp[1,2,4,3]
Xp[2,1,3,4]
face f: 1L
outer f
"""
HOPF_BRAID_R2 = """
Xp[1,2,6,5]
Xn[6,2,3,7]
Xp[3,4,8,7]
Xp[4,1,5,8]
face f: 1L
outer f
"""

TREFOIL = """
Xp[6,4,1,3]
Xp[4,5,2,1]
Xp[5,6,3,2]
face out: 6L
outer out
"""

# the same trefoil with a negative kink spliced into semiarc 6
TREFOIL_KINK = """
Xp[8,4,1,3]
Xp[4,5,2,1]
Xp[5,6,3,2]
Xn[6,7,7,8]
face out: 6L
outer out
"""

KINK = """
Xn[2,1,1,2]
face out: 2L
outer out
"""

TORUS_MOD2 = """
Xp[2,3,1,4]
Xp[1,4,2,3]
mod 2
"""

PHI_HOPF = "0,1 -> T\n1,0 -> 1\n"


def _phi_hopf():
    ring = parse_ring("Z[T]/(T^2-1)")
    return ring, Cochain(ring, 2, {(0, 1): (0, 1), (1, 0): (1, 0)})


class TestParsing:
    def test_hopf_structure(self):
        d = parse_pd(HOPF)
        assert len(d.crossings) == 2
        assert len(d.semiarcs) == 4
        assert len(d.faces) == 4
        assert d.euler_characteristic() == 2

    def test_kink_structure(self):
        d = parse_pd(KINK)
        assert len(d.faces) == 3
        assert d.euler_characteristic() == 2

    def test_malformed_arity(self):
        with pytest.raises(DiagramError):
            parse_pd("Xp[1,2,3]\n")

    def test_two_heads_rejected(self):
        with pytest.raises(DiagramError, match="two heads"):
            parse_pd("Xp[1,2,3,1]\n")

    def test_dangling_rejected(self):
        with pytest.raises(DiagramError, match="dangling"):
            parse_pd("Xp[1,2,3,4]\n")

    def test_empty_rejected(self):
        with pytest.raises(DiagramError):
            parse_pd("# nothing here\n")

    def test_bad_face_token(self):
        with pytest.raises(DiagramError):
            parse_pd(HOPF.replace("3L", "3X"))

    @pytest.mark.parametrize("spaced,tabbed", [
        ("outer out", "outer\tout"), ("base out", "base\tout"),
        ("mod 2", "mod\t2"), ("face out: 3L", "face\tout: 3L"),
        ("L 0 -1", "L\t0 -1"), ("L 0 -1", "L 0\t-1")])
    def test_directive_takes_any_whitespace(self, spaced, tabbed):
        text = HOPF + "base out\nmod 2\nL 0 -1\n"
        assert vars(parse_pd(text.replace(spaced, tabbed))) == \
            vars(parse_pd(text))

    def test_face_must_be_single_region(self):
        with pytest.raises(DiagramError, match="single region"):
            parse_pd("Xp[1,3,2,4]\nXp[3,1,4,2]\nface out: 3L 3R\nouter out\n")


class TestNumbering:
    def test_hopf_source_regions(self):
        d = parse_pd(HOPF)
        num = alexander_numbering(d)
        assert num[d.source_region(0)] == -1
        assert num[d.source_region(1)] == -1

    def test_outer_is_zero(self):
        d = parse_pd(HOPF)
        num = alexander_numbering(d)
        assert num[d._face_id_index("out")] == 0

    def test_planar_requires_outer(self):
        with pytest.raises(DiagramError, match="outer"):
            alexander_numbering(parse_pd("Xp[1,3,2,4]\nXp[3,1,4,2]\n"))

    def test_torus_mod2_alternates(self):
        d = parse_pd(TORUS_MOD2)
        num = alexander_numbering(d)
        assert sorted(num) == [0, 1]

    @pytest.mark.parametrize("p", range(2, 8))
    def test_mod_p_matches_enumeration(self, torus_pd, p):
        # the numbering must be one of the solutions in Z_p^faces with
        # the base face at 0, and None when there are none: mod p >= 3
        # the two-crossing torus diagram has none, and p > 2 puts p - 1
        # entries for the right faces into the system
        texts = [TORUS_MOD2.replace("mod 2\n", ""), HOPF, KINK]
        texts += [torus_pd(n) for n in range(1, 10)]
        checked = 0
        for text in texts:
            d = parse_pd(text.replace("outer", "base") + "mod %d\n" % p)
            nf = len(d.faces)
            if p ** (nf - 1) > 4096:
                continue
            anchor = d._face_id_index(d.base) if d.base is not None else 0
            edges = [d.left_right_faces(s) for s in d.semiarcs]
            found = []
            for rest in itertools.product(range(p), repeat=nf - 1):
                num = list(rest[:anchor]) + [0] + list(rest[anchor:])
                if all((num[left] - num[right]) % p == 1
                       for left, right in edges):
                    found.append(num)
            got = alexander_numbering(d)
            assert (got is None) == (not found), (text, p)
            assert got is None or got in found, (text, p)
            checked += 1
        assert checked >= 4

    def test_split_mod_p_diagram_rejected(self):
        # two disjoint Hopf links: the base face fixes the numbers of its
        # own component only
        d = parse_pd("Xp[1,3,2,4]\nXp[3,1,4,2]\nXp[5,7,6,8]\nXp[7,5,8,6]\n"
                     "mod 2\n")
        with pytest.raises(DiagramError, match="not connected"):
            alexander_numbering(d)

    def test_non_planar_without_mod_rejected(self):
        with pytest.raises(DiagramError, match="Euler"):
            alexander_numbering(parse_pd("Xp[2,3,1,4]\nXp[1,4,2,3]\n"
                                         "face f: 1L\nouter f\n"))


class TestColorings:
    def test_kink_counts(self):
        d = parse_pd(KINK)
        assert len(colorings(d, trivial_quandle(4))) == 4
        assert len(colorings(d, dihedral_quandle(3))) == 3

    def test_trefoil_r3(self):
        assert len(colorings(parse_pd(TREFOIL), dihedral_quandle(3))) == 9

    def test_hopf_t2(self):
        assert len(colorings(parse_pd(HOPF), trivial_quandle(2))) == 4

    def test_hopf_r3_only_constants(self):
        cols = colorings(parse_pd(HOPF), dihedral_quandle(3))
        assert len(cols) == 3
        for col in cols:
            assert len(set(col.values())) == 1


class TestStateSum:
    def test_hopf_value(self):
        ring, phi = _phi_hopf()
        value, cols, _ = state_sum(parse_pd(HOPF), trivial_quandle(2),
                                   ring, phi)
        assert value.render() == "2 + 2st"
        assert len(cols) == 4

    def test_reidemeister_ii_pair(self):
        ring, phi = _phi_hopf()
        x = trivial_quandle(2)
        a = state_sum(parse_pd(HOPF_BRAID), x, ring, phi)[0]
        b = state_sum(parse_pd(HOPF_BRAID_R2), x, ring, phi)[0]
        assert a == b == state_sum(parse_pd(HOPF), x, ring, phi)[0]

    def test_reidemeister_i_pair(self):
        phi, x, ring = dihedral_integral_cocycle(3)
        a = state_sum(parse_pd(TREFOIL), x, ring, phi)
        b = state_sum(parse_pd(TREFOIL_KINK), x, ring, phi)
        assert a[0] == b[0]
        assert len(a[1]) == len(b[1]) == 9

    def test_kink_is_unknotted(self):
        phi, x, ring = dihedral_integral_cocycle(3)
        value, cols, _ = state_sum(parse_pd(KINK), x, ring, phi)
        assert value.is_integer() and value.total() == 3

    def test_non_cocycle_rejected(self):
        ring, _ = _phi_hopf()
        bad = Cochain(ring, 2, {(0, 1): (1, 0)})
        with pytest.raises(DiagramError):
            state_sum(parse_pd(HOPF), trivial_quandle(2), ring, bad)

    def test_non_cocycle_refused_at_the_least_failing_triple(self):
        # the 9-element carry quandle, phi changed at one pair: the
        # refusal names the least triple where delta phi != 0, read here
        # off the formula (delta phi)(c) = -phi(d c) term by term
        from twistq.cocycles import modular_extension_cocycle
        phi, x, ring = modular_extension_cocycle(3, 3, [1, 1])
        bad = Cochain(ring, 2, phi.values)
        bad.add_term((4, 7), ring.one())

        def dphi(c):
            acc = ring.zero()
            for i in range(1, 4):
                omitted = bad(c[:i - 1] + c[i:])
                acted = bad(tuple(x.op(c[j], c[i - 1]) for j in range(i - 1))
                            + c[i:])
                face = ring.sub(ring.t_act(omitted), acted)
                acc = ring.sub(acc, face) if i % 2 else ring.add(acc, face)
            return ring.sub(ring.zero(), acc)
        triples = [c for c in itertools.product(range(9), repeat=3)
                   if c[0] != c[1] != c[2]]
        least = next(c for c in triples if not ring.is_zero(dphi(c)))
        spec = ComplexSpec(x, ring, "TQ", 2)
        assert min(delta(spec, bad).values) == least
        with pytest.raises(DiagramError, match=r"2-cocycle condition at "
                           + re.escape(repr(least)) + "$"):
            state_sum(parse_pd(TORUS_MOD2), x, ring, bad)

    def test_torus_values(self):
        from twistq.cocycles import (modular_extension_cocycle,
                                     polynomial_extension_cocycle)
        d = parse_pd(TORUS_MOD2)
        phi, x, ring = modular_extension_cocycle(3, 2, [1, 1])
        assert state_sum(d, x, ring, phi)[0].render() == "9"
        phip, xp, ringp = polynomial_extension_cocycle(3, [1, 1], 2)
        value = state_sum(d, xp, ringp, phip)[0]
        expect = GroupRingElem(ringp, {(0,): 3, (1,): 3, (2,): 3})
        assert value == expect.canonical_under_T()

    def test_mod_p_base_region_free(self):
        # anchoring the numbering at any region gives the same canonical value
        from twistq.cocycles import polynomial_extension_cocycle
        phip, xp, ringp = polynomial_extension_cocycle(3, [1, 1], 2)
        d0 = parse_pd(TORUS_MOD2)
        reference = state_sum(d0, xp, ringp, phip)[0]
        sides = {0: "1L", 1: "1R"}
        for face in range(len(d0.faces)):
            text = TORUS_MOD2 + "face f%d: %s\nbase f%d\n" % (
                face, sides[face], face)
            value = state_sum(parse_pd(text), xp, ringp, phip)[0]
            assert value == reference

    def test_mod_p_needs_trivial_t_power(self):
        phi, x, ring = dihedral_integral_cocycle(3)  # T has order 2
        with pytest.raises(Exception, match="act trivially"):
            state_sum(parse_pd("Xp[2,3,1,4]\nXp[1,4,2,3]\nmod 3\n"),
                      x, ring, phi)

    def test_l_override_matches_computed(self):
        ring, phi = _phi_hopf()
        x = trivial_quandle(2)
        with_override = parse_pd(HOPF + "L 0 -1\nL 1 -1\n")
        assert state_sum(with_override, x, ring, phi)[0].render() == "2 + 2st"

    def test_mirror_preserves_coloring_count(self):
        def mirror(text):
            out = []
            for line in text.strip().splitlines():
                if line.startswith("Xp["):
                    a, b, c, d = line[3:-1].split(",")
                    out.append("Xn[%s,%s,%s,%s]" % (d, a, b, c))
                elif line.startswith("Xn["):
                    a, b, c, d = line[3:-1].split(",")
                    out.append("Xp[%s,%s,%s,%s]" % (b, c, d, a))
            return "\n".join(out) + "\n"
        for text in (HOPF, TREFOIL):
            base = parse_pd(text)
            flip = parse_pd(mirror(text))
            assert flip.euler_characteristic() == 2
            for x in (trivial_quandle(2), dihedral_quandle(3)):
                assert len(colorings(base, x)) == len(colorings(flip, x))


class TestCoboundaryTriviality:
    def test_random_coboundaries_give_coloring_count(self):
        rng = random.Random(20260823)
        r3 = parse_ring("Z3[T]/(T+1)")
        r2 = parse_ring("Z2[T]/(T+1)")
        setups = [(dihedral_quandle(3), r3), (trivial_quandle(2), r2)]
        diagrams = [parse_pd(HOPF), parse_pd(TREFOIL)]
        runs = 0
        while runs < 50:
            x, ring = setups[runs % 2]
            eta = Cochain(ring, 1)
            for a in range(x.size):
                eta.add_term((a,), (rng.randrange(ring.modulus),))
            phi = delta(ComplexSpec(x, ring, "TQ", 1), eta)
            for d in diagrams:
                value, cols, _ = state_sum(d, x, ring, phi)
                assert value.is_integer()
                assert value.total() == len(cols)
            runs += 1

    def test_obstruction_cocycles_give_integers(self):
        ses = SesSpec(parse_ring("Z9[T]/(T+1)"), ((3,),))
        x = dihedral_quandle(3)
        eta = QuandleMap(x, ses.a_quandle, [0, 1, 2])
        phi = obstruction_2cocycle(ses, x, eta)
        for text in (HOPF, TREFOIL, TREFOIL_KINK, KINK):
            value, cols, _ = state_sum(parse_pd(text), x, ses.g_ring, phi)
            assert value.is_integer()
            assert value.total() == len(cols) > 0


SPUN_HOPF = """
sheets: x y z
tp: sign=+1 L=0 x=x y=y z=z
tp: sign=+1 L=0 x=x y=z z=y
tp: sign=-1 L=0 x=y y=z z=x
tp: sign=-1 L=0 x=z y=y z=x
"""


class TestSurfaces:
    def test_parse(self):
        sp = parse_surface(SPUN_HOPF)
        assert sp.sheets == ["x", "y", "z"]
        assert len(sp.triples) == 4

    def test_parse_errors(self):
        with pytest.raises(DiagramError):
            parse_surface("rel: a = b * c\n")
        with pytest.raises(DiagramError):
            parse_surface("sheets: a\ntp: sign=+1 L=0 x=a y=a\n")
        with pytest.raises(DiagramError):
            parse_surface("sheets: a\nrel: a = a * b\n")

    def test_unconstrained_colorings(self):
        assert len(surface_colorings(parse_surface(SPUN_HOPF),
                                     trivial_quandle(3))) == 27

    def test_relation_forces_sheet(self):
        sp = parse_surface("sheets: a b c\nrel: c = a * b\n")
        assert len(surface_colorings(sp, dihedral_quandle(3))) == 9

    def test_contradictory_relations(self):
        sp = parse_surface("sheets: a b c d\nrel: c = a * b\nrel: c = a * d\n")
        cols = surface_colorings(sp, dihedral_quandle(3))
        # b and d must right-act identically on a
        assert len(cols) == 9 < 3 ** 3

    def test_spun_hopf_value(self):
        ring = parse_ring("Z[T]/(T^2-1)")
        theta = Cochain(ring, 3, {(0, 1, 2): (1, 1)})  # (T+1) on (0,1,2)
        value, cols, _ = state_sum_surface(parse_surface(SPUN_HOPF),
                                           trivial_quandle(3), ring, theta)
        assert value.render() == "23 + 2st + 2(st)^-1"
        assert len(cols) == 27

    def test_no_triple_points_counts_colorings(self):
        ring = parse_ring("Z3[T]/(T+1)")
        theta = Cochain(ring, 3)
        sp = parse_surface("sheets: a b\nrel: b = b * a\n")
        value, cols, _ = state_sum_surface(sp, dihedral_quandle(3), ring, theta)
        assert value.is_integer() and value.total() == len(cols)

    def test_coboundary_weight_is_integer(self):
        ring = parse_ring("Z3[T]/(T+1)")
        x = dihedral_quandle(3)
        phi = Cochain(ring, 2, {(0, 1): (1,), (0, 2): (2,), (1, 0): (2,),
                                (1, 2): (1,), (2, 0): (1,), (2, 1): (2,)})
        theta = delta(ComplexSpec(x, ring, "TQ", 2), phi)
        sp = parse_surface(SPUN_HOPF)
        value, cols, _ = state_sum_surface(sp, x, ring, theta)
        assert value.is_integer() and value.total() == len(cols)

    def test_non_cocycle_rejected(self):
        ring = parse_ring("Z3[T]/(T+1)")
        bad = Cochain(ring, 3, {(0, 1, 2): (1,)})
        with pytest.raises(DiagramError):
            state_sum_surface(parse_surface(SPUN_HOPF), dihedral_quandle(3),
                              ring, bad)


# -- the coloring solver against brute force ---------------------------------

def reference_colorings(diagram, x):
    """Every product of colors on the arcs (the semiarcs joined through
    their over-crossings) that satisfies the under-crossing relations,
    sorted by color tuple over the semiarcs."""
    arc_of = {s: s for s in diagram.semiarcs}

    def arc(s):
        while arc_of[s] != s:
            s = arc_of[s]
        return s
    for sign, (a, b, c, d) in diagram.crossings:
        arc_of[arc(b)] = arc(d)
    arcs = sorted({arc(s) for s in diagram.semiarcs})
    pos = {s: arcs.index(arc(s)) for s in diagram.semiarcs}
    # (u, v, w) says color u == color v * color w
    under = [(pos[c], pos[a], pos[d]) if sign > 0 else (pos[a], pos[c], pos[b])
             for sign, (a, b, c, d) in diagram.crossings]
    found = [{s: colors[pos[s]] for s in diagram.semiarcs}
             for colors in itertools.product(range(x.size), repeat=len(arcs))
             if all(colors[u] == x.op(colors[v], colors[w])
                    for u, v, w in under)]
    return sorted(found, key=lambda col: [col[s] for s in diagram.semiarcs])


def reference_surface_colorings(sp, x):
    return [dict(zip(sp.sheets, colors))
            for colors in itertools.product(range(x.size),
                                            repeat=len(sp.sheets))
            if all(colors[sp.sheets.index(c)] == x.op(
                colors[sp.sheets.index(a)], colors[sp.sheets.index(b)])
                for c, a, b in sp.rels)]


QUANDLES = ["T(2)", "R(3)", "R(4)", "A(2;T^2+T+1)", "A(3;T+1)", "R(3)xT(2)"]
CATALOG_PDS = sorted({e["pd"] for e in load_catalog() if "pd" in e})
SURFACES = [SPUN_HOPF,
            "sheets: a b c d\nrel: c = a * b\nrel: c = a * d\n",
            "sheets: a b c d\nrel: b = a * c\nrel: c = b * d\n"
            "rel: d = d * a\n"]


def _quandle(name):
    if name == "R(3)xT(2)":
        return quandle_product(dihedral_quandle(3), trivial_quandle(2))
    return quandle_standard(name)


class TestColoringSolver:
    def test_catalog_has_a_negative_crossing(self):
        assert any("Xn" in pd for pd in CATALOG_PDS)

    @pytest.mark.parametrize("name", QUANDLES)
    @pytest.mark.parametrize("pd", range(len(CATALOG_PDS)))
    def test_catalog_diagrams(self, pd, name):
        d, x = parse_pd(CATALOG_PDS[pd]), _quandle(name)
        assert colorings(d, x) == reference_colorings(d, x)

    @pytest.mark.parametrize("name", QUANDLES)
    @pytest.mark.parametrize("n", range(2, 8))
    def test_torus(self, torus_pd, n, name):
        d, x = parse_pd(torus_pd(n)), _quandle(name)
        assert colorings(d, x) == reference_colorings(d, x)

    @pytest.mark.parametrize("name", QUANDLES)
    @pytest.mark.parametrize("text", range(len(SURFACES)))
    def test_surfaces(self, text, name):
        sp, x = parse_surface(SURFACES[text]), _quandle(name)
        assert surface_colorings(sp, x) == reference_surface_colorings(sp, x)

    def test_long_torus_knot_has_no_recursion_limit(self, torus_pd):
        ring, phi = _phi_hopf()
        value, cols, weights = state_sum(parse_pd(torus_pd(601)),
                                         trivial_quandle(2), ring, phi)
        assert value.render() == "2"
        assert len(cols) == 2
        assert [set(col.values()) for col in cols] == [{0}, {1}]

    def test_many_levels_need_no_recursion(self):
        # 1500 sheets in no relation: one branch level each, one coloring
        sheets = ["s%d" % i for i in range(1500)]
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            cols = surface_colorings(SurfacePresentation(sheets, [], []),
                                     trivial_quandle(1))
        finally:
            sys.setrecursionlimit(limit)
        assert cols == [dict.fromkeys(sheets, 0)]


# -- the planned search against the search it replaced ------------------------

def reference_search(cells, rels, x):
    """knot._colorings before its search was planned, kept as it was.

    Every coloring of `cells` by the quandle x with col[c] == col[a] *
    col[b] for each (c, a, b) in rels, as dicts sorted by color tuple.

    Depth-first search on an explicit stack with an undo trail: a color
    propagates through a * b (to c) and c / b (to a), read off x.table
    and x.inv, and the search branches on the uncolored cell sharing
    most relations with colored cells (the lowest such index on a tie)."""
    idx = {s: i for i, s in enumerate(cells)}
    rels = [(idx[c], idx[a], idx[b]) for c, a, b in rels]
    members = [tuple(set(rel)) for rel in rels]  # distinct cells of each
    touching = [[] for _ in cells]
    for rel, cs in zip(rels, members):
        for i in cs:
            touching[i].append(rel)
    table, inv = x.table, x.inv
    colors = [None] * len(cells)
    found, trail = [], []
    stack = [(0, [])]   # (trail length to undo to, (cell, color) to set)
    while stack:
        mark, queue = stack.pop()
        while len(trail) > mark:
            colors[trail.pop()] = None
        while queue:
            i, v = queue.pop()
            if colors[i] is None:
                colors[i] = v
                trail.append(i)
                for c, a, b in touching[i]:
                    vb = colors[b]
                    if vb is None:
                        continue
                    if colors[a] is not None:
                        queue.append((c, table[colors[a]][vb]))
                    elif colors[c] is not None:
                        queue.append((a, inv[vb][colors[c]]))
            elif colors[i] != v:
                break           # a contradiction: drop this branch
        else:
            free = [i for i, v in enumerate(colors) if v is None]
            if not free:
                found.append(tuple(colors))
                continue
            # score[k]: the relations at k that hold a colored cell
            score = [0] * len(cells)
            for cs in members:
                for j in cs:
                    if colors[j] is not None:
                        for k in cs:
                            score[k] += 1
                        break
            i = max(free, key=score.__getitem__)
            stack.extend((len(trail), [(i, v)]) for v in range(x.size))
    found.sort()
    return [dict(zip(cells, col)) for col in found]


SYSTEM_QUANDLES = ["T(1)", "T(3)", "R(3)", "R(4)", "A(2;T^2+T+1)",
                   "R(3)xT(2)"]


@st.composite
def _relation_systems(draw):
    """(cells, rels): up to 7 cells, named out of index order, and up to
    9 relations c = a * b among them, cells repeating freely."""
    cells = draw(st.permutations("abcdefg"))[:draw(st.integers(0, 7))]
    if not cells:
        return [], []
    cell = st.sampled_from(cells)
    return cells, draw(st.lists(st.tuples(cell, cell, cell), max_size=9))


class TestPlannedSearch:
    @settings(max_examples=300, deadline=None)
    @given(system=_relation_systems(), name=st.sampled_from(SYSTEM_QUANDLES))
    # zero cells; a cell in no relation; c = c * b and c = a * a; a
    # split system; c written by one relation and checked by another
    # once a colors b and d; d read off the inverse table
    @example(system=([], []), name="R(3)")
    @example(system=(list("abcd"), [("c", "a", "b")]), name="R(4)")
    @example(system=(list("abc"), [("c", "c", "b"), ("c", "a", "a")]),
             name="A(2;T^2+T+1)")
    @example(system=(list("abcdef"), [("c", "a", "b"), ("f", "d", "e")]),
             name="R(3)xT(2)")
    @example(system=(list("abcd"), [("b", "a", "a"), ("d", "a", "a"),
                                    ("c", "b", "a"), ("c", "d", "a")]),
             name="T(3)")
    @example(system=(list("abcd"), [("c", "a", "b"), ("c", "d", "b")]),
             name="R(3)")
    def test_against_reference_search(self, system, name):
        cells, rels = system
        x = _quandle(name)
        assert _colorings(cells, rels, x) == reference_search(cells, rels, x)

    def test_plan_is_near_linear_in_free_cells(self):
        # one max() scan per level made 3000 free sheets take 0.3 s
        cells, took = ["s%d" % i for i in range(3000)], []
        for _ in range(3):  # the best of three, against a busy machine
            start = time.perf_counter()
            found = _colorings(cells, [], trivial_quandle(1))
            took.append(time.perf_counter() - start)
        assert min(took) < 0.03
        assert found == [dict.fromkeys(cells, 0)]


# -- face tracing against the tracer it replaced -----------------------------

def reference_faces(d):
    """Diagram._trace_faces before its corners were walked in order, kept
    as it was: each face starts at min() of the unvisited corners."""
    corners = {(ci, k) for ci in range(len(d.crossings)) for k in range(4)}
    faces = []
    while corners:
        start = min(corners)
        orbit = []
        cur = start
        while True:
            orbit.append(cur)
            corners.discard(cur)
            ci, k = cur
            c2, k2 = d._spoke_other_end(ci, k)
            cur = (c2, (k2 - 1) % 4)
            if cur == start:
                break
            if cur not in corners:
                raise DiagramError("face tracing is not a permutation")
        faces.append(frozenset(orbit))
    return faces


class TestFaceTracing:
    @pytest.mark.parametrize("n", list(range(2, 41)) + [601])
    def test_torus(self, torus_pd, n):
        d = parse_pd(torus_pd(n))
        assert d.faces == reference_faces(d)
        assert len(d.faces) == n + 2

    @pytest.mark.parametrize("text", CATALOG_PDS + [
        HOPF, TREFOIL, TREFOIL_KINK, KINK, TORUS_MOD2])
    def test_catalog_and_named_diagrams(self, text):
        d = parse_pd(text)
        assert d.faces == reference_faces(d)
        assert all(d.face_of[c] == fi for fi, f in enumerate(d.faces)
                   for c in f)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_mod_p_diagram(self, torus_pd, p):
        d = parse_pd(torus_pd(7).replace("outer", "base") + "mod %d\n" % p)
        assert d.faces == reference_faces(d)

    def test_a_map_that_is_no_permutation_is_refused(self, monkeypatch):
        # every spoke leads to corner (0, 0): the second face runs into
        # the first, which both tracers refuse
        d = parse_pd(HOPF)
        monkeypatch.setattr(d, "_spoke_other_end", lambda ci, k: (0, 1))
        for trace in (d._trace_faces, lambda: reference_faces(d)):
            with pytest.raises(DiagramError, match="not a permutation"):
                trace()
