"""Link diagrams, Alexander numbering, colorings and cocycle state sums.

Diagrams are given by signed planar-diagram codes.  Each crossing lists
its four semiarcs counterclockwise starting from the incoming under-arc:

    Xp[a, b, c, d]   positive:  a = under-in, b = over-out,
                                c = under-out, d = over-in
    Xn[a, b, c, d]   negative:  a = under-in, b = over-in,
                                c = under-out, d = over-out

Faces are recovered from the counterclockwise corner rotation, so the
same code describes diagrams on surfaces; a `mod p` directive switches
the region numbering from integers (planar, needs an `outer` face) to
Z_p (the same propagation; no numbering means the invariant is 0).

The Boltzmann weight of a colored crossing tau is the additive
contribution sign(tau) * T^{-L(tau)} * phi(x, y) where L is the number
of the source region of tau, x the color of the arc away from which the
normal of the over-arc points, and y the over-arc color; the state sum
collects exp(total weight) over all colorings in the group ring Z[A].
A coloring's weight is summed in plain integers from a table, one per
(sign, L), of the vectors sign * T^-L * phi(x, y), each made on first
use, and reduced once.  The coloring search is planned once per call
from the relations alone, as levels (a branch cell, the cells its color
determines, the relations it completes), and runs as lookups in the
quandle's operation table and its inverse table.
"""

import heapq
import re
from operator import itemgetter

from .coeff import GroupRingElem, RingError
from .chain import ComplexSpec, require_cocycle
from .limits import lines, show

__all__ = [
    "DiagramError",
    "Diagram",
    "parse_pd",
    "alexander_numbering",
    "colorings",
    "state_sum",
    "SurfacePresentation",
    "parse_surface",
    "surface_colorings",
    "state_sum_surface",
]


class DiagramError(ValueError):
    pass


_CROSSING_RE = re.compile(
    r"^X([pn])\s*\[\s*(\w+)\s*,\s*(\w+)\s*,\s*(\w+)\s*,\s*(\w+)\s*\]$",
    re.IGNORECASE)


class Diagram:
    def __init__(self, crossings, mod_p=0, outer=None, base=None,
                 declared_faces=None, l_overrides=None):
        self.crossings = crossings       # [(sign, (a, b, c, d)), ...]
        self.mod_p = mod_p
        self.outer = outer               # face id (planar numbering)
        self.base = base                 # face id (mod-p numbering)
        self.declared_faces = {} if declared_faces is None else declared_faces
        # crossing index -> L
        self.l_overrides = {} if l_overrides is None else l_overrides
        self._index_semiarcs()
        self._trace_faces()
        if self.declared_faces:
            self._check_declared_faces()

    # -- structure ---------------------------------------------------------

    def _index_semiarcs(self):
        self.tails = {}
        self.heads = {}
        for ci, (sign, arcs) in enumerate(self.crossings):
            ends = ((0, 3), (1, 2)) if sign > 0 else ((0, 1), (2, 3))
            for end, seen, where in zip(("heads", "tails"),
                                        (self.heads, self.tails), ends):
                for pos in where:
                    s = arcs[pos]
                    if s in seen:
                        raise DiagramError(
                            "semiarc %s has two %s: orientation is ambiguous"
                            % (show(s), end))
                    seen[s] = (ci, pos)
        dangling = set(self.heads) ^ set(self.tails)
        if dangling:
            raise DiagramError("dangling semiarc(s): %s"
                               % show(tuple(sorted(dangling))))
        if not self.crossings:
            raise DiagramError("diagram has no crossings")
        self.semiarcs = sorted(self.heads)

    def _spoke_other_end(self, ci, pos):
        s = self.crossings[ci][1][pos]
        t, h = self.tails[s], self.heads[s]
        return h if (ci, pos) == t else t

    def _trace_faces(self):
        """Face = orbit of corners under: corner (c, k) (the sector between
        spokes k and k+1) -> follow spoke k to its far end (c', k') -> corner
        (c', k'-1)."""
        order = [(ci, k) for ci in range(len(self.crossings)) for k in range(4)]
        corners = set(order)  # not yet visited
        faces = []
        for start in order:  # ascending, so each face starts at its least
            if start not in corners:
                continue
            orbit, cur = [], start
            while True:
                orbit.append(cur)
                corners.discard(cur)
                ci, k = cur
                c2, k2 = self._spoke_other_end(ci, k)
                cur = (c2, (k2 - 1) % 4)
                if cur == start:
                    break
                if cur not in corners:
                    raise DiagramError("face tracing is not a permutation")
            faces.append(frozenset(orbit))
        self.faces = faces
        self.face_of = {corner: fi for fi, f in enumerate(faces)
                        for corner in f}

    def euler_characteristic(self):
        return len(self.crossings) - len(self.semiarcs) + len(self.faces)

    def left_right_faces(self, s):
        """Face indices (left, right) of the oriented semiarc s."""
        ct, pt = self.tails[s]
        ch, ph = self.heads[s]
        left = self.face_of[(ct, pt)]
        right = self.face_of[(ct, (pt - 1) % 4)]
        if self.face_of[(ch, (ph - 1) % 4)] != left or self.face_of[(ch, ph)] != right:
            raise DiagramError("inconsistent sides along semiarc %s" % show(s))
        return left, right

    def source_region(self, ci):
        """The region the orientation normals of both arcs point away from:
        corner 0 at a positive crossing, corner 1 at a negative one."""
        sign = self.crossings[ci][0]
        return self.face_of[(ci, 0 if sign > 0 else 1)]

    def _face_id_index(self, name):
        if self.declared_faces and name in self._declared_index:
            return self._declared_index[name]
        raise DiagramError("unknown face id %s" % show(name))

    def _check_declared_faces(self):
        """Each declared face is a list of edge-side tokens like '2R';
        verify it names exactly one traced face."""
        self._declared_index = {}
        for name, sides in self.declared_faces.items():
            touched = set()
            for s, side in sides:
                if s not in self.tails:
                    raise DiagramError("face %s names semiarc %s, which the "
                                       "diagram does not have"
                                       % (show(name), show(s)))
                left, right = self.left_right_faces(s)
                touched.add(left if side == "L" else right)
            if len(touched) != 1:
                raise DiagramError(
                    "face %s does not describe a single region" % show(name))
            fi = touched.pop()
            if fi in self._declared_index.values():
                raise DiagramError("face %s duplicates another declared face"
                                   % show(name))
            self._declared_index[name] = fi


def _once(table, key, value, what):
    """table[key] = value, refused when table already holds key."""
    if key in table:
        raise DiagramError("%s is declared twice" % what)
    table[key] = value


def parse_pd(text):
    """Parse a diagram file: crossing lines Xp[...]/Xn[...] plus the
    directives 'outer <face-id>', 'base <face-id>', 'mod <p>',
    'face <id>: <edge><L|R> ...' and per-crossing numbering overrides
    'L <crossing-index> <value>', each at most once (per face or
    crossing)."""
    crossings, directives, declared, overrides = [], {}, {}, {}
    for raw, line, number in lines(text, DiagramError, "a diagram line"):
        m = _CROSSING_RE.match(line)
        if m:
            sign = 1 if m.group(1).lower() == "p" else -1
            crossings.append((sign, tuple(m.group(i) for i in range(2, 6))))
            continue
        head, rest = (line.split(None, 1) + [""])[:2]
        head = head.lower()
        if head in ("outer", "base"):
            _once(directives, head, rest, head)
        elif head == "mod":
            _once(directives, "mod_p", number(rest), head)
            if directives["mod_p"] < 2:
                raise DiagramError("mod needs p >= 2")
        elif head == "l":
            ci_text, val = (rest.split(None, 1) + [""])[:2]
            _once(overrides, number(ci_text), number(val),
                  "L override of crossing %s" % show(ci_text))
        elif head == "face":
            name, _, body = rest.partition(":")
            name = name.strip()
            if not name or not body.strip():
                raise DiagramError("malformed face line %s" % show(raw))
            sides = []  # filled below
            _once(declared, name, sides, "face %s" % show(name))
            for tok in body.split():
                sm = re.match(r"^(\w+)([LR])$", tok, re.IGNORECASE)
                if not sm:
                    raise DiagramError("bad edge-side token %s" % show(tok))
                sides.append((sm.group(1), sm.group(2).upper()))
        else:
            raise DiagramError("cannot parse diagram line %s" % show(raw))
    bad = sorted(ci for ci in overrides if not 0 <= ci < len(crossings))
    if bad:
        raise DiagramError("L override names crossing %s, but the crossings "
                           "are 0..%d" % (show(bad[0]), len(crossings) - 1))
    return Diagram(crossings, declared_faces=declared, l_overrides=overrides,
                   **directives)


def alexander_numbering(diagram):
    """Region numbering with num(left) = num(right) + 1 across every
    semiarc, propagated over the faces from an anchor: planar diagrams
    get integers anchored at outer = 0, `mod p` diagrams residues
    anchored at the base face (or face 0).  A connected diagram has at
    most one numbering.  Returns the list of face numbers, or None when
    no mod-p numbering exists."""
    nf = len(diagram.faces)
    p = diagram.mod_p
    if p:
        anchor = (diagram._face_id_index(diagram.base)
                  if diagram.base is not None else 0)
    else:
        if diagram.euler_characteristic() != 2:
            raise DiagramError(
                "Euler characteristic %d != 2: not a planar diagram "
                "(declare 'mod p' for a diagram on a surface)"
                % diagram.euler_characteristic())
        if diagram.outer is None:
            raise DiagramError("planar numbering needs an 'outer' face")
        anchor = diagram._face_id_index(diagram.outer)
    wrap = (lambda n: n % p) if p else (lambda n: n)
    edges = [diagram.left_right_faces(s) for s in diagram.semiarcs]
    adj = {f: [] for f in range(nf)}
    for left, right in edges:
        adj[right].append((left, 1))
        adj[left].append((right, -1))
    num = {anchor: 0}
    queue = [anchor]
    while queue:
        f = queue.pop()
        for g, delta in adj[f]:
            if g not in num:
                num[g] = wrap(num[f] + delta)
                queue.append(g)
    if len(num) != nf:
        raise DiagramError("diagram is not connected")
    if any(num[left] != wrap(num[right] + 1) for left, right in edges):
        if p:
            return None
        raise DiagramError("inconsistent region numbering")
    return [num[i] for i in range(nf)]


def _colorings(cells, rels, x):
    """Every coloring of `cells` by the quandle x with col[c] == col[a] *
    col[b] for each (c, a, b) in rels, as dicts sorted by color tuple.

    A relation fires once b and one of a and c are colored, writing c as
    x.table[a][b] or a as x.inv[b][c], or checking c.  Which cells get
    colored, and so each branch choice, hang on the relations alone,
    never on the colors, so the plan is made once: per level, a branch
    cell (most relations with colored cells, lowest index on a tie), the
    cells it determines and the relations it completes, each relation
    firing once.  It runs off a stack of (level, color), no recursion."""
    idx = {s: i for i, s in enumerate(cells)}
    rels = [(idx[c], idx[a], idx[b]) for c, a, b in rels]
    touching = [[] for _ in cells]
    for k, rel in enumerate(rels):
        for i in set(rel):
            touching[i].append(k)
    table, inv, size = x.table, x.inv, x.size
    # score[i]: the relations at i holding a colored cell; < 0 once colored
    score, gone = [0] * len(cells), -len(rels) - 1
    # heap: (-score, i), pushed again after a level raises i's score
    heap, colored = [(0, i) for i in range(len(cells))], 0
    state = [0] * len(rels)  # 1 once it holds a colored cell, 2 once fired
    plan = []  # (branch, [(target, table or inv, p, r)], checks, children)
    while colored < len(cells):
        neg, i = heapq.heappop(heap)
        if score[i] != -neg:
            continue
        todo, steps, checks, risen = [i], [], [], []
        score[i] = gone
        plan.append((todo[0], steps, checks,
                     [(len(plan) + 1, v) for v in range(size)]))
        while todo:
            for k in touching[todo.pop()]:
                c, a, b = rel = rels[k]
                if not state[k]:
                    state[k] = 1
                    for i in set(rel):
                        score[i] += 1
                    risen += rel
                if state[k] == 2 or score[b] >= 0 or score[a] >= 0 <= score[c]:
                    continue  # fired, or b or both of a and c uncolored
                state[k] = 2
                if score[a] < 0 and score[c] < 0:
                    checks.append(rel)
                    continue
                steps.append((a, inv, b, c) if score[a] >= 0 else
                             (c, table, a, b))
                todo.append(steps[-1][0])
                score[todo[-1]] = gone
        colored += 1 + len(steps)
        for i in risen:  # still uncolored: its older entries are stale
            if score[i] >= 0:
                heapq.heappush(heap, (-score[i], i))
    colors, last = [0] * len(cells), len(plan) - 1
    found = [] if plan else [()]  # no cells: the one empty coloring
    stack = [(0, v) for v in range(size)] if plan else []
    while stack:
        k, v = stack.pop()
        i, steps, checks, children = plan[k]
        colors[i] = v
        for t, tab, p, r in steps:
            colors[t] = tab[colors[p]][colors[r]]
        for c, a, b in checks:
            if table[colors[a]][colors[b]] != colors[c]:
                break
        else:
            if k < last:
                stack += children
            else:
                found.append(tuple(colors))
    found.sort()
    return [dict(zip(cells, col)) for col in found]


def colorings(diagram, x):
    """All colorings of the semiarcs by the quandle x: the over-arc
    color passes through, and under-out = under-in * over at positive
    crossings (under-in = under-out * over at negative ones)."""
    rels = []
    for sign, (a, b, c, d) in diagram.crossings:
        over_in, over_out = (d, b) if sign > 0 else (b, d)
        # x * x == x in a quandle, so this says over_out == over_in
        rels.append((over_out, over_in, over_in))
        rels.append((c, a, over_in) if sign > 0 else (a, c, over_in))
    return _colorings(diagram.semiarcs, rels, x)


def _weigh(cols, terms, ring, f, canonical):
    """(value, cols, weights): the weight sum_{(sign, L, cells)} sign *
    T^-L * f(colors of cells) of each coloring in cols, and value the
    group-ring sum of their exponentials, canonicalized under the
    T-action when canonical.

    Each term's vector sign * T^-L * f(key) is made once per (sign, L)
    and key, on first use; a coloring's weight sums those vectors in
    plain integers and is reduced once."""
    value = GroupRingElem(ring)
    weights = []
    # every power up front, so an overlong T^-L is refused even when f
    # is zero or no coloring exists
    power = {L: ring.t_pow(ring.one(), -L) for L in {t[1] for t in terms}}
    made = {}   # (sign, L) -> {key: vector}
    rows = [(made.setdefault((sign, L), {}), itemgetter(*cells), sign, L)
            for sign, L, cells in terms]
    for col in cols:
        vectors = []
        for seen, key_of, sign, L in rows:
            key = key_of(col)
            vec = seen.get(key)
            if vec is None:
                vec = f(key)
                if L:
                    vec = ring.mul(power[L], vec)
                if sign < 0:
                    vec = tuple(-c for c in vec)
                seen[key] = vec
            vectors.append(vec)
        w = ring.reduce([sum(c) for c in zip(*vectors)])
        weights.append(w)
        value.add_term(w, 1)
    return value.canonical_under_T() if canonical else value, cols, weights


def state_sum(diagram, x, ring, phi):
    """Cocycle state sum of a link diagram.

    Returns (value, colorings, per_coloring) where value is a group-ring
    element of Z[A], colorings the list of colorings, and per_coloring
    the ring-element weight of each.  For `mod p` diagrams the value is
    canonicalized under the T-action (the base region is a free choice);
    an unnumberable mod-p diagram yields 0.
    """
    require_cocycle(ComplexSpec(x, ring, "TQ", 2), phi, DiagramError,
                    "weight function")
    p = diagram.mod_p
    # T^p acts trivially on the coefficients exactly when T^p == 1
    if p and ring.t_pow(ring.one(), p) != ring.one():
        raise RingError("mod-%s numbering needs T^%s to act trivially on "
                        "the coefficients" % (show(p), show(p)))
    if diagram.l_overrides and len(diagram.l_overrides) == len(diagram.crossings):
        lnum = diagram.l_overrides.__getitem__
    else:
        num = alexander_numbering(diagram)
        if num is None:
            return GroupRingElem(ring), colorings(diagram, x), []
        lnum = lambda ci: diagram.l_overrides.get(
            ci, num[diagram.source_region(ci)])
    # the weight pair is (arc the over-arc normal points away from, over-arc)
    terms = [(sign, lnum(ci), (a, d) if sign > 0 else (c, b))
             for ci, (sign, (a, b, c, d)) in enumerate(diagram.crossings)]
    return _weigh(colorings(diagram, x), terms, ring, phi, p)


# -- knotted surface presentations ------------------------------------------

class SurfacePresentation:
    """Combinatorial data of a knotted-surface diagram: sheet names,
    broken-sheet relations 'c = a * b' along double curves, and triple
    points with sign, source-region number L and the three sheet colors
    (x bottom, y middle, z top)."""

    def __init__(self, sheets, rels, triples):
        self.sheets = sheets
        self.rels = rels            # [(c, a, b)]
        self.triples = triples      # [(sign, L, x, y, z)]
        known = set(self.sheets)
        for c, a, b in self.rels:
            if {c, a, b} - known:
                raise DiagramError("relation uses unknown sheet")
        for sign, L, xx, yy, zz in self.triples:
            if {xx, yy, zz} - known:
                raise DiagramError("triple point uses unknown sheet")
            if sign not in (1, -1):
                raise DiagramError("triple point sign must be +-1")


def parse_surface(text):
    """Parse 'sheets: a b c', 'rel: c = a * b' and
    'tp: sign=+1 L=0 x=a y=b z=c' lines, each sheet named once."""
    sheets, rels, triples = {}, [], []
    for raw, line, number in lines(text, DiagramError, "a surface line"):
        head, _, body = line.partition(":")
        head = head.strip().lower()
        body = body.strip()
        if head == "sheets":
            for name in body.split():
                _once(sheets, name, None, "sheet %s" % show(name))
        elif head == "rel":
            m = re.match(r"^(\w+)\s*=\s*(\w+)\s*\*\s*(\w+)$", body)
            if not m:
                raise DiagramError("malformed relation %s" % show(raw))
            rels.append((m.group(1), m.group(2), m.group(3)))
        elif head == "tp":
            fields = {}
            for tok in body.split():
                k, _, v = tok.partition("=")
                fields[k.lower()] = v
            try:
                triples.append((number(fields["sign"]), number(fields["l"]),
                                fields["x"], fields["y"], fields["z"]))
            except KeyError as e:
                raise DiagramError("triple point missing field %s" % e)
        else:
            raise DiagramError("cannot parse surface line %s" % show(raw))
    if not sheets:
        raise DiagramError("surface presentation has no sheets")
    return SurfacePresentation(list(sheets), rels, triples)


def surface_colorings(sp, x):
    """Colorings of the sheets by the quandle x satisfying the
    broken-sheet relations."""
    return _colorings(sp.sheets, sp.rels, x)


def state_sum_surface(sp, x, ring, theta):
    """Cocycle state sum of a knotted-surface presentation, using a
    3-cocycle theta; the value is canonicalized under the T-action.
    Returns (value, colorings, per_coloring)."""
    require_cocycle(ComplexSpec(x, ring, "TQ", 3), theta, DiagramError,
                    "weight function")
    terms = [(sign, L, (xx, yy, zz)) for sign, L, xx, yy, zz in sp.triples]
    return _weigh(surface_colorings(sp, x), terms, ring, theta, True)
