"""Seeded input generator for the hopfkit benchmark.

Standard library only, and independent of ``hopfkit``: groups are built
here from generators, Rota-Baxter group operators are enumerated here,
dense carriers are transported here with exact ``Fraction`` arithmetic,
and the expected exit code of every job is predicted here from how its
input was built.  The same seed always gives the same files and jobs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from fractions import Fraction

FIXTURES = ("f1_z2.json", "f2_s3_binv.json", "z3z2_smash.json")
CHECKS = ("op-module", "symmetric", "prop44", "prop48", "prop49",
          "central-image", "lemma218")
MONO_DERIVES = ("circle", "tilde", "conjugate", "posthopf", "matched-pair",
                "ybe")
THREADS = ["--threads", "2"]
PRIME_FIELD = ["--field", "101"]


# -- groups ------------------------------------------------------------------

class Group:
    """Cayley table over 0..n-1 with 0 the identity."""

    def __init__(self, name, table, labels):
        self.name = name
        self.table = table
        self.labels = labels
        n = len(table)
        self.n = n
        self.inv = [next(y for y in range(n) if table[x][y] == 0)
                    for x in range(n)]

    def mul(self, a, b):
        return self.table[a][b]

    def spec(self):
        return {"table": [list(r) for r in self.table],
                "labels": list(self.labels)}


def _closure(name, gens, mul, ident, rng, prefix, shuffle):
    """Group generated by ``gens``, elements in breadth-first order.  With
    ``shuffle`` the non-identity elements are put in a seeded order;
    without, the order stays and only the label names are permuted, which
    keeps the cost of an order-dependent search the same for every seed."""
    elems = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    n = len(elems)
    if shuffle:
        order = names = [0] + rng.sample(range(1, n), n - 1)
    else:
        order, names = list(range(n)), rng.sample(range(n), n)
    elems = [elems[i] for i in order]
    index = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(index[mul(a, b)] for b in elems) for a in elems)
    labels = tuple(f"{prefix}{names[i]}" for i in range(n))
    return Group(name, table, labels)


def _perm_mul(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def cyclic_product(orders, rng, shuffle=True):
    """Z_{n1} x Z_{n2} x ... as tuples of residues."""
    k = len(orders)
    gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]

    def mul(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    name = "x".join(f"Z{n}" for n in orders)
    return _closure(name, gens, mul, (0,) * k, rng, "c", shuffle)


def dihedral(n, rng, shuffle=True):
    """Symmetries of the n-gon, order 2n."""
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return _closure(f"D{n}", [rot, ref], _perm_mul, tuple(range(n)), rng, "d",
                    shuffle)


def symmetric(n, rng, shuffle=True):
    cyc = tuple((i + 1) % n for i in range(n))
    swap = (1, 0) + tuple(range(2, n))
    return _closure(f"S{n}", [cyc, swap], _perm_mul, tuple(range(n)), rng, "s",
                    shuffle)


def quaternion(rng, shuffle=True):
    """Q8 as unit quaternions (a, b, c, d) = a + bi + cj + dk."""
    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)
    return _closure("Q8", [(0, 1, 0, 0), (0, 0, 1, 0)], mul, (1, 0, 0, 0),
                    rng, "q", shuffle)


# -- Rota-Baxter operators on groups -----------------------------------------

def is_rb(g, b):
    """B(a) B(c) = B(a B(a) c B(a)^-1) for every pair."""
    t = g.table
    return all(t[b[a]][b[c]] == b[t[t[a][b[a]]][t[c][g.inv[b[a]]]]]
               for a in range(g.n) for c in range(g.n))


def enumerate_rb(g):
    """Every Rota-Baxter operator on g, sorted, by depth-first search over
    partial tables closed under the identity."""
    t, inv, n = g.table, g.inv, g.n
    found = []

    def close(part):
        part = dict(part)
        todo = list(part)
        done = []
        while todo:
            a = todo.pop()
            done.append(a)
            for c in done:
                for x, y in ((a, c), (c, a)):
                    bx, by = part[x], part[y]
                    inner = t[t[x][bx]][t[y][inv[bx]]]
                    val = t[bx][by]
                    if inner in part:
                        if part[inner] != val:
                            return None
                    else:
                        part[inner] = val
                        todo.append(inner)
        return part

    def dfs(part):
        free = [x for x in range(n) if x not in part]
        if not free:
            found.append(tuple(part[x] for x in range(n)))
            return
        for v in range(n):
            nxt = close({**part, free[0]: v})
            if nxt is not None:
                dfs(nxt)

    dfs({0: 0})
    return sorted(set(found))


def non_rb_map(g, rng):
    """A basis map fixing the identity that breaks the identity."""
    while True:
        b = (0,) + tuple(rng.randrange(g.n) for _ in range(g.n - 1))
        if not is_rb(g, b):
            return b


# -- predicted outcomes of the check conditions --------------------------------

def predicted_checks(g, b):
    """Exit code of each check condition on the lift of the group operator
    b, from the group-level form of each identity (group-like bases make
    every Sweedler sum a single term)."""
    t, inv, n = g.table, g.inv, g.n
    rng_ = range(n)

    def m(*xs):
        out = 0
        for x in xs:
            out = t[out][x]
        return out

    circ = [[m(a, b[a], c, inv[b[a]]) for c in rng_] for a in rng_]
    tinv = [next(y for y in rng_ if circ[a][y] == 0) for a in rng_]

    def act(a, c):          # derived action a ⇀ c = B(a) c B(a)^-1
        return m(b[a], c, inv[b[a]])

    def adj(u, c):          # u ▷ c = u c u^-1
        return m(u, c, inv[u])

    def circ_many(*xs):
        out = 0
        for x in xs:
            out = circ[out][x]
        return out

    triples = [(a, x, c) for a in rng_ for x in rng_ for c in rng_]
    ok = {
        "op-module": all(act(m(x, a), c) == act(a, act(x, c))
                         for a, x, c in triples),
        "symmetric": all(m(a, circ[x][c]) == circ_many(m(a, x), tinv[a], m(a, c))
                         for a, x, c in triples),
        "prop44": all(act(x, c) == act(m(a, x), act(tinv[a], c))
                      for a, x, c in triples),
        "prop48": all(adj(b[x], c) == adj(m(b[m(a, x)], b[tinv[a]]), c)
                      for a, x, c in triples),
        "prop49": all(adj(b[m(x, a)], c) == adj(m(b[a], b[x]), c)
                      for a, x, c in triples),
        "central-image": all(m(b[x], c) == m(c, b[x]) for x in rng_
                             for c in rng_),
        "lemma218": all(m(b[x], b[tinv[x]]) == 0 for x in rng_),
    }
    return {k: 0 if v else 1 for k, v in ok.items()}


# -- dense carriers by exact transport -----------------------------------------

def _mat_inverse(p):
    n = len(p)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(p)]
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def dense_bijection(n, rng):
    """Dense rational matrix P with its exact inverse Q.

    A fixed matrix, drawn once per dimension with every entry of it and
    of its inverse nonzero, has its rows permuted and negated by ``rng``.
    So the seed changes the carrier but not the size of any coefficient,
    and the cost of a job does not depend on the seed."""
    fixed = random.Random(f"dense-matrix:{n}")
    while True:
        m = [[Fraction(fixed.choice((-3, -2, -1, 1, 2, 3)), fixed.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        m_inv = _mat_inverse(m)
        if m_inv is not None and all(v != 0 for r in m_inv for v in r):
            break
    rows = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[signs[r] * v for v in m[rows[r]]] for r in range(n)]
    q = [[signs[r] * m_inv[k][rows[r]] for r in range(n)] for k in range(n)]
    return p, q


def _frac(v):
    return f"{v.numerator}/{v.denominator}"


def transported_decls(g, b, rng, perturb=False):
    """Group algebra of g with basis v_i = sum_k Q[k][i] g_k, where Q is
    the inverse of the dense matrix P (coordinates of g_k are column k of
    P); the operator b is carried along as the matrix P B Q."""
    n = g.n
    p, q = dense_bijection(n, rng)

    def to_v(coords):                       # g-coordinates -> v-coordinates
        return [sum(p[r][k] * coords[k] for k in range(n)) for r in range(n)]

    mul, comul, unit, counit, anti, bmat = [], [], [], [], [], []
    for i in range(n):
        for j in range(n):
            prod = [Fraction(0)] * n
            for k in range(n):
                for l in range(n):
                    prod[g.table[k][l]] += q[k][i] * q[l][j]
            mul += [[i, j, r, c] for r, c in enumerate(to_v(prod)) if c]
        col = [[Fraction(0)] * n for _ in range(n)]
        for k in range(n):
            for r in range(n):
                for s in range(n):
                    col[r][s] += q[k][i] * p[r][k] * p[s][k]
        comul += [[i, r, s, col[r][s]] for r in range(n) for s in range(n)
                  if col[r][s]]
        counit.append([i, sum(q[k][i] for k in range(n))])
        s_coords = [Fraction(0)] * n
        b_coords = [Fraction(0)] * n
        for k in range(n):
            s_coords[g.inv[k]] += q[k][i]
            b_coords[b[k]] += q[k][i]
        anti += [[r, i, c] for r, c in enumerate(to_v(s_coords)) if c]
        bmat += [[r, i, c] for r, c in enumerate(to_v(b_coords)) if c]
    e = to_v([Fraction(int(k == 0)) for k in range(n)])
    unit = [[r, c] for r, c in enumerate(e) if c]
    if perturb:
        # 1·v_i changes by e_i·δ != 0, so the unit axiom must fail
        i = next(r for r, c in enumerate(e) if c)
        mul.append([i, i, 0, Fraction(1)])
        merged = {}
        for a, bb, r, c in mul:
            merged[(a, bb, r)] = merged.get((a, bb, r), 0) + c
        mul = [[a, bb, r, c] for (a, bb, r), c in sorted(merged.items()) if c]
    hopf = {"kind": "hopf", "name": "H",
            "basis": [f"v{i}" for i in range(n)],
            "mul": [[a, bb, r, _frac(c)] for a, bb, r, c in mul],
            "unit": [[r, _frac(c)] for r, c in unit],
            "comul": [[a, r, s, _frac(c)] for a, r, s, c in comul],
            "counit": [[a, _frac(c)] for a, c in counit if c],
            "antipode": [[r, a, _frac(c)] for r, a, c in anti]}
    op = {"kind": "map", "name": "B", "on": "H",
          "matrix": [[r, i, _frac(c)] for r, i, c in bmat],
          "rota_baxter": True}
    return [hopf, op]


# -- definition files and job lists ------------------------------------------

def _doc(decls):
    return {"version": 1, "field": "rational", "declarations": decls}


def _lift_decls(g, b):
    images = {g.labels[x]: g.labels[b[x]] for x in range(g.n)}
    return [{"kind": "hopf", "name": "H", "group_algebra": g.spec()},
            {"kind": "map", "name": "B", "on": "H", "images": images,
             "rota_baxter": True}]


def _inner_aut(g, by):
    return {g.labels[x]: g.labels[g.mul(g.mul(by, x), g.inv[by])]
            for x in range(g.n)}


# The check outcomes of the seeded pick: only central-image fails.  A
# failing check stops at its first witness, so a pick with other outcomes
# would make the cost of the check jobs depend on the seed.  S3, Q8, D4
# and D6 all have such operators (3, 3, 51 and 39 of them).
PICK_OUTCOMES = {c: int(c == "central-image") for c in CHECKS}


def _pick_ops(g, rng):
    """Inversion, the trivial operator and one seeded pick from the rest
    of the enumeration with the PICK_OUTCOMES."""
    inv = tuple(g.inv)
    triv = (0,) * g.n
    rest = [b for b in enumerate_rb(g) if b not in (inv, triv)]
    rng.shuffle(rest)
    pick = next(b for b in rest if predicted_checks(g, b) == PICK_OUTCOMES)
    return {"inv": inv, "triv": triv, "pick": pick}


# Which derives and checks run on which operator of a generated group
# (S3, Q8, D4, D6).  S3's pick gets the whole suite; inversion gets
# central-image, which fails on a nonabelian group.  The larger groups
# split the suite, so that a pass stays short enough to repeat many times
# in a run.
MONO_PLANS = (
    {"inv": ((), ("central-image", "lemma218")), "triv": (("circle",), ()),
     "pick": (MONO_DERIVES, CHECKS)},
    {"inv": ((), ("central-image",)), "pick": ((), CHECKS)},
    {"triv": (("circle",), ()), "pick": (MONO_DERIVES, ())},
    {"pick": (("posthopf",), ())},
)


def monomial(rng, fixture_dir):
    """Files and jobs of the group-algebra workload."""
    files, jobs = {}, []
    for name in FIXTURES:
        with open(os.path.join(fixture_dir, name), encoding="utf-8") as fh:
            files[name] = fh.read()
    jobs.append((["verify", "f1_z2.json"], 0))
    jobs.append((["verify", "z3z2_smash.json"], 0))
    jobs.append((["derive", "smash", "z3z2_smash.json"], 0))
    jobs.append((["verify", "f2_s3_binv.json"], 0))

    groups = [dihedral(3, rng), quaternion(rng), dihedral(4, rng),
              dihedral(6, rng)]
    for g, plan in zip(groups, MONO_PLANS):
        ops = _pick_ops(g, rng)
        for tag, (derives, checks) in plan.items():
            b = ops[tag]
            fname = f"{g.name}_{tag}.json"
            decls = _lift_decls(g, b)
            decls.append({"kind": "map", "name": "phi", "on": "H",
                          "images": _inner_aut(g, rng.randrange(1, g.n))})
            files[fname] = json.dumps(_doc(decls), sort_keys=True)
            jobs.append((["verify", fname], 0))
            for what in derives:
                extra = ["--using", "phi"] if what == "conjugate" else []
                jobs.append((["derive", what, fname] + extra, 0))
            expect = predicted_checks(g, b)
            for cond in checks:
                jobs.append((["check", cond, fname], expect[cond]))
        fname = f"{g.name}_bad.json"
        files[fname] = json.dumps(_doc(_lift_decls(g, non_rb_map(g, rng))),
                                  sort_keys=True)
        jobs.append((["verify", fname], 1))

    embed = ["derive", "embed", "D3_pick.json"]
    jobs.append((embed, 0))
    # The 36-dimensional ambient's verify_hopf, over Q and over F_101, is
    # a figure ROADMAP quotes; the traced run reports both.
    jobs.append((embed, 0, {"baseline": True}))
    jobs.append((embed + ["--field", "101"], 0, {"baseline": True}))
    return files, jobs


def dense(rng):
    """Files and jobs of the transported-carrier workload.  prop44, prop48
    and matched-pair/ybe run at dimension 2 only: on dense Z3 they take
    1.5 s, 20 s and a minute per execution."""
    files, jobs = {}, []
    for order in (2, 3):
        g = cyclic_product([order], rng)
        triv, inv = (0,) * order, tuple(g.inv)
        # Z2: the trivial operator and the identity (= inversion); Z3:
        # inversion.  A seeded choice among the operators would change
        # the cost with the seed: the identity stays sparse in any basis.
        for k, b in enumerate([triv, inv] if order == 2 else [inv]):
            fname = f"dense_Z{order}_{k}.json"
            files[fname] = json.dumps(
                _doc(transported_decls(g, b, rng)), sort_keys=True)
            jobs.append((["verify", fname], 0))
            derives = ("circle", "tilde", "posthopf")
            checks = CHECKS
            if order == 2:
                derives += ("matched-pair", "ybe")
            else:
                checks = tuple(c for c in CHECKS
                               if c not in ("prop44", "prop48"))
            for what in derives:
                jobs.append((["derive", what, fname], 0))
            expect = predicted_checks(g, b)
            for cond in checks:
                jobs.append((["check", cond, fname], expect[cond]))
        fname = f"dense_Z{order}_bad.json"
        decls = transported_decls(g, triv, rng, perturb=True)
        files[fname] = json.dumps(_doc(decls[:1]), sort_keys=True)
        jobs.append((["verify", fname], 1))
    return files, jobs


# Search counts known independently: |End(G)| on abelian groups, and the
# counts of the nonabelian groups recorded in the project's roadmap.
SEARCH_COUNTS = {"Z2x2x2": 512, "Z4x4": 256, "S4": 100,
                 "D8": 136, "D6": 80, "D4": 56, "Q8": 8, "Z2x2x2x2": 65536}
SEARCH_GROUPS = {"Z2x2x2": lambda r: cyclic_product([2, 2, 2], r, False),
                 "Z4x4": lambda r: cyclic_product([4, 4], r, False),
                 "S4": lambda r: symmetric(4, r, False),
                 "D8": lambda r: dihedral(8, r, False),
                 "D6": lambda r: dihedral(6, r, False),
                 "D4": lambda r: dihedral(4, r, False),
                 "Q8": lambda r: quaternion(r, False),
                 "Z2x2x2x2": lambda r: cyclic_product([2, 2, 2, 2], r, False)}
BASELINE = "Z2x2x2x2"


def search(rng):
    """Files and jobs of the group-search workload, one search per group.
    The seed names the elements but keeps their order: the search visits
    elements in index order, so a seeded order would make its cost depend
    on the seed.

    Z2^4 takes 15 s a search, so it is a baseline job: the traced run
    executes it once, and the timed passes leave it out."""
    files, jobs = {}, []
    for key, make in SEARCH_GROUPS.items():
        g = make(rng)
        g.name = key
        fname = f"search_{key}.json"
        decl = {"kind": "group", "name": key, "group": g.spec()}
        files[fname] = json.dumps(_doc([decl]), sort_keys=True)
        jobs.append((["search", "rb-group", fname], 0,
                     {"group": g, "count": SEARCH_COUNTS[key],
                      "baseline": key == BASELINE}))
    return files, jobs


def generate(workload, seed, fixture_dir):
    """(files, jobs) for a workload.  A job is a dict with its ``id``, its
    ``argv`` (file names relative to the input directory), the ``expect``ed
    exit code and, for a search, the ``group``, its known ``count`` and
    whether it is a ``baseline`` job."""
    rng = random.Random(f"{workload.split('-')[0]}:{seed}")
    if workload == "monomial-q":
        files, jobs = monomial(rng, fixture_dir)
    elif workload == "monomial-fp":
        # The same files and timed jobs over F_101; the baseline jobs
        # belong to monomial-q.
        files, jobs = monomial(rng, fixture_dir)
        jobs = [(argv + PRIME_FIELD, code) for argv, code, *extra in jobs
                if not extra]
    elif workload == "dense-q":
        files, jobs = dense(rng)
    elif workload == "group-search":
        files, jobs = search(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    for argv, code, *extra in jobs:
        argv = argv + THREADS
        job = {"id": " ".join(argv), "argv": argv, "expect": code}
        if extra:
            job.update(extra[0])
        out.append(job)
    return files, out


def write(files, directory):
    """Write the files and return a digest over their names and bytes."""
    if os.path.isdir(directory):
        shutil.rmtree(directory)
    os.makedirs(directory)
    h = hashlib.sha256()
    for name in sorted(files):
        data = files[name].encode("utf-8")
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
        h.update(name.encode("utf-8") + b"\0" + data + b"\0")
    return h.hexdigest()
