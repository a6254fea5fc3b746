"""Test oracles: computations the library no longer makes, kept to check it.

`minimal_free_resolution` reads its Betti table off the ranks of a Schreyer
frame's constant part, packed, and keeps no matrices.  `resolve` rebuilds
that frame with the library's own `_closed_basis` and `_frame`, unpacks it
(`frame_parts`), prunes it to the matrices of the minimal resolution
(`prune`), and raises unless the pruned shifts are the rank read-out's, so
every Betti table a test builds through it keeps a second computation.

The frame's constant entries cancel in pairs by Gaussian elimination on the
complex: a unit u in row r and column s of a map turns every other column t
into t - (t_r / u) s and drops row r, column s, and row s of the next map.
Cancelling in a map leaves the maps above it with no new constant entry, so
the maps are cleared from the last one down; the map into R^s only loses
the columns cancelled as rows.  After that, no constant entry is left, and
the complex is the minimal resolution: its first matrix is the basis
elements that survived, minimal generators of the column module.

`induced_key` is Schreyer's order as its definition, level by level; the
frame packs it for all levels at once (`resolutions._layout`).

`kernel` is the elimination-based implicitization of a ring map, and
`eliminated` the presentation ideal J of a de Jonquieres map by that route:
the library certifies J's predicted generators instead (`rees.rees_ideal`)
and reads the implicit equation of a specialized map in closed form
(`rees.specialization_check`).
"""

from fractions import Fraction
from math import gcd
from operator import mul

from jonq import groebner, resolutions
from jonq.polycore import JonqError, Polynomial, RingSpec, mono_mul, transport


def induced_key(key, leads):
    """Schreyer's order on the free module with one basis element e_u per
    lead, from the order `key` on the module the leads live in: m e_u ranks
    as the term m lead_u does under `key`, and a tie goes to the smaller u
    (La Scala & Stillman, JSC 1998)."""
    def induced(term):
        u = term[0]
        return key(leads[u][:2] + mono_mul(leads[u][2:], term[2:])) + (-u,)
    return induced


def kernel(target: RingSpec, images: dict) -> list[Polynomial]:
    """Reduced grevlex basis, in `target`, of the kernel of a ring map.

    `images` sends target variable names to polynomials of one source ring;
    every other target variable goes to the source variable of the same name,
    as in `polycore.substitute`.  The kernel is (y - image(y)) contracted to
    the target variables, in the ring of the source-only variables followed
    by `target`'s (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
    3.3).  The part of the reduced elimination basis free of the source-only
    variables is itself the reduced grevlex basis of the contraction, so one
    `groebner.eliminate` and no second Buchberger run is needed.
    """
    source = groebner._common_ring(list(images.values()))
    if any(nm in source.names for nm in images):
        raise JonqError("a mapped target variable must not name a source variable")
    extra = tuple(nm for nm in source.names if nm not in target.names)
    big = RingSpec(extra + target.names, target.modulus)
    gens = [big.variable(nm) - transport(img, big) for nm, img in images.items()]
    return [transport(p, target) for p in groebner.eliminate(gens, len(extra))]


def eliminated(j) -> groebner.GroebnerBasis:
    """J, the kernel of y_i -> t F_i, by eliminating t (`kernel`)."""
    s_ring = j.working_ring()
    tx = RingSpec(("t",) + j.source.names, s_ring.modulus)
    t = tx.variable("t")
    basis = tuple(kernel(s_ring, {
        name: t * transport(form, tx) for name, form in zip(j.target.names, j.base_forms)}))
    return groebner.GroebnerBasis(s_ring, basis, basis)


def frame_parts(gens):
    """(ring, rank, levels) of the frame `minimal_free_resolution(gens)`
    reads, or None when the module is zero: levels[k] lists level k + 1 in
    frame order as (vector, lead, shift) triples, the vectors unpacked.

    A syzygy's rows are renamed from the frame's components tags + u to
    u, and its terms go by descending monomial, then by ascending order[u],
    the place in which u was made: the order in which the tag-block engines
    the frame replaced popped them, and in which `prune` takes its pivots.
    RESOLUTIONS_DIGEST pins that order."""
    ring, rank, _, basis = resolutions._closed_basis(gens)
    if not basis.elems:
        return None
    # the module's `_frame`, so that a test can replace it
    skeleton, pk, packed = resolutions._frame(basis)
    levels = [[({pk.unpack(t): c for t, c in v.items()}, lead, shift)
               for (v, shift), lead in zip(packed[0], skeleton[0][1])]]
    for (order, _, _), (_, placed, _), tags, level in zip(
            skeleton, skeleton[1:], pk.offsets[1:], packed[1:]):
        levels.append([(_renamed(pk, v, tags, order), lead, shift)
                       for (v, shift), lead in zip(level, placed)])
    return ring, rank, levels


def _renamed(pk, v: dict, tags: int, order) -> dict:
    """The packed syzygy v as {(u, -u) + mono: c}, in the order `frame_parts`
    names.  A packed mono is an int, and distinct ones differ by at least 1,
    so m * len(order) - order[u] sorts by mono and then by order[u]."""
    keyed = []
    for t, c in v.items():
        g = t & pk.cmask
        m = t - pk.bases[g]
        keyed.append((m * len(order) - order[g - tags], g - tags, m, c))
    keyed.sort(reverse=True)
    exponents = pk.fields[2:]
    return {(u, -u) + tuple([m >> s & pk.fmask for s in exponents]): c
            for _, u, m, c in keyed}


def resolve(gens):
    """(res, matrices): `minimal_free_resolution(gens)` and its matrices,
    the frame pruned; raises JonqError unless the pruned shifts are
    res.shifts.  matrices[k] maps position k+1 to position k as a tuple of
    columns, each a tuple of polynomials over position k's rank."""
    res = resolutions.minimal_free_resolution(gens)
    parts = frame_parts(gens)
    if parts is None:
        return res, ()
    shifts, matrices = prune(*parts)
    if shifts != res.shifts:
        raise JonqError("the pruned frame's shifts differ from its rank read-out")
    return res, matrices


def verify_complex(gens) -> bool:
    """True iff the pruned matrices of `resolve(gens)` form a graded complex
    with its shifts."""
    res, matrices = resolve(gens)
    return resolutions.is_graded_complex(res.ring, res.shifts, matrices)


def prune(ring: RingSpec, rank: int, levels) -> tuple:
    """(shifts, matrices) of the minimal resolution left when the frame's
    constant entries cancel.

    A unit entry u of the map from level k+1 to level k, in row r and
    column s, cancels both: every other column t becomes t - (t_r / u) s,
    row r and column s are dropped, and so is row s of the next map
    (Gaussian elimination on a complex).  The maps go from the last to the
    first, so a column that a later pivot cancels as a row of the map above
    is never updated.  A column is {row: {monomial: int}} over a
    denominator (1 over GF(p)), so no fraction appears before the output,
    and a monomial is an int of fields wide enough for the largest shift,
    so that multiplying monomials is adding ints; level 1's rows are the
    components of R^s.
    """
    mod = ring.modulus
    width = max(shift for level in levels for _, _, shift in level).bit_length() + 1
    alive = [[True] * len(level) for level in levels]
    dens = [[1] * len(level) for level in levels]
    weights = [0, 0] + [1 << width * i for i in range(ring.nvars)]
    cols: list = []
    for level in levels:
        cols.append([])
        for v, _, _ in level:
            col: dict = {}
            for t, c in v.items():
                col.setdefault(t[0], {})[sum(map(mul, t, weights))] = c
            cols[-1].append(col)
    for k in range(len(levels) - 1, 0, -1):
        rows, here = alive[k - 1], alive[k]
        for s, sigma in enumerate(cols[k]):
            if not here[s]:  # cancelled as a row of the map above
                continue
            r = next((r for r, e in sigma.items() if 0 in e and rows[r]), None)
            if r is None:
                continue
            u = sigma[r][0]
            here[s] = rows[r] = False
            inv = None if mod is None else pow(u, -1, mod)
            for t_i, tau in enumerate(cols[k]):
                if here[t_i] and r in tau:
                    dens[k][t_i] *= _cancel(tau, sigma, r, u, inv, rows, mod)
    return _output(ring, rank, levels, cols, alive, dens, width)


def _cancel(tau: dict, sigma: dict, r: int, u: int, inv, rows, mod) -> int:
    """tau := a tau - (t / g) sigma, t = tau's entry in row r, so that row r
    of tau vanishes; returns the factor a (1 over GF(p), u / g > 0 over Q
    with g = +-gcd(u, content of t)), by which tau's denominator grows."""
    t = tau.pop(r)
    if mod is None:
        g = gcd(u, *t.values()) * (1 if u > 0 else -1)
        a = u // g
        t = {m: c // g for m, c in t.items()}
        if a != 1:
            for e in tau.values():
                for m in e:
                    e[m] *= a
    else:
        a = 1
        t = {m: c * inv for m, c in t.items()}
    for row, e in sigma.items():
        if not rows[row]:
            continue
        target = tau.setdefault(row, {})
        get = target.get
        for m1, c1 in t.items():
            for m2, c2 in e.items():
                m = m1 + m2
                target[m] = get(m, 0) - c1 * c2
        for m, c in list(target.items()):
            if mod is not None:
                c %= mod
            if c:
                target[m] = c
            else:
                del target[m]
        if not target:
            del tau[row]
    return a


def _output(ring: RingSpec, rank0: int, levels, cols, alive, dens, width: int) -> tuple:
    """(shifts, matrices) of the frame's surviving elements, each level sorted
    by shift; a row with no output row is an element that was cancelled."""
    mod = ring.modulus
    mask, spans = (1 << width) - 1, range(0, width * ring.nvars, width)
    shifts, matrices = [(0,) * rank0], []
    row_of = {r: r for r in range(rank0)}
    for k in range(len(levels)):
        out, next_row = [], {}
        survivors = sorted((s for s, live in enumerate(alive[k]) if live),
                           key=lambda s: levels[k][s][2])
        for s in survivors:
            next_row[s] = len(out)
            entries: list[dict] = [{} for _ in row_of]
            if mod is None:
                scale = Fraction(1, dens[k][s])
            else:
                scale = pow(dens[k][s], -1, mod)
            for row, e in cols[k][s].items():
                i = row_of.get(row)
                if i is None:
                    continue
                entries[i] = {tuple([m >> at & mask for at in spans]):
                              c * scale if mod is None else c * scale % mod
                              for m, c in e.items()}
            out.append(tuple(Polynomial._from_dict(ring, d) for d in entries))
        if not out:
            break
        matrices.append(tuple(out))
        shifts.append(tuple(levels[k][s][2] for s in survivors))
        row_of = next_row
    return tuple(shifts), tuple(matrices)
