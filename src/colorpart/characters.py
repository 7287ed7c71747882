"""Character engine for symmetric groups and wreath products G(r,n).

Symmetric group characters come from the Murnaghan-Nakayama rule;
Littlewood-Richardson coefficients from lattice-word backtracking.  The
irreducible characters of G(r,n) = C_r wr S_n come from the wreath
Murnaghan-Nakayama rule on the same abacus, a cycle of color c removed
from lambda_j as a border strip weighted zeta^(j c), cached per (r, n);
no subgroup is enumerated.  Every sum on top of them runs over
conjugacy classes (Macdonald, Symmetric Functions, App. B): Kronecker
and reduced Kronecker coefficients, the K-coefficients over H(r,t) =
(C_r x C_r) wr S_t, R-coefficients, and the X^t permutation-module
oracle (one fixed-point table per (r,l,m,n,t)).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial, prod
from operator import add, mul
from types import MappingProxyType

from .scalars import CycNumber, _reduction_rows, zeta_pow


# -- partitions ---------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n, maxpart=None):
    """All partitions of n as weakly decreasing tuples."""
    if n == 0:
        return ((),)
    return tuple((first,) + rest for first in range(min(n, n if maxpart is None else maxpart), 0, -1)
                 for rest in partitions(n - first, first))


@lru_cache(maxsize=None)
def multipartitions(r, n):
    """All r-tuples of partitions of total size n."""
    if r < 1:
        raise ValueError("multipartitions need r >= 1, got %r" % (r,))
    if r == 1:
        return tuple((lam,) for lam in partitions(n))
    return tuple((lam,) + rest for k in range(n + 1) for lam in partitions(k)
                 for rest in multipartitions(r - 1, n - k))


def weight(lam_bar):
    return sum(sum(lam) for lam in lam_bar)


# -- Murnaghan-Nakayama -------------------------------------------------------


def abacus_moves(lam, step):
    """Move one bead of lam's abacus by step (negative: down).

    With n = len(lam) + max(step, 0) beads at the beta-numbers
    lam_i + n - i (an added ribbon starts at most step new rows), moving a
    bead up (down) by |step| to a free position adds (removes) a
    |step|-ribbon.  Yields (new shape, number of beads strictly between the
    old and the new position) per movable bead, top row first.
    """
    n = len(lam) + max(step, 0)
    betas = [(lam[i] if i < len(lam) else 0) + n - 1 - i for i in range(n)]
    bset = set(betas)
    for b in betas:
        to = b + step
        if to < 0 or to in bset:
            continue
        new = sorted((bset - {b}) | {to}, reverse=True)
        shape = tuple(x - (n - i) for i, x in enumerate(new, start=1) if x > n - i)
        lo, hi = min(b, to), max(b, to)
        yield shape, sum(1 for x in bset if lo < x < hi)


@lru_cache(maxsize=None)
def chi_sn(lam, mu):
    """Symmetric group character chi^lam evaluated on cycle type mu."""
    if not mu:
        return 1 if not lam else 0
    # remove each border strip of size mu[0]; its height is the bead count
    return sum((-1) ** ht * chi_sn(new, mu[1:])
               for new, ht in abacus_moves(lam, -mu[0]))


def z_order(mu):
    """Centralizer order of the class with cycle type mu in S_n: prod of
    part^m m! over the parts of each multiplicity m, the t-th equal part
    giving part * t."""
    return prod([part * (mu[:i].count(part) + 1) for i, part in enumerate(mu)])


# -- Littlewood-Richardson ----------------------------------------------------


def _contains(lam, mu):
    return len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu)))


@lru_cache(maxsize=None)
def lr_coeff(lam, mu, nu):
    """Count LR skew tableaux of shape lam/mu and content nu."""
    if sum(lam) != sum(mu) + sum(nu) or not _contains(lam, mu):
        return 0
    if not nu:
        return 1
    rows = len(lam)
    mu_pad = tuple(mu) + (0,) * (rows - len(mu))
    nu = tuple(nu)
    count = 0
    fill = {}
    # reverse reading order: top row first, right to left; the lattice
    # condition then reads "every prefix has content_v <= content_{v-1}"
    cells = [(i, j) for i in range(rows) for j in range(lam[i] - 1, mu_pad[i] - 1, -1)]

    def ok2(i, j, v):
        # right neighbor was filled before (reverse reading order); the cell
        # above, where it is in lam/mu, holds a smaller value
        right, up = fill.get((i, j + 1)), fill.get((i - 1, j))
        if right is not None and right < v:
            return False
        return not (i > 0 and mu_pad[i - 1] <= j < lam[i - 1] and (up is None or up >= v))

    def rec2(idx, content):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        i, j = cells[idx]
        for v in range(1, len(nu) + 1):
            if (content[v - 1] >= nu[v - 1] or v > 1 and content[v - 1] >= content[v - 2]
                    or not ok2(i, j, v)):
                continue
            fill[(i, j)] = v
            content[v - 1] += 1
            rec2(idx + 1, content)
            content[v - 1] -= 1
            del fill[(i, j)]

    rec2(0, [0] * len(nu))
    return count


@lru_cache(maxsize=None)
def lr3_coeff(lam, m1, m2, m3):
    """Triple LR coefficient: multiplicity of s_lam in s_m1 s_m2 s_m3."""
    return sum(c * lr_coeff(lam, kappa, m3) for kappa in partitions(sum(m1) + sum(m2))
               if (c := lr_coeff(kappa, m1, m2)))


def lr_bar3(lam_bar, a_bar, b_bar, c_bar):
    """Componentwise product of triple LR coefficients."""
    out = 1
    for lam, a, b, c in zip(lam_bar, a_bar, b_bar, c_bar):
        out *= lr3_coeff(lam, a, b, c)
        if not out:
            return 0
    return out


# -- wreath products G(r, n) --------------------------------------------------


def pmul(a, b):
    """(a b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


def pinv(a):
    out = [0] * len(a)
    for i, v in enumerate(a, start=1):
        out[v - 1] = i
    return tuple(out)


def gmul(r, g, h):
    """(f, tau)(h, sigma) = (f * h_tau, tau sigma), h_tau(i) = h(tau^{-1}(i))."""
    (f, tau), (hc, sigma) = g, h
    tinv = pinv(tau)
    colors = tuple((f[i] + hc[tinv[i] - 1]) % r for i in range(len(f)))
    return colors, pmul(tau, sigma)


def ginv(r, g):
    f, tau = g
    tinv = pinv(tau)
    colors = tuple((-f[tau[i] - 1]) % r for i in range(len(f)))
    return colors, tinv


@lru_cache(maxsize=None)
def g_elements(r, n):
    return tuple((colors, p) for p in permutations(range(1, n + 1))
                 for colors in product(range(r), repeat=n))


@lru_cache(maxsize=None)
def _class_sizes(q, n):
    """The classes of C_q wr S_n by type, a q-multipartition rho of n (the
    cycles whose colors sum to c mod q have lengths rho_c), each of size
    q^n n! / prod_c z_{rho_c} q^len(rho_c)."""
    order = q ** n * factorial(n)
    return {rho: order // prod(z_order(mu) * q ** len(mu) for mu in rho)
            for rho in multipartitions(q, n)}


def _cycles(T):
    """The cycles of class type T as (length, color), longest first."""
    return tuple(sorted(((d, c) for c, mu in enumerate(T) for d in mu), reverse=True))


@lru_cache(maxsize=None)
def _mn(r, lam_bar, cycles):
    """The Murnaghan-Nakayama rule for G(r,n) at the cycles ((length d,
    color c), ...) as r integer counts, the e-th the coefficient of zeta^e:
    the first cycle is removed from one lam_j as a d-border strip of height
    ht, a factor (-1)^ht zeta^(j c), and the others recurse."""
    if not cycles:
        return (1,) + (0,) * (r - 1)
    (d, c), rest = cycles[0], cycles[1:]
    out = [0] * r
    for j, lam in enumerate(lam_bar):
        for new, ht in abacus_moves(lam, -d):
            sub = _mn(r, lam_bar[:j] + (new,) + lam_bar[j + 1:], rest)
            for e, a in enumerate(sub):
                out[(e + j * c) % r] += (-1) ** ht * a
    return tuple(out)


@lru_cache(maxsize=None)
def wreath_char_table(r, n):
    """Character table of G(r,n): (class_reps, class_sizes, table) where
    table[lam_bar][T] is a CycNumber, T a class type.  A class's rep lays its
    cycles on consecutive points, longest first, each cycle's color on its
    first point.  Each value is the Murnaghan-Nakayama rule for G(r,n)
    (Macdonald, App. B) on the abacus of chi_sn."""
    sizes = _class_sizes(r, n)
    reps, table = {}, {lam_bar: {} for lam_bar in multipartitions(r, n)}
    for T in sizes:
        cycles, colors, perm = _cycles(T), [], []
        for d, c in cycles:
            start = len(perm)
            colors += [c] + [0] * (d - 1)
            perm += [start + (i + 1) % d + 1 for i in range(d)]
        reps[T] = tuple(colors), tuple(perm)
        for lam_bar, row in table.items():
            row[T] = sum((zeta_pow(r, e) * a for e, a in enumerate(_mn(r, lam_bar, cycles)) if a),
                         CycNumber.zero(r))
    return reps, sizes, table


def _class_sum(r, rows, items, order, what):
    """The sum of rows[0][T_0] rows[1][T_1] ... count over the items
    ((T_0, T_1, ...), count), over the group order, as an int;
    ArithmeticError unless it is a non-negative integer.  No CycNumber is
    formed: each character value is read once as its power-basis
    coordinates, the products are polynomials in z held as one int list
    per degree over all items (items is iterated twice), and their sums
    are reduced by Phi_r once, top degree first."""
    low = _reduction_rows(r)[0]  # z^d in the power basis
    d = len(low)
    keys = [key for key, _ in items]
    poly = [[n for _, n in items]]  # poly[e][i]: item i's coordinate of z^e so far
    for j, row in enumerate(rows):
        out = [[0] * len(keys) for _ in range(len(poly) + d - 1)]
        for e, col in enumerate(zip(*[row[key[j]].coeffs for key in keys])):
            if any(col):
                for f, vec in enumerate(poly):
                    out[e + f] = list(map(add, out[e + f], map(mul, vec, col)))
        poly = out
    acc = [sum(vec) for vec in poly]
    for k in range(len(acc) - 1, d - 1, -1):
        for i, p in enumerate(low):
            acc[k - d + i] += acc[k] * p
    if any(acc[1:d]) or acc[0] % order or acc[0] < 0:
        raise ArithmeticError("%s is not a non-negative integer: %r"
                              % (what, CycNumber(r, acc[:d]) * Fraction(1, order)))
    return acc[0] // order


# -- Kronecker coefficients ---------------------------------------------------


def kronecker(lam, mu, nu):
    """Symmetric group Kronecker coefficient of three partitions of one size
    n: (1/n!) sum over S_n of chi^lam chi^mu chi^nu, by classes."""
    n = sum(lam)
    if not n == sum(mu) == sum(nu):
        raise ValueError("partition sizes %d, %d, %d differ" % (n, sum(mu), sum(nu)))
    total = sum(Fraction(chi_sn(lam, rho) * chi_sn(mu, rho) * chi_sn(nu, rho), z_order(rho))
                for rho in partitions(n))
    if total.denominator != 1:
        raise ArithmeticError("Kronecker coefficient is not an integer: %s" % total)
    return int(total)


def _pad(lam, n):
    if not lam:
        return (n,) if n else ()
    if n - sum(lam) < lam[0]:
        raise ValueError("padding below the first part")
    return (n - sum(lam),) + tuple(lam)


def _stability_bound(lam, mu, nu):
    """The n from which g(lam[n], mu[n], nu[n]) is constant, x[n] = (n - |x|, x).

    It is constant for n >= |mu| + |nu| + lam_1
    (Briand-Orellana-Rosas, J. Algebra 2011; Vallejo, Electron. J. Combin.
    1999 has a bound of the same kind), cited from memory and not checked
    against the papers.  g is symmetric in its arguments, so n is the least
    of the three such bounds, raised to |x| + x_1 for each x so that every
    x[n] is a partition."""
    sizes = [sum(x) for x in (lam, mu, nu)]
    firsts = [x[0] if x else 0 for x in (lam, mu, nu)]
    return max(min(sum(sizes) - s + f for s, f in zip(sizes, firsts)),
               *(s + f for s, f in zip(sizes, firsts)))


def reduced_kronecker(lam, mu, nu):
    """Stable limit of kronecker(lam[n], mu[n], nu[n]), as one Kronecker
    coefficient at n = _stability_bound.  The tests compare the value with
    the former search (the first two equal consecutive values from
    n = |lam| + |mu| + |nu| on) and check its constancy from n on, on every
    triple up to weight 4."""
    n = _stability_bound(lam, mu, nu)
    return kronecker(*(_pad(tuple(x), n) for x in (lam, mu, nu)))


# -- K-coefficients over H(r,t) -----------------------------------------------


@lru_cache(maxsize=None)
def _h_classes(r, t):
    """The classes of H(r,t) = (C_r x C_r) wr S_t as ((T_a, T_b, T_c), size).
    A class is an r^2-multipartition rho of t, color pair (a, b) at index
    a*r + b.  T_a and T_b are its psi_1 and psi_2 types (each cycle keeps
    color a, resp. b); T_c inverts its psi_3 type (color -(a+b)), so
    chi(T_c) is the conjugate of chi at psi_3."""
    out = []
    for rho, size in _class_sizes(r * r, t).items():
        images = [[[] for _ in range(r)] for _ in range(3)]
        for idx, parts in enumerate(rho):
            a, b = divmod(idx, r)
            for image, color in zip(images, (a, b, -(a + b) % r)):
                image[color] += parts
        out.append((tuple(tuple(tuple(sorted(c, reverse=True)) for c in image)
                          for image in images), size))
    return tuple(out)


def k_coefficient(r, delta, delta1, delta2):
    """Multiplicity of the psi_3-pullback of S(delta2) in the tensor product
    of the psi_1-pullback of S(delta) and the psi_2-pullback of S(delta1),
    over H(r,t) = (C_r x C_r) wr S_t: the character inner product summed
    over the classes of H(r,t)."""
    t = weight(delta)
    if not weight(delta1) == t == weight(delta2):
        raise ValueError("multipartition weights differ")
    table = wreath_char_table(r, t)[2]
    return _class_sum(r, [table[delta], table[delta1], table[delta2]], _h_classes(r, t),
                      r ** (2 * t) * factorial(t), "K-coefficient")


# -- admissible data and R-coefficients ---------------------------------------


def _admissible(l, m, n):
    """The admissible (t, a, b, c), lazily from t = 0."""
    return ({"t": t, "a": (m + n - l - t) // 2, "b": (l + n - m - t) // 2,
             "c": (l + m - n - t) // 2}
            for t in range(min(l + m - n, l + n - m, m + n - l) + 1) if (t - l - m - n) % 2 == 0)


def admissible_set(l, m, n):
    return list(_admissible(l, m, n))


def xt_formula(r, lam_bar, mu_bar, nu_bar, t):
    """The LR/K sum: multiplicity of S(lam)xS(mu)*xS(nu)* in k X^t."""
    a, b, c = _xt_kinds(weight(lam_bar), weight(mu_bar), weight(nu_bar), t)
    total = 0
    for alpha in multipartitions(r, a):
        for beta in multipartitions(r, b):
            for gamma in multipartitions(r, c):
                for delta in multipartitions(r, t):
                    x1 = lr_bar3(lam_bar, beta, delta, gamma)
                    if not x1:
                        continue
                    for delta1 in multipartitions(r, t):
                        x2 = lr_bar3(mu_bar, gamma, delta1, alpha)
                        if not x2:
                            continue
                        for delta2 in multipartitions(r, t):
                            x3 = lr_bar3(nu_bar, alpha, delta2, beta)
                            if not x3:
                                continue
                            k = k_coefficient(r, delta, delta1, delta2)
                            total += x1 * x2 * x3 * k
    return total


def r_coefficient(r, lam_bar, mu_bar, nu_bar):
    """Structure constant in the simple-module basis: sum of the X^t
    multiplicities over all admissible t."""
    l, m, n = weight(lam_bar), weight(mu_bar), weight(nu_bar)
    return sum(
        xt_formula(r, lam_bar, mu_bar, nu_bar, d["t"]) for d in admissible_set(l, m, n)
    )


def theorem_formula_check(r, lam_bar, mu_bar, nu_bar):
    """Product of per-color reduced Kronecker coefficients vs R."""
    lhs = 1
    for lam, mu, nu in zip(lam_bar, mu_bar, nu_bar):
        lhs *= reduced_kronecker(lam, mu, nu)
        if not lhs:
            break
    rhs = r_coefficient(r, lam_bar, mu_bar, nu_bar)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs}


# -- the X^t permutation module oracle -----------------------------------------


def _xt_kinds(l, m, n, t):
    """(a, b, c): the numbers of {j',k''}, {i,k''} and {i,j'} parts beside
    the t parts {i,j',k''}; ValueError unless t is admissible."""
    for d in admissible_set(l, m, n):
        if d["t"] == t:
            return d["a"], d["b"], d["c"]
    raise ValueError("t = %d is not admissible" % t)


@lru_cache(maxsize=None)
def _orbit_groupings(r, sides, t):
    """The number of ways to group the cycles on three sides (sorted tuples
    of (length, color)) into closed orbits whose three-side lengths sum to
    t, each orbit of d-cycles placed in r d^(cycles - 1) ways.  The first
    cycle of the first nonempty side joins one cycle of its length from
    one or both later sides; equal cycles are equal choices."""
    a = next((a for a, s in enumerate(sides) if s), None)
    if a is None:
        return int(t == 0)
    (d, color), rest = sides[a][0], sides[a][1:]
    options = [[(1, None, s)] + [(s.count(cyc), cyc[1], s[:i] + s[i + 1:])
                                 for i, cyc in enumerate(s)
                                 if cyc[0] == d and s.index(cyc) == i]
               for s in sides[a + 1:]]
    total = 0
    for picks in product(*options):
        colors = [c for _, c, _ in picks if c is not None]
        left = t - d if len(colors) == 2 else t
        if not colors or (color + sum(colors)) % r or left < 0:
            continue
        ways = r * d ** len(colors) * prod(mult for mult, _, _ in picks)
        later = tuple(s for _, _, s in picks)
        total += ways * _orbit_groupings(r, sides[:a] + (rest,) + later, left)
    return total


@lru_cache(maxsize=None)
def xt_fixed_points(r, l, m, n, t):
    """Fixed-point counts on X^t of G(r,l) x G(r,m) x G(r,n) times the
    three class sizes, a read-only map keyed by triples of class types,
    third type innermost; zero counts are left out.  ValueError unless t
    is admissible.

    X^t holds the colored tripartite matchings with t parts {i,j',k''};
    a group element moves each vertex of a part along its cycle and adds
    that vertex's color.  Let g fix x and let p be a part of x.  A part
    has at most one vertex per side and the parts of x are disjoint, so
    g^j p = p once g^j p keeps one vertex of p: the orbit of p has the
    length d of the cycle through each of its vertices and runs once
    through one d-cycle on each side p touches.  The color of g^d p is
    that of p plus the colors of those cycles, so the orbit closes iff
    they sum to 0 mod r.  The color of p (r ways) and, for each cycle
    beyond the first, the vertex that shares a part with a fixed vertex
    of the first (d ways) then place the orbit: r d^(cycles - 1) ways.
    So a count is a sum over the groupings of the cycles of g1, g2 and g3
    into closed orbits of two or three cycles on distinct sides, whose
    three-cycle orbits (d parts {i,j',k''} each) have lengths summing to
    t, of the product of the orbits' ways: it depends on the class types
    alone, and no element of X^t is formed.
    """
    _xt_kinds(l, m, n, t)
    return _class_table(r, (l, m, n), lambda sides: _orbit_groupings(r, sides, t))


def _class_table(r, ns, count):
    """count(cycles) times the class sizes for each tuple of class types of
    G(r,n), n in ns, a read-only map keyed by the tuple of types, last type
    innermost; zero counts are left out.  cycles holds each type's cycles
    (_cycles)."""
    sides = [[(T, k, _cycles(T)) for T, k in _class_sizes(r, n).items()] for n in ns]
    table = {}
    for classes in product(*sides):
        fixed = count(tuple(cycles for _, _, cycles in classes))
        if fixed:
            table[tuple(T for T, _, _ in classes)] = fixed * prod(k for _, k, _ in classes)
    return MappingProxyType(table)


def xt_multiplicity_oracle(r, lam_bar, mu_bar, nu_bar, t):
    """Multiplicity of S(lam) x S(mu)* x S(nu)* in k X^t: the inner product
    of its character with the permutation character of X^t (Cauchy-
    Frobenius), sum_{T1,T2} chi1 chi2 (sum_{T3} chi3 fixed) over the
    class-summed fixed points."""
    labels = (lam_bar, mu_bar, nu_bar)
    sizes = [weight(label) for label in labels]
    # dual slots: the character of S(mu)* on the opposite group is chi_mu
    # itself, so no conjugation here
    rows = [wreath_char_table(r, n)[2][label] for n, label in zip(sizes, labels)]
    return _class_sum(r, rows, xt_fixed_points(r, *sizes, t).items(),
                      prod(r ** n * factorial(n) for n in sizes), "X^t multiplicity")
