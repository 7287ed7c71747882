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
from itertools import groupby, permutations, product
from math import factorial, prod
from types import MappingProxyType

from .scalars import CycNumber, zeta_pow


# -- partitions ---------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n, maxpart=None):
    """All partitions of n as weakly decreasing tuples."""
    if maxpart is None:
        maxpart = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, maxpart), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def multipartitions(r, n):
    """All r-tuples of partitions of total size n."""
    if r < 1:
        raise ValueError("multipartitions need r >= 1, got %r" % (r,))
    if r == 1:
        return tuple((lam,) for lam in partitions(n))
    out = []
    for k in range(n + 1):
        for lam in partitions(k):
            for rest in multipartitions(r - 1, n - k):
                out.append((lam,) + rest)
    return tuple(out)


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
    """Centralizer order of the class with cycle type mu in S_n."""
    z = 1
    mult = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m
        for j in range(1, m + 1):
            z *= j
    return z


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
    cells = []
    for i in range(rows):
        for j in range(lam[i] - 1, mu_pad[i] - 1, -1):
            cells.append((i, j))

    def ok2(i, j, v):
        # right neighbor was filled before (reverse reading order)
        right = fill.get((i, j + 1))
        if right is not None and right < v:
            return False
        up = fill.get((i - 1, j))
        if i > 0 and mu_pad[i - 1] <= j < lam[i - 1]:
            if up is None or up >= v:
                return False
        return True

    def rec2(idx, content):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        i, j = cells[idx]
        for v in range(1, len(nu) + 1):
            if content[v - 1] >= nu[v - 1]:
                continue
            if v > 1 and content[v - 1] >= content[v - 2]:
                continue
            if not ok2(i, j, v):
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
    total = 0
    for kappa in partitions(sum(m1) + sum(m2)):
        c = lr_coeff(kappa, m1, m2)
        if c:
            total += c * lr_coeff(lam, kappa, m3)
    return total


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
    perms = list(permutations(range(1, n + 1)))
    return tuple(
        (colors, tuple(p)) for p in perms for colors in product(range(r), repeat=n)
    )


def class_type(r, g):
    """Conjugacy class invariant: per color, the partition of cycle lengths
    whose cycle color product is zeta^color."""
    f, tau = g
    n = len(f)
    seen = [False] * n
    buckets = [[] for _ in range(r)]
    for i in range(1, n + 1):
        if seen[i - 1]:
            continue
        j = i
        length = 0
        color = 0
        while not seen[j - 1]:
            seen[j - 1] = True
            color = (color + f[j - 1]) % r
            j = tau[j - 1]
            length += 1
        buckets[color].append(length)
    return tuple(tuple(sorted(b, reverse=True)) for b in buckets)


def _mn_terms(lam_bar, cycles):
    """The terms of the Murnaghan-Nakayama rule for G(r,n) at the cycles
    ((length d, color c), ...): the first cycle is removed from one lam_j
    as a d-border strip of height ht, a factor (-1)^ht zeta^(j c), and the
    others recurse.  Yields (sign, exponent of zeta) per way to remove
    them all."""
    if not cycles:
        yield 1, 0
        return
    (d, c), rest = cycles[0], cycles[1:]
    for j, lam in enumerate(lam_bar):
        for new, ht in abacus_moves(lam, -d):
            for sign, e in _mn_terms(lam_bar[:j] + (new,) + lam_bar[j + 1:], rest):
                yield (-1) ** ht * sign, j * c + e


@lru_cache(maxsize=None)
def wreath_char_table(r, n):
    """Character table of G(r,n): (class_reps, class_sizes, table) where
    table[lam_bar][class_type] is a CycNumber; a class's rep is its first
    element in g_elements order.  Each value is the Murnaghan-Nakayama
    rule for G(r,n) (Macdonald, App. B) on the abacus of chi_sn, the
    longest cycles removed first."""
    reps, sizes = {}, {}
    for g in g_elements(r, n):
        t = class_type(r, g)
        reps.setdefault(t, g)
        sizes[t] = sizes.get(t, 0) + 1
    table = {lam_bar: {} for lam_bar in multipartitions(r, n)}
    for t in reps:
        cycles = tuple(sorted(((d, c) for c, mu in enumerate(t) for d in mu), reverse=True))
        for lam_bar, row in table.items():
            coeffs = [0] * r
            for sign, e in _mn_terms(lam_bar, cycles):
                coeffs[e % r] += sign
            row[t] = sum((zeta_pow(r, e) * a for e, a in enumerate(coeffs) if a),
                         CycNumber.zero(r))
    return reps, sizes, table


# -- Kronecker coefficients ---------------------------------------------------


def kronecker(lam, mu, nu):
    """Symmetric group Kronecker coefficient of three partitions of one size
    n: (1/n!) sum over S_n of chi^lam chi^mu chi^nu, by classes."""
    n = sum(lam)
    if not n == sum(mu) == sum(nu):
        raise ValueError("partition sizes %d, %d, %d differ" % (n, sum(mu), sum(nu)))
    total = Fraction(0)
    for rho in partitions(n):
        total += (
            Fraction(chi_sn(lam, rho) * chi_sn(mu, rho) * chi_sn(nu, rho), z_order(rho))
        )
    if total.denominator != 1:
        raise ArithmeticError("Kronecker coefficient is not an integer: %s" % total)
    return int(total)


def _pad(lam, n):
    if not lam:
        return (n,) if n else ()
    if n - sum(lam) < lam[0]:
        raise ValueError("padding below the first part")
    return (n - sum(lam),) + tuple(lam)


def reduced_kronecker(lam, mu, nu):
    """Stable limit of kronecker(lam[n], mu[n], nu[n]), x[n] = (n - |x|, x),
    as one Kronecker coefficient at the stability bound n below.

    g(lam[n], mu[n], nu[n]) is constant for n >= |mu| + |nu| + lam_1
    (Briand-Orellana-Rosas, J. Algebra 2011; Vallejo, Electron. J. Combin.
    1999 has a bound of the same kind), cited from memory and not checked
    against the papers.  g is symmetric in its arguments, so n is the least
    of the three such bounds, raised to |x| + x_1 for each x so that every
    x[n] is a partition.  The tests compare the value with the former
    search (the first two equal consecutive values from n = |lam| + |mu| +
    |nu| on) and check its constancy from n on, on every triple up to
    weight 4.
    """
    triple = tuple(lam), tuple(mu), tuple(nu)
    sizes = [sum(x) for x in triple]
    firsts = [x[0] if x else 0 for x in triple]
    n = max(min(sum(sizes) - s + f for s, f in zip(sizes, firsts)),
            *(s + f for s, f in zip(sizes, firsts)))
    return kronecker(*(_pad(x, n) for x in triple))


# -- K-coefficients over H(r,t) -----------------------------------------------


@lru_cache(maxsize=None)
def _h_classes(r, t):
    """The classes of H(r,t) = (C_r x C_r) wr S_t as (T_a, T_b, T_c, size),
    and |H(r,t)|.  A class is an r^2-multipartition rho of t, color pair
    (a, b) at index a*r + b, of size |H| / prod_c z_{rho_c} r^(2 len(rho_c)).
    T_a and T_b are its psi_1 and psi_2 types (each cycle keeps color a,
    resp. b); T_c inverts its psi_3 type (color -(a+b)), so chi(T_c) is the
    conjugate of chi at psi_3."""
    order = r ** (2 * t) * factorial(t)
    out = []
    for rho in multipartitions(r * r, t):
        images = [[[] for _ in range(r)] for _ in range(3)]
        central = 1
        for idx, parts in enumerate(rho):
            a, b = divmod(idx, r)
            for image, color in zip(images, (a, b, -(a + b) % r)):
                image[color] += parts
            central *= z_order(parts) * r ** (2 * len(parts))
        out.append(tuple(tuple(tuple(sorted(c, reverse=True)) for c in image)
                         for image in images) + (order // central,))
    return tuple(out), order


def k_coefficient(r, delta, delta1, delta2):
    """Multiplicity of the psi_3-pullback of S(delta2) in the tensor product
    of the psi_1-pullback of S(delta) and the psi_2-pullback of S(delta1),
    over H(r,t) = (C_r x C_r) wr S_t: the character inner product summed
    over the classes of H(r,t)."""
    t = weight(delta)
    if not weight(delta1) == t == weight(delta2):
        raise ValueError("multipartition weights differ")
    table = wreath_char_table(r, t)[2]
    chi, chi1, chi2 = table[delta], table[delta1], table[delta2]
    classes, order = _h_classes(r, t)
    total = CycNumber.zero(r)
    for ta, tb, tc, size in classes:
        if chi[ta] and chi1[tb]:
            total = total + chi[ta] * chi1[tb] * chi2[tc] * size
    val = (total * Fraction(1, order)).as_rational()
    if val.denominator != 1 or val < 0:
        raise ArithmeticError("K-coefficient is not a non-negative integer: %s" % val)
    return int(val)


# -- admissible data and R-coefficients ---------------------------------------


def admissible_set(l, m, n):
    out = []
    top = min(l + m - n, l + n - m, m + n - l)
    for t in range(0, top + 1):
        if (t - (l + m + n)) % 2:
            continue
        out.append(
            {
                "t": t,
                "a": (m + n - l - t) // 2,
                "b": (l + n - m - t) // 2,
                "c": (l + m - n - t) // 2,
            }
        )
    return out


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
    three class sizes, a read-only map keyed by triples of class types
    (from wreath_char_table), third type innermost; zero counts are left
    out.  ValueError unless t is admissible.

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
    G(r,n), n in ns, a read-only map keyed by the tuple of types (from
    wreath_char_table), last type innermost; zero counts are left out.
    cycles holds each type's cycles as a sorted tuple of (length, color)."""
    sides = [[(T, k, tuple(sorted((d, c) for c, lam in enumerate(T) for d in lam)))
              for T, k in wreath_char_table(r, n)[1].items()] for n in ns]
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
    l, m, n = (weight(label) for label in labels)
    rows, order = [], 1
    for size, label in zip((l, m, n), labels):
        # dual slots: the character of S(mu)* on the opposite group is
        # chi_mu itself, so no conjugation here
        _, sizes, table = wreath_char_table(r, size)
        rows.append(table[label])
        order *= sum(sizes.values())
    chi1, chi2, chi3 = rows
    total = zero = CycNumber.zero(r)
    for (T1, T2), run in groupby(xt_fixed_points(r, l, m, n, t).items(),
                                 key=lambda item: item[0][:2]):
        inner = zero
        for (_, _, T3), fixed in run:
            inner = inner + chi3[T3] * fixed
        total = total + chi1[T1] * chi2[T2] * inner
    val = (total * Fraction(1, order)).as_rational()
    if val.denominator != 1 or val < 0:
        raise ArithmeticError("X^t multiplicity is not a non-negative integer: %s" % val)
    return int(val)
