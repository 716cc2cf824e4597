"""The tensor-power embedding of the universal calculus: the reference the
bar-native structure maps are tested against.

Degree r of Ω_u sits inside A^{⊗(r+1)}, flat-indexed with the first slot
most significant.  There the product contracts the last slot of one factor
with the first slot of the other through the structure constants, and d is
the alternating unit insertion.  Bar basis vectors are built from these two
maps alone, so nothing here relies on the bar-native closed forms; the only
shared piece is ``UniversalCalculus.from_emb``, which is itself checked
against a dense solve on these columns.
"""

from functools import cache

from bimodconn.linalg import _col_vec, zeros


def product_emb(a, u, r, v, s):
    """Ω^r × Ω^s → Ω^{r+s} on tensor-power coordinates."""
    n, tail = a.dim, a.dim ** s
    out = zeros(n ** (r + s + 1))
    v_terms = [(iv, cv) for iv, cv in enumerate(v) if cv]
    for iu, cu in enumerate(u):
        if cu:
            head, last = divmod(iu, n)
            for iv, cv in v_terms:
                first, rest = divmod(iv, tail)
                for mid, cm in enumerate(a.structure[last][first]):
                    if cm:
                        out[(head * n + mid) * tail + rest] += cu * cv * cm
    return out


def d_emb(a, u, r):
    """Alternating unit insertion Ω^r → Ω^{r+1}."""
    n = a.dim
    out = zeros(n ** (r + 2))
    for iu, cu in enumerate(u):
        if cu:
            for p in range(r + 2):
                below = n ** (r + 1 - p)
                head, rest = divmod(iu, below)
                for t, ct in enumerate(a.unit):
                    if ct:
                        out[(head * n + t) * below + rest] += \
                            (-1) ** p * cu * ct
    return out


@cache
def bar_columns(uni, r):
    """e_i·de_j1⋯de_jr in tensor-power coordinates, in bar-index order."""
    a = uni.algebra
    unit_vectors = [[int(k == i) for k in range(a.dim)] for i in range(a.dim)]
    cols = []
    for i0 in range(a.dim):
        for beta in uni.tails(r):
            col = unit_vectors[i0]
            for deg, j in enumerate(beta):
                col = product_emb(a, col, deg, d_emb(a, unit_vectors[j], 0),
                                  1)
            cols.append(col)
    return cols


def to_emb(uni, r, bar):
    out = zeros(uni.emb_dim(r))
    for c, col in zip(bar, bar_columns(uni, r)):
        if c:
            for row, x in enumerate(col):
                if x:
                    out[row] += c * x
    return out


def d_ref(uni, r, bar):
    """d on dense bar coordinates, through the embedding."""
    return _bar(uni, r + 1,
                d_emb(uni.algebra, to_emb(uni, r, bar), r))


def product_ref(uni, r, u, s, v):
    """The product on dense bar coordinates, through the embedding."""
    emb = product_emb(uni.algebra, to_emb(uni, r, u), r, to_emb(uni, s, v), s)
    return _bar(uni, r + s, emb)


def _bar(uni, r, emb):
    """``from_emb``'s sparse bar coordinates of emb, densified."""
    return _col_vec(uni.from_emb(r, emb), uni.bar_dim(r))
