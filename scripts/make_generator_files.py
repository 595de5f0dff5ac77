"""Build the packaged generator files from matrix constructions.

Writes src/fixitylab/data/{psl3_3,psu3_3,psu4_2,sz8,m22}.grp.  Each group is
constructed from first principles over its defining field, the permutation
action is extracted on the natural point set, and the known point counts
and group order are checked (GroupDataError otherwise) before anything is
written:

    psl3_3   SL3(3) on the 13 points of PG(2,3), order 5616
    psu3_3   SU3(3) on the 28 isotropic points of a Hermitian form, order 6048
    psu4_2   Sp4(3) modulo center on the 40 points of PG(3,3), order 25920
             (the symplectic group over GF(3) is isomorphic to PSU4(2))
    sz8      Suzuki group on the 65 ovoid points over GF(8), order 29120
    m22      two-point stabilizer of M24 on 22 points, order 443520

Cheap by design.  A packaged file that already holds the group built (same
order, each generator list lying in the other group) is left alone, so a
rerun writes only missing or different groups and keeps the packaged
generator lists, on which claims and timings depend.

    python3 scripts/make_generator_files.py

It takes no arguments; ``--help`` prints this text and builds nothing, and
an unknown argument exits 2.  A construction that fails is reported on
stderr, the other groups are still built, and the script exits 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fixitylab.errors import GroupDataError, NotBijectionError
from fixitylab.ffield import Field, FieldElement, make_field, primitive_element
from fixitylab.perm import PermGroup, Permutation, build_bsgs, pack_table, point_stabilizer
from fixitylab.zoo import load_group, save_group

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "fixitylab" / "data"

Matrix = tuple[tuple[FieldElement, ...], ...]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), start=a[0][0].field.zero) for j in range(n))
        for i in range(n)
    )


def mat_det3(m: Matrix) -> FieldElement:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def vec_mat(v: tuple[FieldElement, ...], m: Matrix) -> tuple[FieldElement, ...]:
    n = len(v)
    return tuple(
        sum((v[k] * m[k][j] for k in range(n)), start=v[0].field.zero) for j in range(n)
    )


def normalize(v: tuple[FieldElement, ...]) -> tuple[FieldElement, ...]:
    """Scale so the first nonzero coordinate is 1; canonical projective rep."""
    for c in v:
        if not c.is_zero():
            inv = c.inverse()
            return tuple(inv * x for x in v)
    raise ValueError("zero vector has no projective image")


def projective_points(f: Field, dim: int) -> list[tuple[FieldElement, ...]]:
    pts = set()
    elems = f.elements()

    def rec(prefix: tuple[FieldElement, ...]) -> None:
        if len(prefix) == dim:
            if any(not c.is_zero() for c in prefix):
                pts.add(normalize(prefix))
            return
        for e in elems:
            rec(prefix + (e,))

    rec(())
    return sorted(pts, key=lambda v: tuple(c.coeffs for c in v))


def matrix_to_perm(m: Matrix, points: list[tuple[FieldElement, ...]]) -> Permutation:
    index = {v: i for i, v in enumerate(points)}
    images = [index[normalize(vec_mat(v, m))] for v in points]
    return Permutation(pack_table(images, len(points)), _trusted=True)


def scalars(f: Field, entries: list[list[int]]) -> Matrix:
    return tuple(tuple(f.scalar(e) for e in row) for row in entries)


def check(what: str, got, want) -> None:
    """Raise GroupDataError unless a construction step gave what it must."""
    if got != want:
        raise GroupDataError(f"{what} is {got}, expected {want}")


# ---------------------------------------------------------------------------


def make_psl3_3() -> PermGroup:
    f = make_field(3, 1)
    points = projective_points(f, 3)
    check("number of points", len(points), 13)
    transvection = scalars(f, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    shift = scalars(f, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    check("determinants", (mat_det3(transvection), mat_det3(shift)), (f.one, f.one))
    gens = [matrix_to_perm(m, points) for m in (transvection, shift)]
    g = build_bsgs(gens)
    check("order of PSL3(3)", g.order, 5616)
    return g


def make_psu3_3() -> PermGroup:
    f = make_field(3, 2)
    conj = lambda x: x.frobenius()  # noqa: E731  x -> x^3, the GF(9)/GF(3) involution

    def herm(x: tuple, y: tuple) -> FieldElement:
        # antidiagonal Hermitian form x0*conj(y2) + x1*conj(y1) + x2*conj(y0)
        return x[0] * conj(y[2]) + x[1] * conj(y[1]) + x[2] * conj(y[0])

    points = [v for v in projective_points(f, 3) if herm(v, v).is_zero()]
    check("number of points", len(points), 28)

    def is_unitary(m: Matrix) -> bool:
        basis = [
            tuple(f.one if i == j else f.zero for j in range(3)) for i in range(3)
        ]
        rows = [vec_mat(e, m) for e in basis]
        return all(
            herm(rows[i], rows[j]) == herm(basis[i], basis[j])
            for i in range(3)
            for j in range(3)
        )

    elems = f.elements()
    unipotents = []
    for a in elems:
        for b in elems:
            for c in elems:
                m = (
                    (f.one, a, b),
                    (f.zero, f.one, c),
                    (f.zero, f.zero, f.one),
                )
                if is_unitary(m):
                    unipotents.append(m)
    check("number of unipotents", len(unipotents), 27)

    w = primitive_element(f)
    torus = None
    for k in range(1, f.q):
        d = w ** k
        m = (
            (d, f.zero, f.zero),
            (f.zero, d * d, f.zero),
            (f.zero, f.zero, (d ** 3).inverse()),
        )
        if is_unitary(m) and mat_det3(m) == f.one and (d * d * d * d) != f.one:
            torus = m
            break
    if torus is None:
        raise GroupDataError("no torus element of SU3(3) found")

    weyl = None
    for alpha in elems:
        if alpha.is_zero():
            continue
        for beta in elems:
            if beta.is_zero():
                continue
            m = (
                (f.zero, f.zero, alpha),
                (f.zero, beta, f.zero),
                (alpha, f.zero, f.zero),
            )
            if is_unitary(m) and mat_det3(m) == f.one:
                weyl = m
                break
        if weyl:
            break
    if weyl is None:
        raise GroupDataError("no Weyl element of SU3(3) found")

    # weyl and torus first so the spanning prefix _shrink finds stays short
    gens = [matrix_to_perm(m, points) for m in [weyl, torus] + unipotents]
    g = build_bsgs(gens)
    check("order of PSU3(3)", g.order, 6048)
    return _shrink(g)


def make_psu4_2() -> PermGroup:
    f = make_field(3, 1)
    points = projective_points(f, 4)
    check("number of points", len(points), 40)

    def sympl(x: tuple, y: tuple) -> FieldElement:
        return x[0] * y[3] - x[3] * y[0] + x[1] * y[2] - x[2] * y[1]

    def transvection(vec: tuple[int, ...]) -> Matrix:
        v = tuple(f.scalar(c) for c in vec)
        basis = [
            tuple(f.one if i == j else f.zero for j in range(4)) for i in range(4)
        ]
        rows = []
        for e in basis:
            coef = sympl(e, v)
            rows.append(tuple(e[j] + coef * v[j] for j in range(4)))
        return tuple(rows)

    seeds = [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 1, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 1),
        (1, 0, 1, 0),
    ]
    gens = [matrix_to_perm(transvection(s), points) for s in seeds]
    g = build_bsgs(gens)
    check("order of PSp4(3)", g.order, 25920)
    return _shrink(g)


def make_sz8() -> PermGroup:
    f = make_field(2, 3)
    theta = lambda x: (x * x) * (x * x)  # noqa: E731  x -> x^4; theta^2 = squaring
    elems = f.elements()
    points: list = ["inf"] + [(x, y) for x in elems for y in elems]
    check("number of points", len(points), 65)
    index = {p: i for i, p in enumerate(points)}

    def perm_of(fn) -> Permutation:
        images = [index[fn(p)] for p in points]
        return Permutation(pack_table(images, 65), _trusted=True)

    def trans(a: FieldElement, b: FieldElement):
        def fn(p):
            if p == "inf":
                return p
            x, y = p
            return (x + a, y + b + x * theta(a))

        return fn

    k = primitive_element(f)
    k_tw = k * theta(k)  # k^(1+theta) = k^5

    def torus(p):
        if p == "inf":
            return p
        x, y = p
        return (k * x, k_tw * y)

    def norm(x: FieldElement, y: FieldElement) -> FieldElement:
        # anisotropic except at the origin: x^(theta+2) + xy + y^theta
        return theta(x) * x * x + x * y + theta(y)

    def inversion(p):
        if p == "inf":
            return (f.zero, f.zero)
        x, y = p
        if x.is_zero() and y.is_zero():
            return "inf"
        d = norm(x, y).inverse()
        return (y * d, x * d)

    gens = [perm_of(trans(f.one, f.zero)), perm_of(trans(f.zero, f.one)),
            perm_of(torus), perm_of(inversion)]
    g = build_bsgs(gens)
    check("order of Sz(8)", g.order, 29120)
    return g


def make_m22() -> PermGroup:
    """M22 as the two-point stabilizer in M24 on the projective line over
    GF(23), relabeled to the 22 moved points.

    M24 is generated by z -> z+1 and z -> -1/z (the natural PSL2(23)) plus
    the cubing map z -> z^3/9 on nonzero squares, z -> 9z^3 on nonsquares;
    the order checks pin the construction.
    """
    INF = 23
    squares = {pow(z, 2, 23) for z in range(1, 23)}
    ninth = pow(9, 21, 23)

    def perm_from(fn) -> Permutation:
        return Permutation(pack_table([fn(z) for z in range(24)], 24), _trusted=True)

    s = perm_from(lambda z: INF if z == INF else (z + 1) % 23)
    t = perm_from(lambda z: 0 if z == INF else (INF if z == 0 else (-pow(z, 21, 23)) % 23))

    def cubing(z: int) -> int:
        if z in (0, INF):
            return z
        c = pow(z, 3, 23)
        return (c * ninth) % 23 if z in squares else (c * 9) % 23

    m24 = build_bsgs([s, t, perm_from(cubing)])
    check("order of M24", m24.order, 244823040)
    m23 = point_stabilizer(m24, INF)
    check("order of M23", m23.order, 10200960)
    m22 = point_stabilizer(m23, 0)
    check("order of M22", m22.order, 443520)

    moved = sorted(
        {i for p in m22.generators for i, x in enumerate(p.images) if x != i}
    )
    if len(moved) != 22 or 0 in moved or INF in moved:
        raise GroupDataError(f"M22 generators move {len(moved)} points, wanted the 22 of 1..22")
    relabel = {old: new for new, old in enumerate(moved)}
    gens = []
    for p in m22.generators:
        images = [0] * 22
        for old, new in relabel.items():
            images[new] = relabel[p.images[old]]
        gens.append(Permutation(pack_table(images, 22), _trusted=True))
    g = build_bsgs(gens)
    check("order of the relabeled M22", g.order, 443520)
    return _shrink(g)


def _shrink(g: PermGroup) -> PermGroup:
    """Smallest prefix of the generator list that still spans the group."""
    for take in range(2, len(g.generators) + 1):
        h = build_bsgs(g.generators[:take])
        if h.order == g.order:
            return h
    return g


def holds_group(path: Path, g: PermGroup) -> bool:
    """Does the generator file at ``path`` hold the group g: the same order,
    and each generator list lying in the other group?  A missing or
    unreadable file holds nothing."""
    try:
        h = load_group(path)
    except GroupDataError:
        return False
    return (
        h.order == g.order
        and all(p in h for p in g.generators)
        and all(p in g for p in h.generators)
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.parse_args(argv)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    failed = False
    for name, make in (
        ("psl3_3", make_psl3_3),
        ("psu3_3", make_psu3_3),
        ("psu4_2", make_psu4_2),
        ("sz8", make_sz8),
        ("m22", make_m22),
    ):
        try:
            g = make()
        except (GroupDataError, NotBijectionError) as exc:
            print(f"{name}: construction failed ({exc}); file not written", file=sys.stderr)
            failed = True
            continue
        path = OUT_DIR / f"{name}.grp"
        if holds_group(path, g):
            print(f"{name}: {path.name} already holds this group; left as it is")
            continue
        save_group(g, path)
        print(f"{name}: degree {g.degree} order {g.order} "
              f"gens {len(g.generators)} -> {path.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
