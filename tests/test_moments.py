import dataclasses
import functools
import hashlib
import json
import pickle
import random

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, round_nearest

from polyrho import cli, content, extremal, geometry, moments
from polyrho.errors import InsufficientMoments, PrecisionTooLow


def test_low_order_square_moments(square):
    t = moments.moment_table(square, 4)
    with mp.workprec(300):
        assert abs(t.c(0, 0) - 1) < mp.mpf("1e-70")
        # integral of |z|^2 = integral of x^2 + y^2 = 1/12 + 1/12
        assert abs(t.c(1, 1) - mp.mpf(1) / 6) < mp.mpf("1e-70")
        assert abs(t.c(1, 0)) < mp.mpf("1e-70")
        assert abs(t.c(2, 0)) < mp.mpf("1e-70")  # I20 = I02 and I11 = 0
        assert abs(t.real(2, 0) - mp.mpf(1) / 12) < mp.mpf("1e-70")
        assert abs(t.real(1, 1)) < mp.mpf("1e-70")


def test_real_moments_match_area_and_centroid(triangle):
    t = moments.moment_table(triangle, 3)
    ar = geometry.area(triangle)
    cx, cy = geometry.centroid(triangle)
    with mp.workprec(300):
        assert abs(t.real(0, 0) - ar) < mp.mpf("1e-70")
        assert abs(t.real(1, 0) - ar * cx) < mp.mpf("1e-70")
        assert abs(t.real(0, 1) - ar * cy) < mp.mpf("1e-70")


def test_single_entry_matches_table(any_polygon):
    t = moments.moment_table(any_polygon, 6)
    with mp.workprec(300):
        # total degree 6 = maxdeg is the top anti-diagonal the table walks,
        # whose integrals reach one degree past maxdeg; (1, 5) and (2, 4)
        # come from the table by conjugation
        for m, n in ((0, 3), (2, 2), (4, 1), (3, 0), (6, 0), (1, 5), (2, 4), (3, 3)):
            assert abs(moments.complex_moment(any_polygon, m, n) - t.c(m, n)) \
                < mp.mpf("1e-70")
        for m, n in ((1, 2), (5, 0), (0, 6), (2, 4), (3, 3), (6, 0)):
            assert abs(moments.real_moment(any_polygon, m, n) - t.real(m, n)) \
                < mp.mpf("1e-70")


_EXACT_POLYGONS = {
    "pentagon": lambda: geometry.make_regular_ngon(5),
    "star-7": lambda: geometry.random_star_polygon(7, 4),
    "windmill-3": lambda: geometry.make_windmill(3),
    "far-triangle": lambda: geometry.polygon_new(
        [(100, 100), (100.0015, 100), (100.00075, 100.0013)]),
    "thin-edge": lambda: geometry.polygon_new([(0, 0), (1, 0), (1, "1e-120"), (0, 1)]),
}


@pytest.mark.parametrize("name", list(_EXACT_POLYGONS))
def test_single_entries_are_correctly_rounded(name):
    # each part is its exact value rounded once: at 256 bits, the 4000-bit
    # value rounded to 256 bits, including parts that are zero or tiny, and
    # c[m][m]'s imaginary part is exactly zero
    poly = _EXACT_POLYGONS[name]()
    for single in (moments.complex_moment, moments.real_moment):
        for m in range(8):
            for n in range(8 - m):
                fine = single(poly, m, n, 4000)
                with mp.workprec(256):
                    want = +fine
                assert single(poly, m, n, 256) == want, (single.__name__, m, n)
    for m in range(4):  # |z|^(2m) is real, so its exact sum's Re S is 0
        assert moments.complex_moment(poly, m, m).imag == 0, m


@pytest.mark.parametrize("name", ["far-triangle", "square", "windmill-20", "thin-edge"])
def test_table_matches_binomial_reference_entrywise(name):
    # short edges far from the origin; axis-aligned edges (dx = 0 and
    # dy = 0, so walks start from both ends of the anti-diagonals); edges of
    # length 20 with vertices from 0.02 to 20 away from the origin; an edge
    # shorter than the kernel's fixed-point unit, whose endpoints truncate
    # to the same point
    poly = {
        "far-triangle": lambda: geometry.polygon_new(
            [(100, 100), (100.0015, 100), (100.00075, 100.0013)]),
        "square": lambda: geometry.polygon_new(
            [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]),
        "windmill-20": lambda: geometry.make_windmill(20),
        "thin-edge": lambda: geometry.polygon_new([(0, 0), (1, 0), (1, "1e-120"), (0, 1)]),
    }[name]()
    bits, maxdeg = 256, 10
    t = moments.moment_table(poly, maxdeg, bits)
    with mp.workprec(bits + 64):
        for entries, single in ((t.complex_entries, moments.complex_moment),
                                (t.real_entries, moments.real_moment)):
            scale = _diagonal_scales(entries)
            for (m, n), val in entries.items():
                ref = single(poly, m, n, bits)
                assert abs(val - ref) <= mp.mpf(2) ** (1 - bits) * scale[m + n], (m, n)


@functools.cache
def _gauss_legendre_01(count, prec):
    """The count-node Gauss-Legendre rule on [0, 1], exact for polynomials of
    degree below 2 count."""
    with mp.workprec(prec):
        nodes, weights = mp.gauss_quadrature(count, "legendre")
        return [((1 + x) / 2, wt / 2) for x, wt in zip(nodes, weights)]


def _quadrature_moments(p, keys, maxdeg, bits):
    """c[m][n] (m >= n) and I[m][n] for keys, each edge integral by a
    Gauss-Legendre rule exact for its degree-(m+n+1) integrand: a reference
    that shares no arithmetic with the recurrence or the binomial expansion,
    and costs O(1) per entry and node."""
    refs = {}
    with mp.workprec(bits + 64):
        nodes = _gauss_legendre_01((maxdeg + 3) // 2, mp.prec)
        # (A0, dA, B0, dB) per edge: A = x and B = y for I, A = z and
        # B = conj(z) for c
        vs = list(p.vertices)
        real_edges = [(x0, x1 - x0, y0, y1 - y0)
                      for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1])]
        complex_edges = [(mp.mpc(x0, y0), mp.mpc(dx, dy), mp.mpc(x0, -y0), mp.mpc(dx, -dy))
                         for x0, dx, y0, dy in real_edges]
        for kind, edges in (("c", complex_edges), ("I", real_edges)):
            kind_keys = [(m, n) for m, n in keys if kind == "I" or m >= n]
            sums = dict.fromkeys(kind_keys, 0)
            for a0, da, b0, db in edges:
                rows_a, rows_b = [], []  # wt da A^m and B^(n+1) at each node
                for t, wt in nodes:
                    a, b = a0 + t * da, b0 + t * db
                    rows_a.append([wt * da])
                    rows_b.append([b])
                    for _ in range(maxdeg):
                        rows_a[-1].append(rows_a[-1][-1] * a)
                        rows_b[-1].append(rows_b[-1][-1] * b)
                cols_a, cols_b = list(zip(*rows_a)), list(zip(*rows_b))
                for m, n in kind_keys:
                    sums[(m, n)] += mp.fdot(cols_a[m], cols_b[n])
            refs[kind] = {(m, n): val / (mp.mpc(0, 2) * (n + 1)) if kind == "c"
                          else -val / (n + 1) for (m, n), val in sums.items()}
    return refs


def _diagonal_scales(entries):
    """max(|largest entry on the anti-diagonal m + n|, 1), by m + n."""
    scale = {}
    for (m, n), val in entries.items():
        scale[m + n] = max(scale.get(m + n, 1), abs(val))
    return scale


_POLYGONS = {
    "square-2": lambda: geometry.polygon_new([(-1, -1), (1, -1), (1, 1), (-1, 1)]),
    "windmill-2": lambda: geometry.make_windmill(2),
    "windmill-20": lambda: geometry.make_windmill(20),
    "far-triangle": lambda: geometry.polygon_new(
        [(100, 100), (100.0015, 100), (100.00075, 100.0013)]),
    "star-8": lambda: geometry.random_star_polygon(8, seed=3),
    "pentagon": lambda: geometry.make_regular_ngon(5),
}


@pytest.mark.parametrize("maxdeg,bits", [(38, 496), (68, 856)])
@pytest.mark.parametrize("name", ["far-triangle", "windmill-20", "star-8"])
def test_table_matches_references_at_policy_degrees(name, maxdeg, bits):
    # the degrees and precisions precision_for_degree gives N = 18 and N = 33
    poly = _POLYGONS[name]()
    t = moments.moment_table(poly, maxdeg, bits)
    top = [(m, s - m) for s in (maxdeg - 1, maxdeg) for m in range(s + 1)]
    interior = random.Random(maxdeg).sample(
        [(m, n) for m in range(maxdeg - 1) for n in range(maxdeg - 1 - m)], 3)
    refs = _quadrature_moments(poly, top + interior, maxdeg, bits)
    with mp.workprec(bits + 64):
        for entries, single, ref in ((t.complex_entries, moments.complex_moment, refs["c"]),
                                     (t.real_entries, moments.real_moment, refs["I"])):
            scale = _diagonal_scales(entries)
            for (m, n), val in ref.items():
                bound = mp.mpf(2) ** (32 - bits) * scale[m + n]
                assert abs(entries[(m, n)] - val) <= bound, (m, n)
            for m, n in interior:
                bound = mp.mpf(2) ** (1 - bits) * scale[m + n]
                assert abs(entries[(m, n)] - single(poly, m, n, bits)) <= bound, (m, n)


def test_edge_sums_keep_the_working_precision_as_monomials_decay():
    # the largest coordinate, 0.51, scales to itself, so a degree-d monomial
    # is about 2^-d of the largest; the kernel's edge sums must still carry
    # the working precision, precision_bits + maxdeg + 32 = 256 bits, less
    # the edge sum's own cancellation, about 20 bits here
    poly = geometry.polygon_new([(-0.51, -0.3), (0.5, -0.45), (0.2, 0.51), (-0.4, 0.35)])
    maxdeg, prec = 68, 256
    top = [(m, maxdeg - m) for m in range(maxdeg + 1)]
    refs = _quadrature_moments(poly, top, maxdeg, prec)
    for kind in ("c", "I"):
        sums = moments._edge_sums(poly, maxdeg, prec - maxdeg - 32, kind)
        with mp.workprec(prec + 64):
            bound = mp.mpf(2) ** (32 - prec) * max(abs(val) for val in refs[kind].values())
            for (m, n), ref in refs[kind].items():
                re, im, exp = sums[(m, n)]
                val = mp.mpc(re, im) * mp.mpf(2) ** exp
                val = val / (mp.mpc(0, 2) * (n + 1)) if kind == "c" else -val / (n + 1)
                assert abs(val - ref) <= bound, (kind, m, n)


@pytest.mark.parametrize("s", [mp.mpf(2) ** -30, 1e-6, 1e6, mp.mpf(2) ** 30],
                         ids=["2^-30", "1e-6", "1e6", "2^30"])
@pytest.mark.parametrize("name", ["square-2", "windmill-2", "far-triangle"])
def test_table_scales_with_the_polygon(name, s):
    # c[m][n] and I[m][n] of s P are s^(m+n+2) times those of P; the square's
    # largest coordinate, 1, is a power of two, as is s * 1 for s = 2^+-30
    poly = _POLYGONS[name]()
    bits, maxdeg = 256, 16
    t = moments.moment_table(poly, maxdeg, bits)
    scaled = moments.moment_table(geometry.scale(poly, s), maxdeg, bits)
    with mp.workprec(bits + 64):
        s = mp.mpf(s)
        for entries, scaled_entries in ((t.complex_entries, scaled.complex_entries),
                                        (t.real_entries, scaled.real_entries)):
            scale = _diagonal_scales(entries)
            for (m, n), val in entries.items():
                bound = mp.mpf(2) ** (32 - bits) * scale[m + n]
                assert abs(scaled_entries[(m, n)] / s ** (m + n + 2) - val) <= bound, (m, n)


def _eager_reference(p, maxdeg, bits, sums_bits=None):
    """Both halves rounded at once from the edge sums of one kernel pass at
    sums_bits (default bits), each part _nearest of its exact sum, and held
    in halves with no pass."""
    halves = []
    for kind in ("c", "I"):
        parts = {}
        for (m, n), (re, im, exp) in moments._edge_sums(p, maxdeg, sums_bits or bits,
                                                        kind).items():
            if kind == "I":
                parts[(m, n)] = moments._nearest(-re, n + 1, exp, bits)
                continue
            parts[(m, n)] = moments._nearest(im, n + 1, exp - 1, bits) + (
                (0, 0) if m == n else moments._nearest(-re, n + 1, exp - 1, bits))
        halves.append(moments._Half(maxdeg, kind, parts))
    return moments.MomentTable(moments.table_fingerprint(p, bits), maxdeg, bits, *halves)


def _raw(entries):
    return [(key, val._mpc_ if isinstance(val, mp.mpc) else val._mpf_)
            for key, val in entries.items()]


def _assert_same_bits(t, ref):
    assert _raw(t.complex_entries) == _raw(ref.complex_entries)
    assert _raw(t.real_entries) == _raw(ref.real_entries)


def _first_reads(t, maxdeg):
    """Entries read before any other: a diagonal, an m < n conjugate, a real."""
    return (t.c(0, 0), t.c(1, maxdeg - 1), t.c(maxdeg // 2, maxdeg // 2), t.real(2, 1))


_DEFERRED_POLYGONS = {
    "pentagon": lambda: geometry.make_regular_ngon(5),
    "far-triangle": lambda: geometry.polygon_new(
        [(100, 100), (100.0015, 100), (100.00075, 100.0013)]),
    "windmill-20": lambda: geometry.make_windmill(20),
}


# sha256 of repr(sorted(_edge_sums(...).items())) at the maxdeg and bits of
# the certified rho's check tables (pentagon N=18 and N=33, the others N=12
# and N=10), an edge below the fixed-point unit (the thin-edge square), and
# verify's triangle, whose real half swaps on steep edges at low degree.  The
# real pins were recorded from the kernel that took four multiplications per
# complex product, and the complex ones from the walk down columns, whose
# truncations differ from the anti-diagonal walk's in the last few bits
_EDGE_SUM_SHA256 = {
    ("pentagon", 66, 920): {
        "c": "9b8891054c66e2f12556bf8325bdcf1a908b187a11c34515c57f623dbbb625cf",
        "I": "c431cde4b677256699ccb09252690fce0ba3270cb29613d7956452654a43c523"},
    ("thin-edge", 8, 256): {
        "c": "e7944c5741e753808e3523a68d62c19ce83377f220baf0e639a7e0976dcf1334",
        "I": "d9dafe4a4a366641139b611409603a18695840f8395af90846f22c7bc9153d29"},
    ("triangle", 8, 256): {
        "c": "13e00b4849bdc9d3a7a1c2d71df7cf47fa1c9cfa3244a0e85a218f05ebf52a49",
        "I": "ed062119ab79ff7c86d230013610e8c9a6d5390138030e97e53d491e70041a2b"},
    ("pentagon", 36, 560): {
        "c": "edf70542e13cf91fff2c3a35a25ae4c1a39b7867ee9531e31e9962a00873b4c8",
        "I": "01c68cc3e221ad9fa932b9578e80bd88c75ba1a3cfa293e60ab9639162152d58"},
    ("windmill-2", 24, 416): {
        "c": "c1118961e74601dc52d567b64a3c1917f624dcc1a20d7a9ac9f51a77bf6d7fa6",
        "I": "916739fb5c78d4616330b2d8a2f4f0b96d7a8b7956dd59519e4d015dd1e5d27a"},
    ("star-8-3", 24, 416): {
        "c": "54db8563a45c1387557b81a2fa8ef63482c9074f87051a6d848f5df284a1a5e3",
        "I": "fee9890d2dcd38abcc78ce75550704d6d623066997fbcedf7a4fb10fffa03817"},
    ("far-triangle", 20, 368): {
        "c": "3572ad5f93dbe4e63aca64a67cdda0124bf9c04f505fa28b776ae7cfcb23cd98",
        "I": "9ceb62a229a2a8daf24f05bcf80fd9c2a658b36ba191f903b1b7d1539b7348c4"},
}
_PINNED_POLYGONS = dict(_DEFERRED_POLYGONS, **{
    "windmill-2": lambda: geometry.make_windmill(2),
    "star-8-3": lambda: geometry.random_star_polygon(8, 3),
    "thin-edge": _EXACT_POLYGONS["thin-edge"],
    "triangle": lambda: geometry.polygon_new([(0, 0), (1, 0), (0.3, 0.8)]),
})


@pytest.mark.parametrize("kind", ["c", "I"])
@pytest.mark.parametrize("name,maxdeg,bits", list(_EDGE_SUM_SHA256))
def test_edge_sums_bits_are_pinned(name, maxdeg, bits, kind):
    sums = moments._edge_sums(_PINNED_POLYGONS[name](), maxdeg, bits, kind)
    digest = hashlib.sha256(repr(sorted(sums.items())).encode()).hexdigest()
    assert digest == _EDGE_SUM_SHA256[(name, maxdeg, bits)][kind]


@pytest.mark.parametrize("name", list(_PINNED_POLYGONS))
def test_real_half_sums_have_zero_imaginary_parts(name):
    # A = x and B = y are real, so every real-half sum is a real int
    sums = moments._edge_sums(_PINNED_POLYGONS[name](), 12, 256, "I")
    assert sums and all(im == 0 for _, im, _ in sums.values())


_COLUMN_WALK_POLYGONS = {
    # long edges whose lines pass near the origin and a short one 0.9 from it
    "sliver": lambda: geometry.polygon_new([(-0.9, -0.9), (0.95, 0.9), (-0.9, -0.85)]),
    # edges whose lines lie 0.5 and 0.99 from the origin, |c0| up to 1.98
    "corner-square": lambda: geometry.polygon_new(
        [(0.5, 0.5), (0.99, 0.5), (0.99, 0.99), (0.5, 0.99)]),
    "far-triangle": _DEFERRED_POLYGONS["far-triangle"],
}


@pytest.mark.parametrize("maxdeg,bits", [(36, 560), (66, 920)])
@pytest.mark.parametrize("name", list(_COLUMN_WALK_POLYGONS))
def test_column_walk_errors_against_a_wider_pass(name, maxdeg, bits):
    # against a pass 400 bits wider, in units of 2^-w.  A step down a column
    # multiplies an error by at most |c0| / 2 < sqrt(2), and the errors of
    # the monomials it reads grow with their degree: the largest, the
    # sliver's, were 826 at maxdeg 36 and 8.5e5 at 66 when the walk came in
    # (the anti-diagonal walk's: 72 and 1.25e5), past the 8 guard bits, so
    # the bound is 2^10 and 2^20 units.  Each sum still keeps the working
    # bits, bits + maxdeg + 32, against the largest sum of its total degree
    poly = _COLUMN_WALK_POLYGONS[name]()
    sums = moments._edge_sums(poly, maxdeg, bits, "c")
    wide = moments._edge_sums(poly, maxdeg, bits + 400, "c")
    errors, largest = {}, {}
    for (m, n), (re, im, exp) in sums.items():
        wide_re, wide_im, wide_exp = wide[(m, n)]
        assert wide_exp == exp - 400
        err = max(abs((re << 400) - wide_re), abs((im << 400) - wide_im))
        errors[m + n] = max(errors.get(m + n, 0), err)
        largest[m + n] = max(largest.get(m + n, 0), abs(wide_re), abs(wide_im))
    assert max(errors.values()) <= 2 ** ((maxdeg - 6) // 3 + 400)
    for d, err in errors.items():
        assert err << (bits + maxdeg + 32) <= largest[d], d


@pytest.mark.parametrize("maxdeg,bits", [(8, 256), (26, 352)])
@pytest.mark.parametrize("name", list(_DEFERRED_POLYGONS))
def test_deferred_halves_have_the_bits_of_an_eager_build(tmp_path, name, maxdeg, bits):
    poly = _DEFERRED_POLYGONS[name]()
    ref = _eager_reference(poly, maxdeg, bits)
    for first_read_bits in (64, None, 4000):
        t = moments.moment_table(poly, maxdeg, bits)
        assert len(t.complex_entries) == len(t.real_entries) == len(ref.real_entries)
        with mp.workprec(first_read_bits or mp.prec):  # None: the caller's context
            _first_reads(t, maxdeg)
        _assert_same_bits(t, ref)
    # a column's ints do not depend on the columns built before it
    t = moments.moment_table(poly, maxdeg, bits)
    for m, n in sorted(moments._table_keys(maxdeg, "c"), reverse=True):
        t.c(m, n)
    _assert_same_bits(t, ref)

    back = pickle.loads(pickle.dumps(moments.moment_table(poly, maxdeg, bits)))
    _assert_same_bits(back, ref)

    paths = [tmp_path / f"{kind}.json" for kind in ("unread", "read", "eager")]
    moments.save_table(moments.moment_table(poly, maxdeg, bits), paths[0])
    read = moments.moment_table(poly, maxdeg, bits)
    _first_reads(read, maxdeg)
    for half in (read.complex_entries, read.real_entries):
        dict(half)
    moments.save_table(read, paths[1])
    moments.save_table(ref, paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


@pytest.mark.parametrize("maxdeg,bits", [(8, 256), (26, 352)])
@pytest.mark.parametrize("name", list(_DEFERRED_POLYGONS))
def test_a_rounded_table_has_the_bits_of_the_finer_sums(name, maxdeg, bits):
    # rho's table at bits is rounded from the exact sums of its check's pass
    # at bits + 64: every part is _rounded of those sums, never of the finer
    # entries, whichever table is read first and at whatever precision
    poly = _DEFERRED_POLYGONS[name]()
    fine = bits + 64
    ref, fine_ref = _eager_reference(poly, maxdeg, bits, fine), _eager_reference(poly, maxdeg, fine)
    for first_read_bits in (64, None, 4000):
        for first in ("coarse", "fine"):
            check = moments.moment_table(poly, maxdeg, fine)
            t = moments._rounded_table(check, bits)
            assert (t.fingerprint, t.maxdeg, t.precision_bits) == \
                (moments.table_fingerprint(poly, bits), maxdeg, bits)
            with mp.workprec(first_read_bits or mp.prec):
                _first_reads(t if first == "coarse" else check, maxdeg)
            _assert_same_bits(t, ref)
            _assert_same_bits(check, fine_ref)

    # the pair pickles before its pass, sharing one pass per half, and after it
    check = moments.moment_table(poly, maxdeg, fine)
    check, t = pickle.loads(pickle.dumps((check, moments._rounded_table(check, bits))))
    assert t.complex_entries._pass is check.complex_entries._pass
    assert t.real_entries._pass is check.real_entries._pass
    _first_reads(t, maxdeg)
    check, t = pickle.loads(pickle.dumps((check, t)))
    _assert_same_bits(t, ref)
    _assert_same_bits(check, fine_ref)


@pytest.mark.parametrize("first", [0, 1, 2])
def test_rounded_copies_share_one_pass_per_half(monkeypatch, first):
    # a table, its rounded copy and a copy rounded from that copy: one
    # _edge_sums call per half between them, whichever is read first, and
    # the second copy's parts are rounded from the first table's sums
    poly, maxdeg = geometry.make_windmill(20), 8
    calls = []
    kernel = moments._edge_sums

    def counted(p, maxdeg, precision_bits, kind):
        calls.append((precision_bits, kind))
        return kernel(p, maxdeg, precision_bits, kind)

    monkeypatch.setattr(moments, "_edge_sums", counted)
    tables = [moments.moment_table(poly, maxdeg, 384)]
    for bits in (320, 256):
        tables.append(moments._rounded_table(tables[-1], bits))
    for t in tables[first:] + tables[:first]:
        _first_reads(t, maxdeg)
    assert sorted(calls) == [(384, "I"), (384, "c")]
    monkeypatch.undo()
    _assert_same_bits(tables[2], _eager_reference(poly, maxdeg, 256, 384))


def test_nearest_rounds_the_exact_quotient_to_nearest_even():
    # against the quotient to prec + 1 bits plus a sticky bit, rounded by
    # from_man_exp: exact ties, carries to a power of two, zeros, negatives
    rng = random.Random(20)
    for _ in range(20000):
        prec = rng.choice([1, 2, 53, 64, 256, rng.randrange(1, 700)])
        den = rng.choice([1, 3, 1 << rng.randrange(20), rng.randrange(1, 40),
                          rng.getrandbits(rng.randrange(1, 80)) | 1])
        shape = rng.randrange(4)
        if shape == 0:  # an odd multiple of half a unit in the last place
            num = den * (2 * rng.getrandbits(prec) + 1) << rng.randrange(4)
        elif shape == 1:  # all ones below the last place: the rounding carries
            num = den * ((1 << (prec + rng.randrange(1, 6))) - 1)
        elif shape == 2:
            num = rng.getrandbits(rng.randrange(0, 1500))
        else:
            num = den * rng.getrandbits(rng.randrange(0, 800)) + rng.randrange(-2, 3)
        num = -num if rng.random() < 0.5 else num
        exp = rng.randrange(-3000, 3000)
        man, e = moments._nearest(num, den, exp, prec)
        shift = prec + 64 + den.bit_length()
        q, r = divmod(abs(num) << shift, den)
        sticky = 2 * q + (r != 0)
        ref = from_man_exp(-sticky if num < 0 else sticky, exp - shift - 1, prec, round_nearest)
        assert from_man_exp(man, e) == moments._rounded(num, den, exp, prec) == ref
        assert abs(man).bit_length() <= prec or abs(man) == 1 << prec


def test_a_rounded_table_rounds_the_sums_not_the_finer_entries():
    # a sum one unit above the midpoint of two 256-bit numbers, whose last bit
    # is 70 bits higher: at 320 bits the sum rounds to the midpoint, which
    # then rounds to even, down, while the sum itself rounds up
    bits, fine = 256, 320
    half_way = ((1 << bits) + 1) << 70
    check = moments.moment_table(geometry.make_regular_ngon(5), 4, fine)
    check.complex_entries._pass.sums = {(0, 0): (0, half_way + 1, 1)}  # c[0][0] = Im S / 2
    check.real_entries._pass.sums = {(0, 0): (-half_way - 1, 0, 0)}  # I[0][0] = -S
    t = moments._rounded_table(check, bits)
    up = mp.make_mpf(from_man_exp((1 << (bits - 1)) + 1, 71))
    assert t.c(0, 0).real == t.real(0, 0) == up
    assert check.real(0, 0) == mp.make_mpf(from_man_exp(half_way >> 70, 70))


@pytest.mark.parametrize("vertices, low, high", [
    ([(0, 0), (1, 0), (0.5, 0.8)], 0, 3),
    # a side-2^-20 triangle near (100, 100), 2^7 the kernel's scale:
    # about 2 log2(2^7 / 2^-20) bits
    ([(100, 100), (100 + 2 ** -20, 100), (100, 100 + 2 ** -20)], 54, 56),
    # slivers of height 2^-40, 2^-300 and 2^-700: the edges are long, but
    # the edge sums cancel down to the area, which is summed exactly
    ([(0, 0), (1, 0), (0.5, 2 ** -40)], 40, 42),
    ([(0, 0), (1, 0), (0.5, 2 ** -300)], 300, 304),
    ([(0, 0), (1, 0), (0.5, 2 ** -700)], 700, 704),
    # a unit square with a corner 1e-1000000000 off the axis: the int image
    # truncates that coordinate instead of spanning a billion decades
    ([("1e-1000000000", 0), (1, 0), (1, 1), (0, 1)], 0, 2),
])
def test_cancellation_bits_see_far_and_thin_polygons(vertices, low, high):
    assert low <= moments._lost_bits(geometry.polygon_new(vertices)._frame) <= high


@pytest.mark.parametrize("maxdeg,bits", [(12, 256), (26, 352)])
@pytest.mark.parametrize("name", ["windmill-2", "star-8", "far-triangle", "pentagon"])
def test_table_entries_are_rounded_once(name, maxdeg, bits):
    # each part is the nearest bits-bit number to the exact moment, up to the
    # kernel's error, so within half an ulp of the same part built 128 bits
    # finer, apart from parts that are roundoff against their anti-diagonal
    poly = _POLYGONS[name]()
    t = moments.moment_table(poly, maxdeg, bits)
    fine = moments.moment_table(poly, maxdeg, bits + 128)
    with mp.workprec(bits + 192):
        for entries, fine_entries in ((t.complex_entries, fine.complex_entries),
                                      (t.real_entries, fine.real_entries)):
            scale = _diagonal_scales(fine_entries)
            for (m, n), ref in fine_entries.items():
                val = entries[(m, n)]
                parts = ((val.real, ref.real), (val.imag, ref.imag)) \
                    if isinstance(ref, mp.mpc) else ((val, ref),)
                for got, want in parts:
                    if abs(want) < mp.mpf(2) ** -32 * scale[m + n]:
                        continue
                    _, _, exp, bc = want._mpf_  # 2^(exp+bc-1) <= |want| < 2^(exp+bc)
                    ulp = mp.ldexp(1, exp + bc - bits)
                    assert abs(got - want) <= (mp.mpf(1) / 2 + mp.mpf(2) ** -20) * ulp, (m, n)


@pytest.mark.parametrize("maxdeg,bits", [(4, 256), (10, 304), (26, 352)])
def test_table_entries_are_rounded_once_far_off_frame(maxdeg, bits):
    # a side-1e-4 triangle at (100, 100): the edge sums and the endpoint
    # differences cancel about 38 bits, which a kernel scale short of them
    # turns into errors of 5151 ulps at maxdeg 4, where the guard bits are
    # fewest; every part must still be the nearest bits-bit number
    poly = geometry.polygon_new([(100, 100), ("100.0001", 100), ("100.00003", "100.00008")])
    t = moments.moment_table(poly, maxdeg, bits)
    fine = moments.moment_table(poly, maxdeg, bits + 300)
    with mp.workprec(bits + 400):
        for entries, fine_entries in ((t.complex_entries, fine.complex_entries),
                                      (t.real_entries, fine.real_entries)):
            for (m, n), ref in fine_entries.items():
                val = entries[(m, n)]
                parts = ((val.real, ref.real), (val.imag, ref.imag)) \
                    if isinstance(ref, mp.mpc) else ((val, ref),)
                for got, want in parts:
                    if not want:  # c[m][m]'s imaginary part
                        assert not got, (m, n)
                        continue
                    _, _, exp, bc = want._mpf_
                    ulp = mp.ldexp(1, exp + bc - bits)
                    assert abs(got - want) <= (mp.mpf(1) / 2 + mp.mpf(2) ** -20) * ulp, (m, n)


def _forbid(monkeypatch, kind):
    kernel = moments._edge_sums

    def refuse(p, maxdeg, precision_bits, half):
        if half == kind:
            raise AssertionError(f"the {kind!r} half was built")
        return kernel(p, maxdeg, precision_bits, half)
    monkeypatch.setattr(moments, "_edge_sums", refuse)


def test_gram_paths_build_no_real_moments(monkeypatch, capsys, pentagon):
    _forbid(monkeypatch, "I")
    assert len(moments.moment_table(pentagon, 6).real_entries) == 28
    content.rho_n(pentagon, 3)
    content.rho_n_telescoping(pentagon, 3)
    spec = geometry.FamilySpec("windmill", (), ("a",))
    assert all(v is not None for v in extremal.sweep_family(spec, 0.5, 1.5, 3, 1).values)
    assert len(extremal.maximize_1d(spec, 0.3, 1.5, 1, steps=5).points) == 1
    assert cli.main(["rho", "--family", "regular-ngon:5", "--n", "3"]) == 0
    capsys.readouterr()


def test_closed_forms_build_no_complex_moments(monkeypatch, square):
    _forbid(monkeypatch, "c")
    content.rho1_closed(square)
    content.rho2_closed(square)


def test_hermitian_symmetry_is_exact(triangle):
    t = moments.moment_table(triangle, 7)
    with mp.workprec(t.precision_bits + 16):
        for (m, n), val in t.complex_entries.items():
            assert t.c(n, m) == mp.conj(val)
        for m in range(4):
            assert t.c(m, m).imag == 0


def test_missing_entry_raises(square):
    t = moments.moment_table(square, 4)
    with pytest.raises(InsufficientMoments):
        t.c(3, 2)
    with pytest.raises(InsufficientMoments):
        t.real(5, 0)


def test_a_key_outside_the_complex_half_raises_and_builds_no_column(kernel_work, square):
    sums = moments._edge_sums(square, 4, 256, "c")
    for key in [(5, 0), (3, 2), (1, 2), (-1, 0), (1.0, 0), (True, 0), "c", (1, 0, 0)]:
        with pytest.raises(KeyError):
            sums[key]
    assert kernel_work["columns"] == {}
    assert sums[(2, 2)] and kernel_work["columns"] == {2: 4}


def test_cross_check_residual_small(any_polygon):
    t = moments.moment_table(any_polygon, 8)
    assert moments.cross_check(t) < mp.mpf(2) ** (-t.precision_bits + 20)


def test_cross_check_residual_small_with_only_positive_exponents(square):
    # on a square 2^400 wide every nonzero part has a positive exponent, so
    # the common scale 2^low has low > 0; the zero parts (0, 0), such as the
    # imaginary part of c[1][1], are not shifted by -low
    t = moments.moment_table(geometry.scale(square, mp.mpf(2) ** 400), 6)
    assert moments.cross_check(t) < mp.mpf(2) ** (400 * 8 + 20 - t.precision_bits)


def test_cross_check_flags_tampered_table(square):
    t = moments.moment_table(square, 6)
    with mp.workprec(300):
        sign, man, exp, _ = (t.real(2, 2) + mp.mpf("1e-30"))._mpf_
    # I[2][2] moved by 1e-30; every other entry rounded from t's own pass
    bad_real = moments._Half(t.maxdeg, "I", {(2, 2): (-man if sign else man, exp)},
                             t.real_entries._pass, t.precision_bits)
    tampered = dataclasses.replace(t, real_entries=bad_real)
    assert moments.cross_check(tampered) > mp.mpf("1e-32")


# sha256 of repr(cross_check(t)._mpf_) for tables at (maxdeg, bits) and
# their _rounded_table copies 64 bits coarser, recorded when cross_check
# summed the entries' mpmath values rather than the halves' int parts.  The
# pentagon's and windmill's were re-recorded with the column walk: their
# residuals come from entries that are zero by symmetry and hold kernel noise
_CROSS_CHECK_SHA256 = {
    ("pentagon", 8, 256, "table"):
        "54d5cc2d00ec6d2b2a5efe662ab68a4b34191f706a44781114228d0b9dfe9e77",
    ("pentagon", 8, 256, "rounded"):
        "c73d0bb86f23bc25442bb41e0a24652f4778acd2c77499d2fb12b5406e046400",
    ("pentagon", 26, 352, "table"):
        "f80352e436a2094d0527b39c5bf224758d38c01e5ad57995e85dbd1575681fbf",
    ("pentagon", 26, 352, "rounded"):
        "f081a928c0b75312bf63524fc17ed2cf25a9c4b1fb6cafacc45408234d167024",
    ("windmill-2", 8, 256, "table"):
        "7de27d9e01cc727d174bb5831e5d82c3e466bc2926279deab57bdcca9ad9f768",
    ("windmill-2", 8, 256, "rounded"):
        "a561607cdb40181764d6b6f98f904e6ee98aace06414287e85438fa3d3c41c9c",
    ("windmill-2", 26, 352, "table"):
        "1f8eb991a0ecc6af6c18183c0de027df43a79685346c5cc68e4cd5d294845c05",
    ("windmill-2", 26, 352, "rounded"):
        "ed5398ab43e910ef58fd96a3c15259417a1c0e7ee3e4b5390985a6e8da680cd9",
    ("star-8-3", 8, 256, "table"):
        "9633b78452983c768d187ea9fe12fbfb9745a0d39972eabff322dc64d69dcf20",
    ("star-8-3", 8, 256, "rounded"):
        "5fbc0ad3bcca4d13d8d8fa198c3da17991c350057c796716abc645f3e592f1ef",
    ("star-8-3", 26, 352, "table"):
        "f1cc1c6b5664851447c29800f22d765fd7ecd3c362e654f7ccb563d27d7bd9aa",
    ("star-8-3", 26, 352, "rounded"):
        "0173e40da3500b633bbd72daf645ea2c3347f367f33b3211e2f18c7c6bf77ec4",
    ("far-triangle", 8, 256, "table"):
        "6c15912dff3c0cec3be781a9839bbb085125073fef6b315fe2e32b947147eecc",
    ("far-triangle", 8, 256, "rounded"):
        "0e0d9fa5a4da9890805f9cd9515c43896b883b8225d58296fdafe433deba692e",
    ("far-triangle", 26, 352, "table"):
        "96b70531ee3515ed4b9b5c133fc86a9078367e7c97c4b28539b3d1434e61a52e",
    ("far-triangle", 26, 352, "rounded"):
        "16bf6888515d71125f2610fc4585976ba142d85ef27d355b9f7fd8193a51839f",
}


@pytest.mark.parametrize("name,maxdeg,bits,copy", list(_CROSS_CHECK_SHA256))
def test_cross_check_bits_are_pinned(name, maxdeg, bits, copy):
    t = moments.moment_table(_PINNED_POLYGONS[name](), maxdeg, bits)
    if copy == "rounded":
        t = moments._rounded_table(t, bits - 64)
    digest = hashlib.sha256(repr(moments.cross_check(t)._mpf_).encode()).hexdigest()
    assert digest == _CROSS_CHECK_SHA256[(name, maxdeg, bits, copy)]


def test_cross_check_and_save_table_build_no_mpmath_entry(tmp_path, monkeypatch, pentagon):
    # both read every entry, as the int parts the halves hold
    t = moments.moment_table(pentagon, 8)
    reads, getitem = [], moments._Half.__getitem__

    def spy(half, key):
        reads.append(key)
        return getitem(half, key)

    monkeypatch.setattr(moments._Half, "__getitem__", spy)
    moments.cross_check(t)
    moments.save_table(t, tmp_path / "table.json")
    assert reads == []


def test_doubling_precision_regression(any_polygon):
    # recomputing at doubled precision moves no entry by more than the
    # stated-accuracy bound of the coarser table
    prec = 128
    t1 = moments.moment_table(any_polygon, 8, prec)
    t2 = moments.moment_table(any_polygon, 8, 2 * prec)
    with mp.workprec(2 * prec + 16):
        bound = mp.mpf(2) ** (-prec // 2)
        for key, v1 in t1.complex_entries.items():
            assert abs(v1 - t2.complex_entries[key]) <= bound * (1 + abs(v1))
        for key, v1 in t1.real_entries.items():
            assert abs(v1 - t2.real_entries[key]) <= bound * (1 + abs(v1))


def test_validation_errors(square):
    with pytest.raises(PrecisionTooLow):
        moments.moment_table(square, 4, 32)
    with pytest.raises(PrecisionTooLow):
        moments.complex_moment(square, 1, 1, 48)
    with pytest.raises(ValueError):
        moments.moment_table(square, 1)
    with pytest.raises(ValueError):
        moments.complex_moment(square, -1, 2)
    with pytest.raises(ValueError):
        moments.real_moment(square, 0, -3)


def test_precision_policy():
    assert moments.precision_for_degree(0) == moments.DEFAULT_PRECISION_BITS
    assert moments.precision_for_degree(33) == 24 * 33 + 64
    degrees = range(0, 40)
    vals = [moments.precision_for_degree(n) for n in degrees]
    assert vals == sorted(vals)


def test_cache_round_trip_is_exact(tmp_path, pentagon):
    t = moments.moment_table(pentagon, 7, 320)
    path = tmp_path / "table.json"
    moments.save_table(t, path)
    back = moments.load_table(path)
    assert back.fingerprint == t.fingerprint
    assert back.maxdeg == t.maxdeg
    assert back.precision_bits == t.precision_bits
    assert set(back.complex_entries) == set(t.complex_entries)
    with mp.workprec(t.precision_bits + 16):
        for key, val in t.complex_entries.items():
            assert back.complex_entries[key] == val
        for key, val in t.real_entries.items():
            assert back.real_entries[key] == val
    assert {k: v._mpc_ for k, v in back.complex_entries.items()} == \
        {k: v._mpc_ for k, v in t.complex_entries.items()}
    assert {k: v._mpf_ for k, v in back.real_entries.items()} == \
        {k: v._mpf_ for k, v in t.real_entries.items()}


def test_a_loaded_table_has_no_entry_past_its_keys(tmp_path):
    path = tmp_path / "table.json"
    moments.save_table(moments.moment_table(geometry.make_windmill(2), 4), path)
    t = moments.load_table(path)
    with pytest.raises(InsufficientMoments, match=r"^c\[9\]\[0\] not in table \(maxdeg 4\)$"):
        t.c(9, 0)
    with pytest.raises(InsufficientMoments):
        t.real(0, 5)


def test_saved_cache_bytes_are_pinned(tmp_path, triangle):
    # the cache format's bytes for one fixed polygon, as written before the
    # encoder moved to json.dumps
    path = tmp_path / "table.json"
    moments.save_table(moments.moment_table(triangle, 6), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "bda2b114ed75d827fccbd45034fdbbf5ade13f618285fd85cb1bc41037e87778"


def _num_to_json_by_mpmath(man, exp):
    """The cache record as mpmath normalizes man 2^exp: the reference for
    _num_to_json's int normalization."""
    sign, man, exp, _ = from_man_exp(man, exp)
    return [int(sign), hex(int(man)), int(exp)]


def test_num_to_json_normalizes_as_mpmath_does():
    rng = random.Random(33)
    cases = [(0, 0), (0, -500), (0, 7), (1, 0), (-1, 0), (2, -1), (-2, 3),
             (1 << 900, -1000), (-(1 << 64), 10 ** 6), (3 << 255, -(10 ** 6))]
    for _ in range(20000):
        man = rng.getrandbits(rng.randrange(1, 700)) << rng.choice([0, 1, 8, rng.randrange(300)])
        exp = rng.choice([0, rng.randrange(-2000, 2000), rng.randrange(-10 ** 9, 10 ** 9)])
        cases.append((-man if rng.random() < 0.5 else man, exp))
    for man, exp in cases:
        record = moments._num_to_json(man, exp)
        assert record == _num_to_json_by_mpmath(man, exp)
        back, e = moments._parts_from_json(record)  # the record reads back as its number
        assert (back << (e - exp) == man) if man else (back, e) == (0, 0)


def test_cache_rejects_unknown_version(tmp_path, square):
    t = moments.moment_table(square, 4)
    path = tmp_path / "table.json"
    moments.save_table(t, path)
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        moments.load_table(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(maxdeg=20),
    lambda doc: doc.update(maxdeg=6),
    lambda doc: doc["complex"].pop("3,1"),
    lambda doc: doc["real"].pop("0,8"),
    lambda doc: doc["complex"].update({"1,3": doc["complex"]["3,1"]}),
], ids=["maxdeg-raised", "maxdeg-lowered", "complex-key-missing", "real-key-missing",
        "complex-key-with-m-below-n"])
def test_cache_rejects_keys_other_than_its_maxdeg(tmp_path, square, edit):
    path = tmp_path / "table.json"
    moments.save_table(moments.moment_table(square, 8), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not the keys of maxdeg"):
        moments.load_table(path)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["complex"].update({"01,1": doc["complex"].pop("1,1")}),
    lambda doc: doc["complex"].update({"01,1": doc["complex"]["2,1"]}),
    lambda doc: doc["real"].update({" 0,8": doc["real"].pop("0,8")}),
], ids=["complex-key-respelled", "complex-key-respelled-beside-the-original",
        "real-key-respelled"])
def test_cache_rejects_keys_spelled_another_way(tmp_path, square, edit):
    # "01,1" is the key (1, 1) read as ints; a file holds only the spellings
    # save_table writes, so no record can pass for or replace another
    path = tmp_path / "table.json"
    moments.save_table(moments.moment_table(square, 8), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="not the keys of maxdeg 8"):
        moments.load_table(path)


def test_cache_counts_records_before_listing_keys(tmp_path, monkeypatch):
    # a small file claiming maxdeg 10**6 is rejected by its record counts,
    # before any key of that degree is listed
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"version": moments.CACHE_FORMAT_VERSION, "fingerprint": "0",
                                "maxdeg": 10**6, "precision_bits": 256,
                                "complex": {}, "real": {}}))
    table_keys = moments._table_keys

    def spy(maxdeg, kind):
        assert maxdeg < 1000, f"listed the keys of maxdeg {maxdeg}"
        return table_keys(maxdeg, kind)

    monkeypatch.setattr(moments, "_table_keys", spy)
    with pytest.raises(ValueError, match="not the keys of maxdeg 1000000"):
        moments.load_table(path)


def test_cache_rejects_a_negative_maxdeg(tmp_path):
    # maxdeg -1 promises no key at all, so empty sections would match it
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"version": moments.CACHE_FORMAT_VERSION, "fingerprint": "0",
                                "maxdeg": -1, "precision_bits": 256,
                                "complex": {}, "real": {}}))
    with pytest.raises(ValueError, match="malformed moment cache header"):
        moments.load_table(path)


@pytest.mark.parametrize("edit", [
    lambda doc: [doc],
    lambda doc: dict(doc, real=5),
    lambda doc: dict(doc, complex=dict(doc["complex"], **{"3,1": [0, "0x1"]})),
    lambda doc: dict(doc, real=dict(doc["real"], **{"0,0": [0, 5, 0]})),
    lambda doc: dict(doc, real=dict(doc["real"], **{"0,0": [0, "-0x5", 0]})),
    lambda doc: dict(doc, maxdeg=None),
    lambda doc: dict(doc, fingerprint=7),
    lambda doc: dict(doc, precision_bits=8),
    lambda doc: dict(doc, precision_bits=-5),
], ids=["document-not-a-mapping", "real-not-a-mapping", "complex-value-not-records",
        "mantissa-not-hex-text", "negative-mantissa", "maxdeg-not-an-int",
        "fingerprint-not-text", "precision-below-minimum", "precision-negative"])
def test_cache_rejects_values_of_the_wrong_type(tmp_path, square, edit):
    path = tmp_path / "table.json"
    moments.save_table(moments.moment_table(square, 4), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError):
        moments.load_table(path)


def test_table_fingerprint_depends_on_polygon_and_precision(square, triangle):
    assert moments.table_fingerprint(square, 256) != moments.table_fingerprint(triangle, 256)
    assert moments.table_fingerprint(square, 256) != moments.table_fingerprint(square, 320)
    assert moments.moment_table(square, 4).fingerprint == \
        moments.table_fingerprint(square, moments.DEFAULT_PRECISION_BITS)
