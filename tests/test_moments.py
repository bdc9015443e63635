import dataclasses
import functools
import hashlib
import json
import pickle
import random

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp, fzero, mpf_neg

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
                assert abs(val - ref) <= mp.mpf(2) ** (32 - bits) * scale[m + n], (m, n)


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
        for kind, edges in (("c", moments._complex_edges(p)), ("I", moments._real_edges(p))):
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
                bound = mp.mpf(2) ** (32 - bits) * scale[m + n]
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
    """Both halves rounded at once, in the caller's context, from the edge
    sums of one kernel pass at sums_bits (default bits): each part is
    _rounded of its exact sum."""
    halves = {}
    for kind in ("c", "I"):
        entries = halves[kind] = {}
        for (m, n), (re, im, exp) in moments._edge_sums(p, maxdeg, sums_bits or bits,
                                                        kind).items():
            if kind == "I":
                entries[(m, n)] = mp.make_mpf(moments._rounded(-re, n + 1, exp, bits))
                continue
            cre = moments._rounded(im, n + 1, exp - 1, bits)
            cim = fzero if m == n else moments._rounded(-re, n + 1, exp - 1, bits)
            entries[(m, n)] = mp.make_mpc((cre, cim))
            if m != n:
                entries[(n, m)] = mp.make_mpc((cre, mpf_neg(cim)))
    return moments.MomentTable(moments.table_fingerprint(p, bits), maxdeg, bits,
                               halves["c"], halves["I"])


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

    # the pair pickles before its pass, sharing one set of sums, and after it
    check = moments.moment_table(poly, maxdeg, fine)
    check, t = pickle.loads(pickle.dumps((check, moments._rounded_table(check, bits))))
    assert t.complex_entries._source is check.complex_entries
    _first_reads(t, maxdeg)
    check, t = pickle.loads(pickle.dumps((check, t)))
    _assert_same_bits(t, ref)
    _assert_same_bits(check, fine_ref)


def test_a_rounded_table_rounds_the_sums_not_the_finer_entries():
    # a sum one unit above the midpoint of two 256-bit numbers, whose last bit
    # is 70 bits higher: at 320 bits the sum rounds to the midpoint, which
    # then rounds to even, down, while the sum itself rounds up
    bits, fine = 256, 320
    half_way = ((1 << bits) + 1) << 70
    check = moments.moment_table(geometry.make_regular_ngon(5), 4, fine)
    check.complex_entries._sums = {(0, 0): (0, half_way + 1, 1)}  # c[0][0] = Im S / 2
    check.real_entries._sums = {(0, 0): (-half_way - 1, 0, 0)}  # I[0][0] = -S
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
    assert low <= moments._cancellation_bits(geometry.polygon_new(vertices)) <= high


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


def test_cross_check_residual_small(any_polygon):
    t = moments.moment_table(any_polygon, 8)
    assert moments.cross_check(t) < mp.mpf(2) ** (-t.precision_bits + 20)


def test_cross_check_flags_tampered_table(square):
    t = moments.moment_table(square, 6)
    bad_real = dict(t.real_entries)
    with mp.workprec(300):
        bad_real[(2, 2)] = bad_real[(2, 2)] + mp.mpf("1e-30")
    tampered = dataclasses.replace(t, real_entries=bad_real)
    assert moments.cross_check(tampered) > mp.mpf("1e-32")


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


def test_saved_cache_bytes_are_pinned(tmp_path, triangle):
    # the cache format's bytes for one fixed polygon, as written before the
    # encoder moved to json.dumps
    path = tmp_path / "table.json"
    moments.save_table(moments.moment_table(triangle, 6), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "bda2b114ed75d827fccbd45034fdbbf5ade13f618285fd85cb1bc41037e87778"


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
