import dataclasses
import json
import pickle

import pytest
from mpmath import mp

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


@pytest.mark.parametrize("name", ["far-triangle", "square", "windmill-20"])
def test_table_matches_binomial_reference_entrywise(name):
    # short edges far from the origin; axis-aligned edges (dx = 0 and
    # dy = 0, so walks start from both ends of the anti-diagonals); edges of
    # length 20 with vertices from 0.02 to 20 away from the origin
    poly = {
        "far-triangle": lambda: geometry.polygon_new(
            [(100, 100), (100.0015, 100), (100.00075, 100.0013)]),
        "square": lambda: geometry.polygon_new(
            [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]),
        "windmill-20": lambda: geometry.make_windmill(20),
    }[name]()
    bits, maxdeg = 256, 10
    t = moments.moment_table(poly, maxdeg, bits)
    with mp.workprec(bits + 64):
        for entries, single in ((t.complex_entries, moments.complex_moment),
                                (t.real_entries, moments.real_moment)):
            scale = {}
            for (m, n), val in entries.items():
                scale[m + n] = max(scale.get(m + n, 1), abs(val))
            for (m, n), val in entries.items():
                ref = single(poly, m, n, bits)
                assert abs(val - ref) <= mp.mpf(2) ** (32 - bits) * scale[m + n], (m, n)


def _eager_reference(p, maxdeg, bits):
    """Both halves built as one eager pass: the edge sums for both kinds at
    bits + maxdeg + 32, then the prefactors and the conjugate fill at bits."""
    ckeys = [(m, n) for m in range(maxdeg + 1) for n in range(min(m, maxdeg - m) + 1)]
    rkeys = [(m, n) for m in range(maxdeg + 1) for n in range(maxdeg - m + 1)]
    with mp.workprec(bits + maxdeg + 32):
        acc_c = moments._edge_sums(moments._complex_edges(p), ckeys)
        acc_r = moments._edge_sums(moments._real_edges(p), rkeys)
    complex_entries, real_entries = {}, {}
    with mp.workprec(bits):
        for (m, n), val in acc_c.items():
            c = +(val / (mp.mpc(0, 2) * (n + 1)))
            if m == n:
                c = mp.mpc(c.real)
            complex_entries[(m, n)] = c
            if m != n:
                complex_entries[(n, m)] = mp.conj(c)
        for (m, n), val in acc_r.items():
            real_entries[(m, n)] = +(-val / (n + 1))
    return moments.MomentTable(moments.table_fingerprint(p, bits), maxdeg, bits,
                               complex_entries, real_entries)


def _raw(entries):
    return [(key, val._mpc_ if isinstance(val, mp.mpc) else val._mpf_)
            for key, val in entries.items()]


@pytest.mark.parametrize("maxdeg,bits", [(8, 256), (26, 352)])
@pytest.mark.parametrize("name", ["pentagon", "far-triangle", "windmill-20"])
def test_deferred_halves_have_the_bits_of_an_eager_build(tmp_path, name, maxdeg, bits):
    poly = {
        "pentagon": lambda: geometry.make_regular_ngon(5),
        "far-triangle": lambda: geometry.polygon_new(
            [(100, 100), (100.0015, 100), (100.00075, 100.0013)]),
        "windmill-20": lambda: geometry.make_windmill(20),
    }[name]()
    ref = _eager_reference(poly, maxdeg, bits)
    for first_read_bits in (64, None, 4000):
        t = moments.moment_table(poly, maxdeg, bits)
        assert len(t.complex_entries) == len(t.real_entries) == len(ref.real_entries)
        with mp.workprec(first_read_bits or mp.prec):  # None: the caller's context
            t.c(0, 0)
            t.real(0, 0)
        assert _raw(t.complex_entries) == _raw(ref.complex_entries)
        assert _raw(t.real_entries) == _raw(ref.real_entries)

    back = pickle.loads(pickle.dumps(moments.moment_table(poly, maxdeg, bits)))
    assert _raw(back.complex_entries) == _raw(ref.complex_entries)
    assert _raw(back.real_entries) == _raw(ref.real_entries)

    paths = [tmp_path / f"{kind}.json" for kind in ("unread", "read", "eager")]
    moments.save_table(moments.moment_table(poly, maxdeg, bits), paths[0])
    read = moments.moment_table(poly, maxdeg, bits)
    for half in (read.complex_entries, read.real_entries):
        dict(half)
    moments.save_table(read, paths[1])
    moments.save_table(ref, paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def _forbid(monkeypatch, kernel):
    def refuse(p):
        raise AssertionError(f"moments.{kernel} called")
    monkeypatch.setattr(moments, kernel, refuse)


def test_gram_paths_build_no_real_moments(monkeypatch, capsys, pentagon):
    _forbid(monkeypatch, "_real_edges")
    assert len(moments.moment_table(pentagon, 6).real_entries) == 28
    content.rho_n(pentagon, 3)
    content.rho_n_telescoping(pentagon, 3)
    spec = geometry.FamilySpec("windmill", (), ("a",))
    assert all(v is not None for v in extremal.sweep_family(spec, 0.5, 1.5, 3, 1).values)
    assert len(extremal.maximize_1d(spec, 0.3, 1.5, 1, steps=5).points) == 1
    assert cli.main(["rho", "--family", "regular-ngon:5", "--n", "3"]) == 0
    capsys.readouterr()


def test_closed_forms_build_no_complex_moments(monkeypatch, square):
    _forbid(monkeypatch, "_complex_edges")
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


def test_table_fingerprint_depends_on_polygon_and_precision(square, triangle):
    assert moments.table_fingerprint(square, 256) != moments.table_fingerprint(triangle, 256)
    assert moments.table_fingerprint(square, 256) != moments.table_fingerprint(square, 320)
    assert moments.moment_table(square, 4).fingerprint == \
        moments.table_fingerprint(square, moments.DEFAULT_PRECISION_BITS)
