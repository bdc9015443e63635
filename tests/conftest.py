from collections import Counter

import pytest

from polyrho import geometry, moments

# shared shape set: convex/non-convex, 3-6 vertices, all area 1 except the
# scalene triangle (area 0.4) which exercises the non-normalized paths
FIXTURE_BUILDERS = {
    "triangle": lambda: geometry.polygon_new([(0, 0), (1, 0), (0.3, 0.8)]),
    "square": lambda: geometry.polygon_new(
        [(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)]),
    "windmill-1": lambda: geometry.make_windmill(1),
    "windmill-2": lambda: geometry.make_windmill(2),
    "pentagon": lambda: geometry.make_regular_ngon(5),
}


def fixture_polygons():
    return [(name, FIXTURE_BUILDERS[name]()) for name in sorted(FIXTURE_BUILDERS)]


@pytest.fixture(params=sorted(FIXTURE_BUILDERS))
def any_polygon(request):
    return FIXTURE_BUILDERS[request.param]()


@pytest.fixture
def square():
    return FIXTURE_BUILDERS["square"]()


@pytest.fixture
def triangle():
    return FIXTURE_BUILDERS["triangle"]()


@pytest.fixture
def pentagon():
    return FIXTURE_BUILDERS["pentagon"]()


@pytest.fixture
def kernel_work(monkeypatch):
    """{"columns": a Counter of moments._column_walk calls by column m,
    "real": calls of moments._real_walk}, counted from here on: the complex
    kernel's walks, one per edge of each column built, and the real half's
    passes."""
    count = {"columns": Counter(), "real": 0}
    column_walk, real_walk = moments._column_walk, moments._real_walk

    def column(m, *args):
        count["columns"][m] += 1
        return column_walk(m, *args)

    def real(*args):
        count["real"] += 1
        return real_walk(*args)

    monkeypatch.setattr(moments, "_column_walk", column)
    monkeypatch.setattr(moments, "_real_walk", real)
    return count


@pytest.fixture
def frame_work(monkeypatch):
    """{"image": calls of geometry._int_image, "area": of
    geometry._twice_signed_area, "fingerprint": of geometry.fingerprint},
    counted from here on: the builds of a polygon's exact integer frame and
    of its fingerprint."""
    count = {"image": 0, "area": 0, "fingerprint": 0}
    for key, name in (("image", "_int_image"), ("area", "_twice_signed_area"),
                      ("fingerprint", "fingerprint")):
        def counted(*args, _inner=getattr(geometry, name), _key=key):
            count[_key] += 1
            return _inner(*args)
        monkeypatch.setattr(geometry, name, counted)
    return count


@pytest.fixture
def front_door_work(monkeypatch):
    """{"members": member builds through geometry._FAMILIES, "build":
    FamilySpec.build calls, "edge_sums": moments._edge_sums calls, "pools":
    ProcessPoolExecutor starts}, counted from here on: the work a request
    does once its arguments have passed its checks."""
    import concurrent.futures

    count = {"members": 0, "build": 0, "edge_sums": 0, "pools": 0}

    def counting(key, inner):
        def counted(*args, **kwargs):
            count[key] += 1
            return inner(*args, **kwargs)
        return counted

    for kind, (names, make, normalized) in list(geometry._FAMILIES.items()):
        monkeypatch.setitem(geometry._FAMILIES, kind,
                            (names, counting("members", make), normalized))
    monkeypatch.setattr(geometry.FamilySpec, "build",
                        counting("build", geometry.FamilySpec.build))
    monkeypatch.setattr(moments, "_edge_sums", counting("edge_sums", moments._edge_sums))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        counting("pools", concurrent.futures.ProcessPoolExecutor))
    return count
