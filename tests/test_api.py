import polyrho


def test_every_public_name_resolves():
    # a name left in __all__ after its object is gone fails here, the lazily
    # imported oracle names included
    for name in polyrho.__all__:
        assert getattr(polyrho, name) is not None, name


def test_public_names_are_sorted_and_unique():
    assert polyrho.__all__ == sorted(set(polyrho.__all__))


def test_star_import_runs():
    namespace = {}
    exec("from polyrho import *", namespace)
    assert set(polyrho.__all__) <= set(namespace)
