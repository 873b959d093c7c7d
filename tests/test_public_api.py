import ricciflow


def test_every_exported_name_resolves():
    missing = [name for name in ricciflow.__all__
               if not hasattr(ricciflow, name)]
    assert missing == []
    assert len(set(ricciflow.__all__)) == len(ricciflow.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ricciflow import *", namespace)
    assert set(ricciflow.__all__) <= set(namespace)
