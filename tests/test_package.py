import ionparity


def test_exports_are_sorted_unique_and_defined_in_the_package():
    names = ionparity.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        module = getattr(ionparity, name).__module__
        assert module.startswith("ionparity."), (name, module)
