import pytest

from nichols_fusion.cyclo import cyclotomic_field


@pytest.fixture
def fresh_fields():
    """Cold fields for the test, dropped again after it.

    Constants are memoized on the cached fields, so a warm field hides a
    monkeypatched function, and a field warmed under the patch would hand its
    defective values to every later test.
    """
    cyclotomic_field.cache_clear()
    yield
    cyclotomic_field.cache_clear()
