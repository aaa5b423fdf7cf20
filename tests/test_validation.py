import numpy as np
import pytest

from matchbreak.validation import as_matrix, as_vector, check_nonnegative, check_positive, check_probability

NUMBER_CHECKS = [check_positive, check_nonnegative, check_probability]


@pytest.mark.parametrize("check", NUMBER_CHECKS)
@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_number_checks_refuse_what_is_not_a_number(check, value):
    """``float()`` takes ``True`` and ``"0.5"``; the checks refuse them, as
    ``check_count`` refuses them for integers."""
    with pytest.raises(TypeError, match="width must be a number"):
        check(value, "width")


@pytest.mark.parametrize("check", NUMBER_CHECKS)
@pytest.mark.parametrize("value", [0.5, np.float32(0.5), np.float64(0.5)])
def test_number_checks_return_a_float(check, value):
    checked = check(value, "width")
    assert type(checked) is float and checked == 0.5


@pytest.mark.parametrize("convert, x, name", [
    (as_vector, [1.0, 10**400], "v"),
    (as_matrix, [[1.0, 2.0], [3.0, -(10**400)]], "m"),
])
def test_integer_beyond_float_range_is_a_value_error(convert, x, name):
    with pytest.raises(ValueError, match=f"^{name} holds an integer beyond float range$"):
        convert(x, name=name)
