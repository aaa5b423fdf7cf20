
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbreak.errors import DegenerateTemplateError, TemplateFormatError
from matchbreak.templates import (
    Template,
    normalize,
    read_template,
    write_template,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_normalize_simple():
    t = normalize([0.0, 2.0])
    assert np.allclose(t.values, [0.0, 1.0])
    assert t.unit


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    v = rng.standard_normal(32)
    once = normalize(v)
    twice = normalize(once.values)
    assert np.allclose(once.values, twice.values, rtol=0, atol=1e-15)


def test_normalize_zero_vector_rejected():
    with pytest.raises(DegenerateTemplateError, match="degenerate"):
        normalize(np.zeros(5))


@given(st.lists(finite_floats, min_size=1, max_size=20), st.floats(min_value=1e-3, max_value=1e3))
def test_normalize_scale_invariant(values, scale):
    arr = np.asarray(values)
    with np.errstate(over="ignore"):
        scaled = arr * scale
        if np.linalg.norm(arr) == 0.0 or not np.all(np.isfinite(scaled)):
            return
        if np.linalg.norm(scaled) == 0.0:
            return
    a = normalize(arr)
    b = normalize(scaled)
    assert np.allclose(a.values, b.values, rtol=0, atol=1e-9)


class TestTemplateType:
    def test_dim(self):
        assert Template([1.0, 2.0, 3.0]).dim == 3

    def test_values_are_read_only(self):
        t = Template([1.0, 2.0])
        with pytest.raises(ValueError):
            t.values[0] = 9.0

    def test_owns_its_data(self):
        source = np.array([1.0, 2.0])
        t = Template(source)
        source[0] = 99.0
        assert t.values[0] == 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Template([1.0, float("nan")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Template([])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            Template(np.ones((2, 2)))

    def test_unit_flag_checked(self):
        with pytest.raises(ValueError, match="unit"):
            Template([1.0, 1.0], unit=True)

    def test_equality(self):
        assert Template([1.0, 2.0]) == Template([1.0, 2.0])
        assert Template([1.0, 2.0]) != Template([1.0, 2.5])
        assert Template([1.0, 0.0]) != Template([1.0, 0.0], unit=True)

    def test_repr_does_not_leak_values(self):
        t = Template([12345.678, 2.0])
        assert "12345" not in repr(t)


class TestBinaryFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        t = Template(rng.standard_normal(512))
        path = tmp_path / "t.tpl"
        write_template(t, path)
        back = read_template(path)
        assert back == t

    def test_round_trip_unit_flag(self, tmp_path):
        t = normalize(np.arange(1.0, 9.0))
        path = tmp_path / "u.tpl"
        write_template(t, path)
        assert read_template(path).unit

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tpl"
        write_template(Template([1.0, 2.0]), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(TemplateFormatError, match="bad magic"):
            read_template(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.tpl"
        write_template(Template([1.0, 2.0, 3.0]), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TemplateFormatError, match="length mismatch"):
            read_template(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "stub.tpl"
        path.write_bytes(b"TPL1\x02")
        with pytest.raises(TemplateFormatError, match="truncated"):
            read_template(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "inf.tpl"
        write_template(Template([1.0, 2.0]), path)
        raw = bytearray(path.read_bytes())
        raw[9:17] = np.array([np.inf]).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(TemplateFormatError, match="non-finite"):
            read_template(path)

    def test_inconsistent_unit_flag(self, tmp_path):
        path = tmp_path / "flag.tpl"
        write_template(Template([3.0, 4.0]), path)
        raw = bytearray(path.read_bytes())
        raw[8] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(TemplateFormatError, match="norm"):
            read_template(path)

    @settings(max_examples=50)
    @given(st.lists(finite_floats, min_size=1, max_size=64))
    def test_round_trip_any_finite_payload(self, values):
        import tempfile

        t = Template(values)
        with tempfile.NamedTemporaryFile(suffix=".tpl") as handle:
            write_template(t, handle.name)
            assert read_template(handle.name) == t
