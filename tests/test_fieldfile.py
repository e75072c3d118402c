import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflow.charts import GridChart, SpinorField
from spinflow.errors import FormatError
from spinflow.fieldfile import MAGIC, read_field, write_field
from spinflow.fields import torus_mode_field

from conftest import random_field


CHARTS = [
    GridChart.torus(16, 12, 1.0, 2.0, spin_structure="PA"),
    GridChart.disk(17, 0.8),
    GridChart.rect(9, 11, (-1.0, 2.0, 0.0, 1.0)),
    GridChart.sphere(9, 1.5),
    GridChart.cylinder(9, 16, -0.5, 1.25),
]


class TestRoundTrip:
    @pytest.mark.parametrize("chart", CHARTS, ids=lambda c: c.kind)
    def test_bytes_identity(self, chart, tmp_path):
        psi = random_field(chart, n=2, seed=5)
        p1 = tmp_path / "a.spnf"
        p2 = tmp_path / "b.spnf"
        write_field(p1, psi)
        back = read_field(p1)
        assert back.chart == psi.chart
        np.testing.assert_array_equal(back.values, psi.values)
        write_field(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_spin_structure_preserved(self, tmp_path):
        chart = GridChart.torus(16, spin_structure="AA")
        psi = torus_mode_field(chart, 0.5, 1, seed=1)
        write_field(tmp_path / "f.spnf", psi)
        assert read_field(tmp_path / "f.spnf").chart.spin_structure == "AA"

    def test_payload_layout_node_major(self, tmp_path):
        chart = GridChart.torus(8, spin_structure="PP")
        psi = SpinorField.zeros(chart, 2)
        psi.values[0, 1, 1, 0] = 3.0 - 4.0j      # node (iy=0, ix=1), comp 2, slot 1
        path = tmp_path / "f.spnf"
        write_field(path, psi)
        raw = path.read_bytes()[56:]
        flat = np.frombuffer(raw, dtype="<c16")
        node_index = 0 * 8 + 1
        assert flat[node_index * 4 + 2] == 3.0 - 4.0j


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.spnf"
        chart = GridChart.torus(8, spin_structure="PP")
        write_field(p, SpinorField.zeros(chart, 1))
        raw = bytearray(p.read_bytes())
        raw[:5] = b"XXXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            read_field(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "t.spnf"
        p.write_bytes(MAGIC)
        with pytest.raises(FormatError, match="truncated"):
            read_field(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.spnf"
        chart = GridChart.torus(8, spin_structure="PP")
        write_field(p, SpinorField.zeros(chart, 1))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError, match="payload"):
            read_field(p)

    def test_big_endian_rejected(self, tmp_path):
        p = tmp_path / "t.spnf"
        chart = GridChart.torus(8, spin_structure="PP")
        write_field(p, SpinorField.zeros(chart, 1))
        raw = bytearray(p.read_bytes())
        raw[5] = ord("B")
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="endian"):
            read_field(p)

    @pytest.mark.parametrize("chart, tag", [
        (GridChart.torus(8, spin_structure="PP"), 9),
        (GridChart.torus(8, spin_structure="PP"), 0xFF),
        (GridChart.disk(9), 3),
        (GridChart.disk(9), 0),
        (GridChart.rect(8), 9),
    ], ids=["torus-9", "torus-none", "disk-3", "disk-0", "rect-9"])
    def test_spin_tag_must_match_domain(self, chart, tag, tmp_path):
        p = tmp_path / "t.spnf"
        write_field(p, SpinorField.zeros(chart, 1))
        raw = bytearray(p.read_bytes())
        raw[7] = tag
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="spin structure tag"):
            read_field(p)

    @pytest.mark.parametrize("chart, offset, patch", [
        (GridChart.torus(8, spin_structure="PP"), 20, b"\x01"),
        (GridChart.torus(8, spin_structure="PP"), 23, b"\x80"),
        (GridChart.torus(8, spin_structure="PP"), 8, struct.pack("<II", 4, 16)),
        (GridChart.disk(12), 8, struct.pack("<II", 16, 9)),
        (GridChart.sphere(12), 8, struct.pack("<II", 16, 9)),
        (GridChart.torus(8, spin_structure="PP"), 24, struct.pack("<d", float("nan"))),
        (GridChart.torus(8, spin_structure="PP"), 32, struct.pack("<d", float("inf"))),
        (GridChart.torus(8, spin_structure="PP"), 24, struct.pack("<d", 0.0)),
        (GridChart.disk(9), 24, struct.pack("<d", -1.0)),
        (GridChart.disk(9), 24, struct.pack("<d", float("nan"))),
        (GridChart.rect(8), 32, struct.pack("<d", float("inf"))),
        (GridChart.cylinder(8, 8, 0.0, 1.0), 32, struct.pack("<d", float("nan"))),
        (GridChart.disk(9), 32, struct.pack("<d", 1.0)),
        (GridChart.torus(8, spin_structure="PP"), 56, struct.pack("<d", float("nan"))),
        (GridChart.disk(9), 56, struct.pack("<d", 1.0)),
    ], ids=["reserved-20", "reserved-23", "torus-nx-4", "disk-ny-ne-nx", "sphere-ny-ne-nx",
            "torus-period-nan", "torus-period-inf", "torus-period-0", "disk-radius-neg",
            "disk-radius-nan", "rect-bound-inf", "cylinder-t1-nan", "disk-padding",
            "value-nan", "disk-outside-data"])
    def test_invalid_content_rejected(self, chart, offset, patch, tmp_path):
        p = tmp_path / "t.spnf"
        write_field(p, SpinorField.zeros(chart, 1))
        raw = bytearray(p.read_bytes())
        raw[offset:offset + len(patch)] = patch
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_field(p)


FUZZ_BASES = [random_field(chart, n=1, seed=3) for chart in (
    GridChart.torus(8, spin_structure="PA"), GridChart.disk(9, 0.8),
    GridChart.rect(8, bounds=(-1.0, 2.0, 0.0, 1.0)), GridChart.sphere(8),
    GridChart.cylinder(8, 8, -0.5, 1.25))]


class TestFuzz:
    @given(base=st.integers(0, len(FUZZ_BASES) - 1),
           edits=st.lists(st.tuples(st.one_of(st.integers(0, 63), st.integers(0, 10 ** 6)),
                                    st.integers(0, 255)), min_size=1, max_size=4),
           cut=st.one_of(st.just(0), st.integers(1, 40)))
    @settings(max_examples=150, deadline=None)
    def test_mutated_bytes_read_back_or_format_error(self, tmp_path_factory, base, edits, cut):
        path = tmp_path_factory.mktemp("fuzz") / "f.spnf"
        write_field(path, FUZZ_BASES[base])
        raw = bytearray(path.read_bytes())
        for pos, byte in edits:
            raw[pos % len(raw)] = byte
        raw = bytes(raw[:len(raw) - cut])
        path.write_bytes(raw)
        try:
            psi = read_field(path)
        except FormatError:
            return
        write_field(path, psi)
        assert path.read_bytes() == raw
