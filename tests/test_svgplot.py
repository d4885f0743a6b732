"""SVG chart rendering."""

import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from testkit import polyline_points_ref
from nmdesc.svgplot import line_plot_svg, write_line_plot

NS = "{http://www.w3.org/2000/svg}"


def render(series, **kwargs):
    return ET.fromstring(line_plot_svg(series, **kwargs))


class TestStructure:
    def test_valid_xml_with_polyline_per_series(self):
        root = render({
            "a": ([0, 1, 2], [1.0, 2.0, 3.0]),
            "b": ([0, 1, 2], [3.0, 2.0, 1.0]),
        })
        assert root.tag == f"{NS}svg"
        polylines = root.findall(f"{NS}polyline")
        assert len(polylines) == 2
        colors = {p.get("stroke") for p in polylines}
        assert len(colors) == 2

    def test_title_labels_and_legend(self):
        root = render({"loss": ([0, 1], [1.0, 0.5])},
                      title="run", xlabel="k", ylabel="F")
        texts = [t.text for t in root.iter(f"{NS}text")]
        for expected in ("run", "k", "F", "loss"):
            assert expected in texts

    def test_escaping(self):
        svg = line_plot_svg({"a<b&c": ([0, 1], [1.0, 2.0])}, title="x<y")
        root = ET.fromstring(svg)  # parse proves escaping worked
        assert "a<b&c" in [t.text for t in root.iter(f"{NS}text")]

    def test_coordinates_inside_canvas(self):
        root = render({"a": ([0, 10], [0.0, 5.0])})
        for poly in root.findall(f"{NS}polyline"):
            for pair in poly.get("points").split():
                x, y = map(float, pair.split(","))
                assert 0.0 <= x <= 640.0
                assert 0.0 <= y <= 420.0


class TestLogScale:
    def test_nonpositive_points_dropped(self):
        # y=0 in the middle splits the line into two segments
        root = render({"a": ([0, 1, 2, 3], [1.0, 0.0, 10.0, 100.0])},
                      logy=True)
        polylines = root.findall(f"{NS}polyline")
        assert len(polylines) == 2
        counts = sorted(len(p.get("points").split()) for p in polylines)
        assert counts == [1, 2]

    def test_all_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            line_plot_svg({"a": ([0, 1], [0.0, -1.0])}, logy=True)


class TestPointsMatchScalarReference:
    def points(self, series, logy):
        root = render(series, logy=logy)
        return [p.get("points") for p in root.findall(f"{NS}polyline")]

    @pytest.mark.parametrize("logy", [False, True])
    def test_random_series(self, logy):
        rng = np.random.default_rng(3)
        n = 500
        ks = np.arange(1, n + 1)
        series = {
            "decay": (ks, np.cumsum(rng.random(n)) * 10.0 ** rng.integers(-8, 8)),
            "noisy": (ks.tolist(), (rng.standard_normal(n) * 1e3).tolist()),
            "short": (np.linspace(0.0, 7.0, 30), np.exp(-rng.random(30) * 30.0)),
        }
        assert self.points(series, logy) == polyline_points_ref(series, logy)

    def test_breaks_and_special_values(self):
        series = {
            "gaps": ([0, 1, 2, 3, 4, 5, 6, 7], [0.0, 2.0, 3.0, -1.0, 0.0, 5.0, 1e-300, 0.0]),
            "nan": ([0.5, 1.5, 2.5], [1.0, math.nan, 4.0]),
            "empty": ([], []),
            "uneven": ([0, 1, 2, 3], [3.0, 1.0]),
        }
        got = self.points(series, True)
        assert got == polyline_points_ref(series, True)
        assert len(got) == 4  # two runs in "gaps", none for "empty"

    def test_flat_series(self):
        for logy in (False, True):
            series = {"flat": ([2, 2, 2], [4.0, 4.0, 4.0])}
            assert self.points(series, logy) == polyline_points_ref(series, logy)


class TestErrors:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_plot_svg({})


def test_write_line_plot(tmp_path):
    path = tmp_path / "plot.svg"
    write_line_plot(str(path), {"a": ([0, 1], [1.0, 2.0])}, title="t")
    root = ET.parse(str(path)).getroot()
    assert root.tag == f"{NS}svg"
