import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinflow.charts import GridChart
from spinflow.config import _SCHEMA, parse_config
from spinflow.errors import ConfigurationError
from spinflow.reactions import ChiralUV, CurvatureCubic, GeneralCubic, ScalarH


class TestParsing:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg["chart.nx"] == 64
        assert cfg["solver.damping"] == 0.5
        assert cfg["seed"] == 0

    def test_values_and_comments(self):
        cfg = parse_config("""
        # leading comment
        chart.nx = 128      # trailing comment
        chart.spin_structure = PA
        solver.tol = 1e-9
        analysis.radii = 0.2, 0.1, 0.05
        """)
        assert cfg["chart.nx"] == 128
        assert cfg["chart.spin_structure"] == "PA"
        assert cfg["solver.tol"] == 1e-9
        assert cfg["analysis.radii"] == (0.2, 0.1, 0.05)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            parse_config("chart.mystery = 1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config("chart.nx = 32\nchart.nx = 64")

    def test_range_violations(self):
        for line in ("chart.nx = 4", "solver.damping = 1.5", "solver.tol = 0",
                     "analysis.epsilon = -1", "chart.spin_structure = XX"):
            with pytest.raises(ConfigurationError):
                parse_config(line)

    def test_bad_syntax(self):
        with pytest.raises(ConfigurationError, match="key = value"):
            parse_config("just a line")

    @pytest.mark.parametrize("build", [
        lambda: parse_config("chart.x0 = nan"),
        lambda: parse_config("chart.x1 = inf"),
        lambda: parse_config("solver.tol = inf"),
        lambda: parse_config("analysis.radii = 0.1, nan"),
        lambda: parse_config("chart.period_x = -inf"),
        lambda: parse_config("reaction.h = nan"),
        lambda: GridChart.torus(8, period_x=float("nan")),
        lambda: GridChart.torus(8, period_x=1.0, period_y=float("inf")),
        lambda: GridChart.disk(9, float("nan")),
        lambda: GridChart.disk(9, float("inf")),
        lambda: GridChart.disk(9, 1e160),
        lambda: GridChart.rect(8, bounds=(float("nan"), 1.0, 0.0, 1.0)),
        lambda: GridChart.rect(8, bounds=(0.0, 1.0, float("-inf"), 1.0)),
        lambda: GridChart.rect(8, bounds=(-1e308, 1e308, 0.0, 1.0)),
        lambda: GridChart.sphere(9, float("inf")),
        lambda: GridChart.cylinder(8, 8, float("-inf"), 1.0),
        lambda: GridChart.cylinder(8, 8, 0.0, float("nan")),
    ], ids=["x0-nan", "x1-inf", "tol-inf", "radii-nan", "period-neg-inf", "h-nan",
            "torus-period-nan", "torus-period-inf", "disk-nan", "disk-inf", "disk-huge",
            "rect-nan", "rect-neg-inf", "rect-span-overflow", "sphere-inf",
            "cylinder-t0-inf", "cylinder-t1-nan"])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    @given(lines=st.lists(st.tuples(
        st.sampled_from(sorted(_SCHEMA) + ["chart.bogus", ""]),
        st.one_of(st.text(max_size=12), st.integers().map(str),
                  st.floats().map(repr), st.just("nan"), st.just("1e999"),
                  st.lists(st.floats(allow_nan=False), max_size=3).map(
                      lambda v: ", ".join(map(repr, v))))), max_size=5),
        junk=st.text(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_parses_or_configuration_error(self, lines, junk):
        text = "\n".join(f"{key} = {val}" for key, val in lines) + "\n" + junk
        try:
            parse_config(text)
        except ConfigurationError:
            pass


class TestBuilders:
    def test_chart_kinds(self):
        torus = parse_config("chart.domain = torus\nchart.nx = 16").build_chart()
        assert torus.kind == "torus" and torus.spin_structure == "AA"
        disk = parse_config("chart.domain = disk\nchart.nx = 17\nchart.radius = 2.0"
                            ).build_chart()
        assert disk.kind == "disk" and disk.params == (2.0,)
        rect = parse_config("chart.domain = rect\nchart.nx = 9\nchart.x0 = 0\n"
                            "chart.x1 = 2").build_chart()
        assert rect.kind == "rect" and rect.params[1] == 2.0

    def test_reaction_kinds(self):
        assert isinstance(parse_config("reaction.type = scalar_h").build_reaction(),
                          ScalarH)
        assert isinstance(parse_config("reaction.type = curvature_cubic"
                                       ).build_reaction(), CurvatureCubic)
        assert isinstance(parse_config("reaction.type = general_cubic\nreaction.h = 0.5"
                                       ).build_reaction(), GeneralCubic)
        chi = parse_config("reaction.type = chiral_sl2\nreaction.h = 0.7"
                           ).build_reaction()
        assert isinstance(chi, ChiralUV) and chi.preset == "sl2"
