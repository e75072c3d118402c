from spinflow.config import parse_config
from spinflow.verify import verify_report

FD_CHECKS = {"weitzenboeck_fd_rate", "green_roundtrip_rate"}


def test_break_stencil_fails_exactly_the_fd_checks():
    base = "verify.sizes = 32, 64\nverify.ratio_trials = 2\nseed = 4\n"
    clean = verify_report(parse_config(base), 4)
    broken = verify_report(parse_config(base + "verify.break_stencil = true\n"), 4)
    assert clean["all_pass"] is True and broken["all_pass"] is False
    assert {k for k, c in broken["checks"].items() if not c["pass"]} == FD_CHECKS
    assert broken["checks"].keys() == clean["checks"].keys()
    for name in clean["checks"].keys() - FD_CHECKS:
        assert broken["checks"][name] == clean["checks"][name], name
    rest = {k for k in clean if k not in ("checks", "all_pass")}
    assert {k: broken[k] for k in rest} == {k: clean[k] for k in rest}
