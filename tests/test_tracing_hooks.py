"""perfbench/tracing.py wraps urnsim names by ``owner.__dict__[attr]``; a
cleanup that deletes or bypasses one of them should fail here, not only in
the benchmark's smoke run."""

from pathlib import Path

from urnsim import distributions, moments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch, theta_one_log):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    before = {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in tracing._POINTS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # theta = 1, k = 1: moment_report and the normalizer reach L*
        # through the wrapped module globals
        moments.moment_report(theta_one_log, 1e4, 1, star=True)
        moments.normalizer(theta_one_log, 1).b(1e4)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("distributions.lstar") == 3
    assert "distributions.counting_function" in names
    assert {(owner, attr): owner.__dict__[attr] for owner, attr, *_ in tracing._POINTS} == before
    assert distributions.CellDistribution.counting_function_many is \
        distributions.CellDistribution.counting_function
