"""A run under the benchmark's tracer reports what an untraced run does.

The tracer wraps every public function and method of the layer modules,
classmethods included, so a layer that only works unwrapped fails the
traced benchmark run while every untraced test stays green.
"""

import pytest

from perfbench.tracing import Tracer
from toposlsc import verify
from toposlsc.reports import make_report, render_machine


def _machine_report(name):
    cert = verify.run_suite(name)
    return render_machine(make_report(f"verify-{name}", {"checks": len(cert.checks)}, [cert]))


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_traced_suite_reports_equal_untraced(name):
    untraced = _machine_report(name)
    tracer = Tracer()
    try:
        tracer.install()
        tracer.enable()
        traced = _machine_report(name)
    finally:
        tracer.disable()
        tracer.uninstall()
    assert len(tracer.name) > 0  # the spans were recorded
    assert traced == untraced
