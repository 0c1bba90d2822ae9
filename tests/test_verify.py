"""The bundled verification suites must be green as shipped."""

import pytest

from toposlsc.verify import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    cert = run_suite(name)
    assert cert.checks, name
    assert cert.ok, [f"{c.name}: {c.witness}" for c in cert.failures()]


def test_run_all_merges_every_suite():
    cert = run_suite("all")
    prefixes = {c.name.split(".")[0] for c in cert.checks}
    assert prefixes == set(SUITES)
    assert cert.ok


def test_suite_normalize_builds_each_site_once(monkeypatch):
    from toposlsc import verify

    built = []
    real = verify.build_lsc

    def counting(site, *args, **kwargs):
        built.append(site.signature())
        return real(site, *args, **kwargs)

    monkeypatch.setattr(verify, "build_lsc", counting)
    assert verify.suite_normalize().ok
    assert len(built) == len(set(built))
