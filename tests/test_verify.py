"""The bundled verification suites must be green as shipped."""

import hashlib

import pytest

from toposlsc.reports import make_report, render_machine
from toposlsc.verify import SUITES, run_suite

# sha256 of `topos-lsc --format machine verify --suite <name>`
SUITE_REPORT_DIGESTS = {
    "lsc": "1bf85f58188066f31d45275235790e1147216a3358befb378ff8126bb55aa6c0",
    "normalize": "4827171a884e8d593a4075fb00299ae77e134a1ef8c96569ff7a8c05a0c8d321",
    "filters": "fd8a393fe4b98c6b5ee8e4cd2d54cc0b20746097606bd359ec920a71c921c8f1",
    "words": "aafdd5da651395eb611eacf2c1be90ced97e3578936ca0cdaba76c5bcc08f7f4",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    cert = run_suite(name)
    assert cert.checks, name
    assert cert.ok, [f"{c.name}: {c.witness}" for c in cert.failures()]
    report = make_report(f"verify-{name}", {"checks": len(cert.checks)}, [cert])
    digest = hashlib.sha256(render_machine(report).encode()).hexdigest()
    assert digest == SUITE_REPORT_DIGESTS[name]


def test_run_all_merges_every_suite():
    cert = run_suite("all")
    prefixes = {c.name.split(".")[0] for c in cert.checks}
    assert prefixes == set(SUITES)
    assert cert.ok


def test_suite_words_compiles_each_regex_once(monkeypatch):
    from toposlsc import verify

    compiled = []
    real = verify.regex_to_min_dfa

    def counting(expr, alphabet, cap=None):
        compiled.append((expr, alphabet))
        return real(expr, alphabet, cap)

    monkeypatch.setattr(verify, "regex_to_min_dfa", counting)
    assert verify.suite_words().ok
    assert compiled
    assert len(compiled) == len(set(compiled))


def test_suite_words_derives_each_derivative_and_letter_once(monkeypatch):
    # the word-enumeration residual oracle derives the frozen regexes through
    # their derivative automata: 20 derivations, not one per word prefix
    from toposlsc import words

    calls = []
    real = words._derive

    def counting(term, ch):
        calls.append(ch)
        return real(term, ch)

    monkeypatch.setattr(words, "_derive", counting)
    assert run_suite("words").ok
    assert 0 < len(calls) <= 100


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
