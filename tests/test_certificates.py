"""The one counterexample search: `Certificate.check`."""

from toposlsc.certificates import Certificate


def test_check_passes_iff_no_counterexample():
    cert = Certificate("t")
    assert cert.check("empty", iter(())) is True
    assert cert.check("found", [("c", 1)]) is False
    assert [(c.name, c.passed, c.witness) for c in cert.checks] == [
        ("empty", True, None), ("found", False, ("c", 1))]


def test_check_keeps_the_first_counterexample_and_stops_there():
    consumed = []

    def counterexamples():
        for i in range(5):
            consumed.append(i)
            if i >= 2:
                yield ("bad", i)

    cert = Certificate("t")
    cert.check("search", counterexamples())
    assert cert.checks[0].witness == ("bad", 2)
    assert consumed == [0, 1, 2]


def test_check_passing_witness_is_computed_only_on_pass():
    cert = Certificate("t")
    cert.check("pass", (), on_pass=lambda: "3 maps checked")
    cert.check("fail", ["w"], on_pass=lambda: 1 / 0)
    assert [(c.passed, c.witness) for c in cert.checks] == [
        (True, "3 maps checked"), (False, "w")]
