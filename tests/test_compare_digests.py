"""tools/compare_digests.py: how two checkouts' rounds are compared."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

import compare_digests  # noqa: E402


def ok(digest="d" * 64, errors=0):
    return {"digest": digest, "errors": errors}


def test_identical_clean_rounds_have_no_problems():
    assert compare_digests.compare(ok(), ok()) == []


def test_differing_digests_are_a_mismatch():
    assert compare_digests.compare(ok("a"), ok("b")) == ["digests differ"]


def test_check_errors_count_even_when_digests_agree():
    assert compare_digests.compare(ok(errors=2), ok()) == ["parent has 2 check errors"]
    assert compare_digests.compare(ok("a"), ok("b", errors=1)) == [
        "change has 1 check errors", "digests differ"]


def test_a_round_that_did_not_run_is_reported_alone():
    problems = compare_digests.compare(ok(), {"failed": "exit 1: ImportError"})
    assert problems == ["change round failed (exit 1: ImportError)"]


def test_main_exits_1_on_any_mismatch(monkeypatch, capsys):
    bench = {"workloads": [{"name": "w1"}, {"name": "w2"}]}
    digests = {("p", "w1"): "x", ("c", "w1"): "x", ("p", "w2"): "y", ("c", "w2"): "z"}
    monkeypatch.setattr(compare_digests, "run_in_subprocess",
                        lambda checkout, w, seed: ok(digests[(checkout, w)]))
    monkeypatch.setattr(compare_digests, "load_benchmark", lambda _: bench)
    args = ["--parent", "p", "--change", "c", "--seeds", "7"]
    assert compare_digests.main(args) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "w1 seed 7: parent x (0 check errors), change x (0 check errors): identical"
    assert out[1].endswith("MISMATCH: digests differ")

    digests[("c", "w2")] = "y"
    assert compare_digests.main(args) == 0
