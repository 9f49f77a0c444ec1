"""The acceptance battery.

Each numbered check runs at its full documented size and prints one verdict
line.  Criteria 2 and 9 share one corpus sweep, as do criteria 7 and 8, so
those pairs reuse a module-scoped suite run.
"""
import pytest

from pursuitwidth.cli import (suite_hierarchy, suite_lemma2, suite_lemma9,
                              suite_lemmas58, suite_thm7, suite_thm10,
                              suite_thm25)

SEED = 271828


def _verdict(num, label, report):
    line = f"[{num}] {label}: {'PASS' if report.passed else 'FAIL'}"
    print(line)
    return report.passed


def _named(report, name):
    (check,) = [c for c in report.checks if c.name == name]
    return check


@pytest.fixture(scope="module")
def thm10_report():
    return suite_thm10(nmax=4, samples=200, seed=SEED)


@pytest.fixture(scope="module")
def lemma2_report():
    return suite_lemma2(count=100, seed=SEED, pipeline_count=200)


def test_1_hierarchy_chain():
    rep = suite_hierarchy(nmax=4, samples=200, seed=SEED)
    assert rep.results["instances"] >= 200 + 89
    assert _verdict(1, "width hierarchy chain with invisible game at the top", rep), \
        rep.checks[0].witness


def test_2_strategy_multiplier(thm10_report):
    rep = thm10_report
    bound = _named(rep, "multi-robber-width-at-most-r-times-width")
    adv = _named(rep, "multiplier-beats-exhaustive-prudent-isolating-adversary")
    ok = bound.passed and adv.passed
    print(f"[2] r-fold strategy multiplier, bound and adversarial run: "
          f"{'PASS' if ok else 'FAIL'}")
    assert bound.passed, bound.witness
    assert adv.passed, adv.witness


def test_3_cleanup_normal_form():
    rep = suite_lemma9(nmax=4)
    assert rep.results["instances"] == 90
    assert _verdict(3, "cop-strategy cleanup normal form stays winning", rep), \
        rep.checks[0].witness


def test_4_robber_normal_forms():
    rep = suite_lemmas58(nmax=4, r=2)
    assert rep.results["instances"] >= 80
    assert _verdict(4, "isolating and prudent transforms keep winning", rep), \
        rep.checks[0].witness


def test_5_two_tree_gap():
    rep = suite_thm7(n=2)
    assert rep.results["vertices"] == 30
    assert _verdict(5, "four-cop sweep wins, two restricted cops lose", rep), \
        [c.witness for c in rep.checks if not c.passed]


def test_6_product_family_values():
    rep = suite_thm25()
    assert _verdict(6, "tree/clique product widths and clearing schedules", rep), \
        [c.witness for c in rep.checks if not c.passed]


def test_7_knowledge_lift(lemma2_report):
    rep = lemma2_report
    lifting = _named(rep, "history-lifting-to-length-6")
    lift = _named(rep, "lifted-strategy-wins-with-k-times-2^(r-1)-cops")
    direct = _named(rep, "knowledge-arena-width-within-bound")
    size = _named(rep, "knowledge-arena-at-most-n-times-2^(r-1)-positions")
    ok = lifting.passed and lift.passed and direct.passed and size.passed
    print(f"[7] history lifting and the knowledge-arena cop bound: "
          f"{'PASS' if ok else 'FAIL'}")
    assert rep.results["lift_instances"] == 100
    assert lifting.passed, lifting.witness
    assert lift.passed, lift.witness
    assert direct.passed, direct.witness
    assert size.passed, size.witness
    assert 0 < rep.results["knowledge_size_max_ratio"] <= 1


def test_8_imperfect_information_pipeline(lemma2_report):
    rep = lemma2_report
    agree = _named(rep, "identity-observations-match-direct-solve")
    oracle = _named(rep, "solver-matches-strategy-enumeration-oracle")
    product = _named(rep, "player0-wins-pass-product-verification")
    ok = agree.passed and oracle.passed and product.passed
    print(f"[8] knowledge pipeline against direct and brute-force solves: "
          f"{'PASS' if ok else 'FAIL'}")
    assert rep.results["pipeline_instances"] == 200
    assert agree.passed, agree.witness
    assert oracle.passed, oracle.witness
    assert product.passed


def test_9_symmetric_closure_bound(thm10_report):
    check = _named(thm10_report, "symmetric-closure-bound-tw2-at-most-2tw1")
    print(f"[9] two-robber bound on symmetric closures: "
          f"{'PASS' if check.passed else 'FAIL'}")
    assert check.passed, check.witness
