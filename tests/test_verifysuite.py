"""A verify run builds each order's matrix model once and hands the same
model to every suite that asks for it."""

from tamestrata import oracle, verifysuite


def _builds(monkeypatch, use_oracle):
    """Order keys of the models one run_suites call builds, in order."""
    built = []
    build = oracle.model_build

    def counted(order):
        built.append(order.key())
        return build(order)

    monkeypatch.setattr(oracle, "model_build", counted)
    results = verifysuite.run_suites(None, use_oracle)
    assert all(passed for _, passed, _ in results)
    return built


def test_a_run_builds_one_model_per_order(monkeypatch):
    # 6 corpus orders, and 7 more two-level orders of valuation-lemma
    built = _builds(monkeypatch, True)
    assert len(built) == 13
    assert len(set(built)) == len(built)


def test_a_run_without_the_oracle_builds_no_model(monkeypatch):
    assert _builds(monkeypatch, False) == []
