"""A verify run builds each order's matrix model once and hands the same
model to every suite that asks for it; a suite fails when the closed form
it checks is broken."""

import pytest

from tamestrata import oracle, strata, translate, verifysuite


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


@pytest.fixture(scope="module")
def models():
    return {}


def _shifted(closed_form):
    return lambda *args: (None if (v := closed_form(*args)) is None
                          else v + 1)


def _yu_factor_dropped(normalize):
    # the Yu-side tables lose their last factor, the BK side keeps it
    return lambda t: normalize(t)[:-1] if t.name in ("Kd+", "oKd") else normalize(t)


def _yu_table_factor_dropped(yu_group_table):
    # the Yu-side tables lose their last factor before any comparison, so
    # the factor sets differ and the oracle compares lattices
    def broken(yu):
        tables = yu_group_table(yu)
        for name in ("Kd+", "oKd"):
            tables[name] = tables[name]._replace(
                factors=tables[name].factors[:-1])
        return tables
    return broken


def _last_block_dropped(make_bk_datum):
    # yu_to_bk builds from all but the last realised character, so no
    # translation gives its datum back; most such builds raise
    return lambda order, c_list: make_bk_datum(order, c_list[:-1])


@pytest.mark.parametrize("module, name, broken, suite, use_oracle, detail", [
    (translate, "single_index_log", _shifted, "index-identity", True, None),
    (strata, "k0_closed", _shifted, "critical-exponent", True, None),
    (translate, "normalize_table", _yu_factor_dropped,
     "filtration-equalities", False, None),
    (translate, "yu_group_table", _yu_table_factor_dropped,
     "filtration-equalities", True, None),
    (translate, "make_bk_datum", _last_block_dropped, "round-trips", False,
     None),
    # one failure per level, whether or not the oracle also checks it
    (translate, "char_module_valuation", _shifted, "character-depth", False,
     "122 levels, 122 failures"),
    (translate, "char_module_valuation", _shifted, "character-depth", True,
     "122 levels, 122 failures"),
], ids=["index-identity", "critical-exponent", "filtration-equalities",
        "filtration-equalities-oracle", "round-trips", "character-depth",
        "character-depth-oracle"])
def test_a_broken_closed_form_fails_its_suite(monkeypatch, models, module,
                                              name, broken, suite, use_oracle,
                                              detail):
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    passed, got = verifysuite.ALL_SUITES[suite](models if use_oracle else None)
    assert not passed, got
    assert detail in (None, got)
