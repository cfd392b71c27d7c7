"""Scheme and TapPoint definitions."""

from repro import SCHEME_ORDER, Scheme, TAP_OF_SCHEME, TapPoint


def test_five_schemes_in_paper_order():
    assert [s.value for s in SCHEME_ORDER] == [
        "L0-TLB",
        "L1-TLB",
        "L2-TLB",
        "L3-TLB",
        "V-COMA",
    ]


def test_cache_virtuality_progression():
    assert not Scheme.L0_TLB.uses_virtual_flc
    assert Scheme.L1_TLB.uses_virtual_flc and not Scheme.L1_TLB.uses_virtual_slc
    assert Scheme.L2_TLB.uses_virtual_slc and not Scheme.L2_TLB.uses_virtual_am
    assert Scheme.L3_TLB.uses_virtual_am
    assert Scheme.V_COMA.uses_virtual_am


def test_tap_mapping_complete():
    assert set(TAP_OF_SCHEME) == set(Scheme)
    assert TAP_OF_SCHEME[Scheme.V_COMA] is TapPoint.HOME
    assert TAP_OF_SCHEME[Scheme.L2_TLB] is TapPoint.L2


def test_no_wback_tap_is_not_a_scheme_tap():
    assert TapPoint.L2_NO_WBACK not in TAP_OF_SCHEME.values()


def test_str_forms():
    assert str(Scheme.V_COMA) == "V-COMA"
    assert str(TapPoint.L2_NO_WBACK) == "L2/no_wback"
