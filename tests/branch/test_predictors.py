"""Direction predictors, BTB, RAS, and the composite BranchUnit."""

from hypothesis import given, settings, strategies as st

from repro.branch.predictors import (
    BimodalPredictor,
    BranchUnit,
    DirectionPredictor,
    GSharePredictor,
    StaticPredictor,
    make_direction_predictor,
)
from repro.config import BranchPredictorConfig, PredictorKind


def unit(kind=PredictorKind.BIMODAL, **kwargs) -> BranchUnit:
    return BranchUnit(BranchPredictorConfig(kind=kind, **kwargs))


def test_static_predictors():
    predictor = StaticPredictor()
    assert predictor.predict(123) is False
    assert predictor.resolve(123, True) is False


def test_bimodal_learns_a_bias():
    predictor = BimodalPredictor()
    for _ in range(4):
        predictor.resolve(5, False)
    assert predictor.predict(5) is False
    for _ in range(4):
        predictor.resolve(5, True)
    assert predictor.predict(5) is True


def test_bimodal_counters_saturate():
    predictor = BimodalPredictor()
    for _ in range(100):
        predictor.resolve(5, True)
    predictor.resolve(5, False)
    assert predictor.predict(5) is True  # one miss doesn't flip saturation


def test_gshare_distinguishes_history():
    predictor = GSharePredictor()
    # Alternating pattern at one PC: gshare can track it via history.
    for _ in range(64):
        taken = predictor.history & 1 == 0
        predictor.resolve(7, taken)
    correct = 0
    for _ in range(32):
        taken = predictor.history & 1 == 0
        correct += predictor.predict(7) == taken
        predictor.resolve(7, taken)
    assert correct >= 28  # near-perfect on a learnable pattern


def test_factory():
    for kind in PredictorKind:
        predictor = make_direction_predictor(
            BranchPredictorConfig(kind=kind)
        )
        assert predictor.predict(0) in (True, False)


def test_resolve_cond_counts_mispredicts():
    branch_unit = unit(kind=PredictorKind.ALWAYS_NOT_TAKEN)
    assert branch_unit.resolve_cond(0, taken=True) is True
    assert branch_unit.resolve_cond(0, taken=False) is False
    stats = branch_unit.stats
    assert stats.cond_predictions == 2
    assert stats.cond_mispredicts == 1
    assert stats.cond_accuracy == 0.5


def test_deferred_cond_uses_recorded_prediction():
    branch_unit = unit()
    predicted = branch_unit.predict_cond(3)
    mispredicted = branch_unit.resolve_deferred_cond(3, predicted, not predicted)
    assert mispredicted is True
    assert branch_unit.stats.cond_mispredicts == 1


def predictor_state(predictor):
    """Tables, history and chooser of a predictor and its components."""
    return {name: predictor_state(value)
            if isinstance(value, DirectionPredictor) else value
            for name, value in vars(predictor).items()}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(PredictorKind)),
       outcomes=st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                                   st.integers(min_value=0, max_value=3),
                                   st.booleans()),
                         min_size=1, max_size=200))
def test_resolve_paths_agree(kind, outcomes):
    """``resolve_cond`` and the deferred path SST replays through
    (``predict_cond`` at defer, ``resolve_deferred_cond`` at replay)
    make the same call and leave the same state.  The PCs are
    ``j + 4096 * k``, so they alias in the 4096-entry direction tables
    and one entry trains on several branches."""
    config = BranchPredictorConfig(kind=kind)
    fused, deferred = BranchUnit(config), BranchUnit(config)
    table = getattr(fused.direction, "table", None)
    assert table is None or len(table) == 4096
    for low, alias, taken in outcomes:
        pc = low + 4096 * alias
        predicted = deferred.predict_cond(pc)
        assert fused.resolve_cond(pc, taken) \
            == deferred.resolve_deferred_cond(pc, predicted, taken)
    assert fused.stats == deferred.stats
    assert predictor_state(fused.direction) \
        == predictor_state(deferred.direction)


def test_btb_indirect_learns_target():
    branch_unit = unit()
    assert branch_unit.resolve_indirect(9, target=42) is True  # cold
    assert branch_unit.resolve_indirect(9, target=42) is False  # learned
    assert branch_unit.resolve_indirect(9, target=43) is True  # changed


def test_ras_predicts_returns():
    branch_unit = unit()
    branch_unit.push_return(17)
    assert branch_unit.resolve_indirect(5, target=17, is_return=True) is False
    assert branch_unit.stats.ras_hits == 1


def test_ras_mismatch_counts():
    branch_unit = unit()
    branch_unit.push_return(17)
    assert branch_unit.resolve_indirect(5, target=99, is_return=True) is True
    assert branch_unit.stats.ras_misses == 1


def test_ras_bounded_depth():
    from repro.config import RAS_ENTRIES

    branch_unit = unit()
    for return_pc in range(1, RAS_ENTRIES + 2):
        branch_unit.push_return(return_pc)
    # Entry 1 was pushed out; the newest RAS_ENTRIES remain, newest first.
    for return_pc in range(RAS_ENTRIES + 1, 1, -1):
        assert branch_unit.resolve_indirect(0, return_pc,
                                            is_return=True) is False
    assert branch_unit.resolve_indirect(0, 1, is_return=True) is True  # BTB path


def test_predict_indirect_consumes_ras():
    branch_unit = unit()
    branch_unit.push_return(7)
    assert branch_unit.predict_indirect(0, is_return=True) == 7
    assert branch_unit.predict_indirect(0, is_return=True) is None  # empty now


def test_deferred_indirect_validation():
    branch_unit = unit()
    assert branch_unit.resolve_deferred_indirect(4, 10, 10) is False
    assert branch_unit.resolve_deferred_indirect(4, 10, 11) is True
    # And it trains the BTB with the actual target.
    assert branch_unit.predict_indirect(4) == 11


def test_mispredict_penalty_exposed():
    assert unit(mispredict_penalty=13).mispredict_penalty == 13
