"""Tournament predictor: chooser behaviour and end-to-end use."""

from repro.branch.predictors import (
    GSharePredictor,
    TournamentPredictor,
)
from repro.config import BranchPredictorConfig, PredictorKind
from repro.branch import make_direction_predictor


def train(predictor, pc, pattern, repeats=40):
    for _ in range(repeats):
        for taken in pattern:
            predictor.resolve(pc, taken)


def accuracy(predictor, pc, pattern, rounds=20):
    correct = 0
    total = 0
    for _ in range(rounds):
        for taken in pattern:
            correct += predictor.predict(pc) == taken
            predictor.resolve(pc, taken)
            total += 1
    return correct / total


def test_factory_builds_tournament():
    predictor = make_direction_predictor(
        BranchPredictorConfig(kind=PredictorKind.TOURNAMENT)
    )
    assert isinstance(predictor, TournamentPredictor)


def test_tracks_biased_branches_like_bimodal():
    predictor = TournamentPredictor(table_bits=8, history_bits=6)
    train(predictor, pc=5, pattern=[True])
    assert accuracy(predictor, 5, [True]) == 1.0


def test_tracks_patterns_like_gshare():
    predictor = TournamentPredictor(table_bits=8, history_bits=6)
    pattern = [True, True, False]
    train(predictor, pc=9, pattern=pattern)
    assert accuracy(predictor, 9, pattern) > 0.9


def test_chooser_moves_toward_winning_component():
    predictor = TournamentPredictor(table_bits=6, history_bits=4)
    pattern = [True, False]  # alternation: gshare territory
    train(predictor, pc=3, pattern=pattern, repeats=60)
    assert predictor.choice[3] >= 2  # chooser now favours gshare


def test_not_worse_than_gshare_on_mixed_branches():
    """Two branches — one biased, one patterned — at aliasing PCs:
    tournament should match or beat plain gshare overall."""
    pattern_a = [True] * 4  # strongly biased
    pattern_b = [True, False]  # alternating

    def score(predictor):
        total, correct = 0, 0
        state = {10: 0, 20: 0}
        for _ in range(400):
            for pc, pattern in ((10, pattern_a), (20, pattern_b)):
                taken = pattern[state[pc] % len(pattern)]
                state[pc] += 1
                correct += predictor.predict(pc) == taken
                predictor.resolve(pc, taken)
                total += 1
        return correct / total

    tournament = score(TournamentPredictor(table_bits=6, history_bits=5))
    gshare = score(GSharePredictor(table_bits=6, history_bits=5))
    assert tournament >= gshare - 0.02
    assert tournament > 0.9
