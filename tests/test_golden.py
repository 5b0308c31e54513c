"""The golden trajectory: a change that moves a training result fails here.

Criterion 9 and the determinism tests compare two runs of the same code, so
they pass a change that moves every result. This test compares the code with
a trajectory recorded before the change; ``golden_trajectory.py`` says what
it holds and when it may be regenerated.
"""
from golden_trajectory import differences, load, record


def test_training_follows_the_golden_trajectory(mutag_dir):
    diffs = differences(load(), record())
    assert not diffs, "\n".join(diffs)


def test_golden_names_a_flipped_decision_and_a_moved_loss():
    want = load()
    got = load()
    got["mutag"]["5"][3]["aug_i"] = "identity" \
        if want["mutag"]["5"][3]["aug_i"] != "identity" else "subgraph"
    got["node"][2]["loss"] *= 1.0 + 1e-8
    got["probe"]["l2"] = got["probe"]["l2"][::-1] + [0.5]
    diffs = differences(want, got)
    assert len(diffs) == 3, diffs
    assert diffs[0].startswith("mutag seed 5 step 3: aug_i is ")
    assert want["mutag"]["5"][3]["aug_i"] in diffs[0]
    assert diffs[1].startswith("node step 2: loss is ")
    assert diffs[2].startswith("probe: chosen l2")
    got["node"][2]["loss"] = want["node"][2]["loss"] * (1.0 + 1e-10)
    assert len(differences(want, got)) == 2
