"""Determinism of the generated inputs and the golden-digest check."""

import workloads


def _run_batch(golden):
    workload = workloads.RandomObjects(seed=5)
    tally = workloads.Tally(golden)
    inputs = workload.inputs(0)
    workload.run(inputs, tally)
    return inputs, tally


def test_same_seed_gives_identical_inputs_and_digests():
    first_inputs, first = _run_batch(None)
    second_inputs, second = _run_batch(None)
    assert workloads.batch_json(first_inputs) == workloads.batch_json(second_inputs)
    assert first.digests == second.digests
    assert workloads.RandomObjects(5).order == workloads.RandomObjects(5).order
    assert workloads.RandomObjects(5).order != workloads.RandomObjects(6).order


def test_stored_golden_digests_pass_and_a_tampered_one_fails():
    golden = workloads.load_golden()["random-objects"]
    _, clean = _run_batch(golden)
    assert clean.attempted > 0 and clean.failed == 0

    tampered = dict(golden)
    key = next(k for k in clean.digests if k.endswith("/pipeline"))
    tampered[key] = "0" * 64
    _, bad = _run_batch(tampered)
    assert bad.attempted == clean.attempted
    assert 0 < bad.failed / bad.attempted < 1


def test_a_tampered_single_item_digest_fails_only_that_item():
    golden = dict(workloads.load_golden()["qudit-star"])
    tally = workloads.Tally(golden)
    tally.item("star/3", workloads.QuditStar._star, 3, {})
    assert (tally.attempted, tally.failed) == (1, 0)
    golden["star/3"] = "0" * 64
    tally = workloads.Tally(golden)
    tally.item("star/3", workloads.QuditStar._star, 3, {})
    assert (tally.attempted, tally.failed) == (1, 1)


def test_an_item_that_raises_counts_as_failed():
    tally = workloads.Tally(None)

    def boom(item):
        raise ValueError("bad item")

    tally.group("g", boom, [1, 2])
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.errors == ["ValueError: bad item"] * 2
