import json

import wl_service
from wl_service import MIN_SECONDS, ROUND_SECONDS, SLOTS, build_schedule


def test_same_seed_same_schedule():
    a = build_schedule(3, 30)
    b = build_schedule(3, 30)
    assert a == b


def test_other_seed_other_schedule():
    a = build_schedule(3, 30)
    b = build_schedule(4, 30)
    assert [r.body for r in a] != [r.body for r in b]


def test_schedule_shape():
    schedule = build_schedule(0, 10)
    assert len(schedule) == MIN_SECONDS * len(SLOTS)  # 10 s is too short
    assert [r.offset for r in schedule] == [
        second + slot for second in range(MIN_SECONDS) for slot in SLOTS
    ]
    fresh = schedule[::len(SLOTS)]
    assert all(b'"kiss"' in r.body for r in fresh)
    assert len({r.body for r in fresh}) == len(fresh)
    hot = [r for r in schedule if r not in fresh]
    assert all(b'"benchmark"' in r.body for r in hot)
    assert len({r.body for r in hot}) == 18
    assert len(build_schedule(0, 60)) == 63 * len(SLOTS)  # whole rounds


def test_hot_bodies_repeat_equally_often():
    for seconds in (10, 30, 60):
        schedule = build_schedule(5, seconds)
        assert len(schedule) % (ROUND_SECONDS * len(SLOTS)) == 0
        counts = {}
        for r in schedule:
            if b'"benchmark"' in r.body:
                counts[r.body] = counts.get(r.body, 0) + 1
        assert len(counts) == 18 and len(set(counts.values())) == 1


def test_fresh_corpus_spans_the_ranges_and_ignores_the_seed():
    shapes = [wl_service.fresh_spec(k, "x") for k in range(30)]
    states = {s.num_states for s in shapes}
    inputs = {s.num_inputs for s in shapes}
    outputs = {s.num_outputs for s in shapes}
    assert min(states) >= 4 and max(states) <= 24 and len(states) >= 10
    assert inputs == set(range(2, 8))
    assert min(outputs) >= 2 and max(outputs) <= 8 and len(outputs) >= 5

    def corpus(seed):
        return sorted(
            json.loads(r.body)["kiss"]
            for r in build_schedule(seed, 10) if b'"kiss"' in r.body
        )

    assert corpus(1) == corpus(2)


def test_hot_set_is_18_paper_bodies():
    hot = wl_service.hot_bodies(0)
    assert len(hot) == 18
    assert all(b'"seed":2004' in body for body in hot)


def test_bodies_are_valid_jobs():
    from repro.service.jobs import parse_job

    for request in build_schedule(1, 30)[:40]:
        job = parse_job(json.loads(request.body))
        assert job.spec["num_cycles"] == wl_service.NUM_CYCLES
        assert job.spec["seed"] == 2005


def test_lateness_trend():
    assert wl_service.lateness_trend([0.0] * 8) == 0.0
    assert wl_service.lateness_trend([0.0, 0.0, 1.0, 2.0]) == 2.0
