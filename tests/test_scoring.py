import math

import numpy as np
import pytest

from fogplace import scoring

from conftest import make_fn, make_ssr


def priorities(ssr, delta=scoring.DEFAULT_DELTA):
    """The function priorities of one SSR, in its function order."""
    fns = ssr.functions
    return scoring.ssr_priorities([f.critical_value for f in fns], [f.code_size for f in fns],
                                  [f.input_size for f in fns], delta)


def test_user_distance_345_triangle():
    assert scoring.user_distance((0, 0), (3, 4)) == pytest.approx(5.0, abs=1e-9)


def test_user_distance_identical_points():
    assert scoring.user_distance((7, 2), (7, 2)) == 0.0


def test_user_distance_hand_value():
    # sqrt(9 + 16) = 5
    assert scoring.user_distance((1, 1), (4, 5)) == pytest.approx(5.0, abs=1e-9)


def test_user_distance_symmetric():
    assert scoring.user_distance((1, 2), (8, -3)) == scoring.user_distance((8, -3), (1, 2))


def test_distance_priority_zero():
    assert scoring.distance_priority(0.0, 100.0) == 0.0


def test_distance_priority_boundary():
    assert scoring.distance_priority(100.0, 100.0) == 1.0


def test_distance_priority_hand_value():
    assert scoring.distance_priority(25.0, 100.0) == pytest.approx(0.25, abs=1e-9)


def test_distance_priority_outside_coverage():
    with pytest.raises(ValueError):
        scoring.distance_priority(101.0, 100.0)
    with pytest.raises(ValueError):
        scoring.distance_priority(1.0, 0.0)


def test_latency_priority_self_max():
    assert scoring.latency_priority(80.0, [20.0, 80.0, 5.0]) == 1.0


def test_latency_priority_all_equal():
    assert scoring.latency_priority(30.0, [30.0, 30.0, 30.0]) == 1.0


def test_latency_priority_hand_value():
    assert scoring.latency_priority(20.0, [20.0, 80.0]) == pytest.approx(0.25, abs=1e-9)


def test_latency_priority_errors():
    with pytest.raises(ValueError):
        scoring.latency_priority(10.0, [])
    with pytest.raises(ValueError):
        scoring.latency_priority(0.0, [10.0])


def test_user_priority_distance_only():
    assert scoring.user_priority(0.3, 0.9, 1.0) == pytest.approx(0.3, abs=1e-9)


def test_user_priority_latency_only():
    assert scoring.user_priority(0.3, 0.9, 0.0) == pytest.approx(0.9, abs=1e-9)


def test_user_priority_hand_value():
    assert scoring.user_priority(0.4, 0.8, 0.5) == pytest.approx(0.6, abs=1e-9)


def test_user_priority_range_error():
    with pytest.raises(ValueError):
        scoring.user_priority(1.5, 0.5, 0.5)


def test_function_priority_max_critical():
    ssr = make_ssr((
        make_fn(critical=5, code=100, input_size=500),
        make_fn(critical=2, code=500, input_size=2500),
    ))
    assert priorities(ssr, delta=0.2)[0] == pytest.approx(5.0)


def test_function_priority_max_code_size():
    ssr = make_ssr((
        make_fn(critical=1, code=500, input_size=100),
        make_fn(critical=1, code=100, input_size=2500),
    ))
    assert priorities(ssr, delta=0.2)[0] == pytest.approx(5.0)


def test_function_priority_hand_value():
    # 1 / (0.2 + 0.8 * 0.8 * 0.8) = 1 / 0.712
    ssr = make_ssr((
        make_fn(critical=1, code=100, input_size=500),
        make_fn(critical=5, code=500, input_size=2500),
    ))
    value = priorities(ssr, delta=0.2)[0]
    assert value == pytest.approx(1 / 0.712, abs=1e-9)
    assert value == pytest.approx(1.4044943820224718, abs=1e-9)


def test_function_priority_degenerate_ssr():
    ssr = make_ssr((make_fn(code=1.0, input_size=0.0),))
    with pytest.raises(ValueError):
        priorities(ssr)


def test_function_priority_bounds_fuzz():
    rng = np.random.default_rng(1)
    delta = 0.2
    for _ in range(500):
        fns = tuple(
            make_fn(critical=int(rng.integers(1, 6)),
                    code=float(rng.uniform(1, 500)), input_size=float(rng.uniform(1, 2500)))
            for _ in range(int(rng.integers(1, 6)))
        )
        for p in priorities(make_ssr(fns), delta):
            assert 1 / (delta + 1) - 1e-12 <= p <= 1 / delta + 1e-12


def test_function_priority_monotone_in_critical():
    for low, high in [(1, 2), (2, 5), (3, 4)]:
        base = make_fn(critical=low, code=100, input_size=500)
        bumped = make_fn(critical=high, code=100, input_size=500)
        other = make_fn(critical=1, code=500, input_size=2500)
        ssr_a = make_ssr((base, other))
        ssr_b = make_ssr((bumped, other))
        assert priorities(ssr_b)[0] >= priorities(ssr_a)[0]


def test_user_priority_fuzz_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        pd, pl, pw = rng.uniform(0, 1, size=3)
        p = scoring.user_priority(pd, pl, pw)
        assert 0 <= p <= 1
        assert min(pd, pl) - 1e-12 <= p <= max(pd, pl) + 1e-12


def test_user_priority_half_blend_is_mean():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        pd, pl = rng.uniform(0, 1, size=2)
        assert scoring.user_priority(pd, pl, 0.5) == pytest.approx((pd + pl) / 2, abs=1e-12)


def test_latency_priority_rank_invariance_under_scaling():
    rng = np.random.default_rng(4)
    for _ in range(200):
        lats = list(rng.uniform(1, 100, size=8))
        scale = float(rng.uniform(0.01, 50))
        before = np.argsort([scoring.latency_priority(l, lats) for l in lats])
        scaled = [l * scale for l in lats]
        after = np.argsort([scoring.latency_priority(l, scaled) for l in scaled])
        assert list(before) == list(after)
