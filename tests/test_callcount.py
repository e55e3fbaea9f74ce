"""The call-count instrument itself: what it keys, and what it leaves out."""

import random

from .callcount import marginal_calls


def randrange_rig(draws: int):
    rng = random.Random(3)
    return lambda: [rng.randrange(5) for _ in range(draws)]


def test_stdlib_frames_count_only_on_request():
    n = 30
    assert marginal_calls(randrange_rig(n), randrange_rig(2 * n)) == {}
    marginal = marginal_calls(randrange_rig(n), randrange_rig(2 * n),
                              everywhere=True)
    assert marginal[("<stdlib>/random.py", "randrange")] == n
    # Its rejection loop calls ``getrandbits``, a C method: no frame.
    assert marginal[("<stdlib>/random.py", "_randbelow_with_getrandbits")] == n
    assert {filename for filename, _ in marginal} == {"<stdlib>/random.py"}
