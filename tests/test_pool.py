import os
import threading

import numpy as np
import pytest

from survmix import _pool


@pytest.mark.parametrize("cpus", [1, 2])
def test_numpy_state_an_item_sets_stays_in_the_item(monkeypatch, cpus):
    # each item runs in a copy of the caller's context, also where the
    # calling thread runs the items itself
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    ran_in = []

    def item(i):
        ran_in.append(threading.current_thread().name)
        np.seterr(all="raise")  # with no scope of its own
        return i * i

    with np.errstate():
        before = np.geterr()
        assert _pool.map(item, range(4), "survmix-test") == [0, 1, 4, 9]
        assert np.geterr() == before
    caller = threading.current_thread().name
    assert len(ran_in) == 4 and all(name.startswith("survmix-test") if cpus == 2
                                    else name == caller for name in ran_in)
