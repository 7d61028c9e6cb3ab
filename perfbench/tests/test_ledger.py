"""Self-time arithmetic of the span ledger and the wrapper installer."""

import sys
import types

import pytest

from ledger import Ledger, Patcher


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def tick(self, ns):
        self.now += ns


def test_self_time_excludes_nested_children():
    clock = FakeClock()
    ledger = Ledger(clock)

    inner = ledger.wrap("inner", lambda: clock.tick(3))

    def outer_body():
        clock.tick(1)
        inner()
        clock.tick(2)
        inner()
        clock.tick(1)

    outer = ledger.wrap("outer", outer_body)
    clock.tick(5)  # outside every span: residual
    outer()

    o, i = ledger.spans["outer"], ledger.spans["inner"]
    assert (o.calls, o.total_ns, o.self_ns) == (1, 10, 4)
    assert (i.calls, i.total_ns, i.self_ns) == (2, 6, 6)
    assert ledger.covered_ns == 10
    assert clock.now - ledger.covered_ns == 5


def test_three_levels_and_same_name_recursion():
    clock = FakeClock()
    ledger = Ledger(clock)

    def leaf():
        clock.tick(2)

    leaf_span = ledger.wrap("leaf", leaf)

    def mid():
        clock.tick(1)
        leaf_span()

    mid_span = ledger.wrap("mid", mid)

    def top(depth):
        clock.tick(1)
        if depth:
            top_span(depth - 1)  # a span nested in itself
        mid_span()

    top_span = ledger.wrap("top", top)
    top_span(1)
    # outer top: 1 + [inner top: 1 + mid 3] + mid 3 = 8 total; self 1 + 1
    t = ledger.spans["top"]
    assert (t.calls, t.self_ns) == (2, 2)
    assert t.total_ns == 8 + 4  # both calls' durations
    assert ledger.spans["mid"].self_ns == 2
    assert ledger.spans["leaf"].self_ns == 4
    # self times partition the covered interval exactly
    assert sum(s.self_ns for s in ledger.spans.values()) == ledger.covered_ns == 8


def test_span_that_raises_is_still_accounted():
    clock = FakeClock()
    ledger = Ledger(clock)

    def boom():
        clock.tick(4)
        raise RuntimeError("x")

    boom_span = ledger.wrap("boom", boom)

    def caller():
        clock.tick(1)
        with pytest.raises(RuntimeError):
            boom_span()

    ledger.wrap("caller", caller)()
    assert ledger.spans["boom"].self_ns == 4
    assert ledger.spans["caller"].self_ns == 1
    assert ledger.current is None


def test_tally_sees_arguments_and_result():
    ledger = Ledger()
    seen = []
    f = ledger.wrap("f", lambda a, b: a + b, tally=lambda l, args, res: seen.append((args, res)))
    assert f(2, 3) == 5
    assert seen == [((2, 3), 5)]


def test_wrap_iter_times_each_next():
    clock = FakeClock()
    ledger = Ledger(clock)

    def gen(n):
        for i in range(n):
            clock.tick(2)
            yield i

    wrapped = ledger.wrap_iter("gen", gen)
    assert list(wrapped(3)) == [0, 1, 2]
    s = ledger.spans["gen"]
    assert s.calls == 4  # three items plus the exhausting call
    assert s.total_ns == 6


def test_patcher_replaces_every_importer_and_restores():
    home = types.ModuleType("repro._bench_home")
    user = types.ModuleType("repro._bench_user")

    def f():
        return "orig"

    home.f = f
    user.f = f  # what "from repro._bench_home import f" leaves behind
    sys.modules[home.__name__] = home
    sys.modules[user.__name__] = user
    try:
        with Patcher() as p:
            assert p.function(home.__name__, "f", lambda orig: lambda: "wrapped") == 2
            assert home.f() == user.f() == "wrapped"
        assert home.f is f and user.f is f
    finally:
        del sys.modules[home.__name__], sys.modules[user.__name__]


def test_patcher_method_must_be_defined_on_the_class():
    class Base:
        def m(self):
            return 1

    class Child(Base):
        pass

    with Patcher() as p:
        with pytest.raises(AttributeError):
            p.method(Child, "m", lambda orig: orig)
        p.method(Base, "m", lambda orig: lambda self: orig(self) + 1)
        assert Child().m() == 2
    assert Child().m() == 1
