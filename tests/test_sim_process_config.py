"""Tests for the automaton interface helpers and configurations."""

from __future__ import annotations

import pytest

from repro.core.two_process import TwoProcessProtocol
from repro.errors import ProtocolError
from repro.sim.config import Configuration, RegisterLayout
from repro.sim.ops import BOTTOM, ReadOp, WriteOp
from repro.sim.process import (
    Branch,
    RegisterSpec,
    biased_coin,
    deterministic,
    evolve,
    fair_coin,
)


class TestOps:
    def test_bottom_is_singleton(self):
        from repro.sim.ops import _Bottom

        assert _Bottom() is BOTTOM
        assert repr(BOTTOM) == "⊥"

    def test_ops_are_hashable_and_frozen(self):
        r = ReadOp("r0")
        w = WriteOp("r0", "a")
        assert hash(r) != hash(w) or r != w
        with pytest.raises(Exception):
            r.register = "r1"

    def test_op_kinds(self):
        assert ReadOp("x").kind == "read"
        assert WriteOp("x", 1).kind == "write"


class TestBranchHelpers:
    def test_deterministic_single_branch(self):
        (b,) = deterministic(ReadOp("r"))
        assert b.probability == 1.0

    def test_fair_coin_probabilities(self):
        h, t = fair_coin(WriteOp("r", 1), WriteOp("r", 0))
        assert h.probability == t.probability == 0.5

    def test_biased_coin(self):
        h, t = biased_coin(0.25, WriteOp("r", 1), WriteOp("r", 0))
        assert h.probability == 0.25 and t.probability == 0.75

    def test_biased_coin_rejects_degenerate(self):
        with pytest.raises(ValueError):
            biased_coin(0.0, ReadOp("r"), ReadOp("r"))
        with pytest.raises(ValueError):
            biased_coin(1.0, ReadOp("r"), ReadOp("r"))

    def test_validate_branches_rejects_bad_sums(self):
        protocol = TwoProcessProtocol()
        with pytest.raises(ProtocolError):
            protocol.validate_branches(
                (Branch(0.5, ReadOp("r")), Branch(0.3, ReadOp("r")))
            )
        with pytest.raises(ProtocolError):
            protocol.validate_branches(())


class TestEvolve:
    """``evolve`` is ``dataclasses.replace`` for processor states."""

    def test_matches_replace(self):
        import dataclasses
        import pickle

        from repro.core.three_bounded import BReg, TBState

        state = TBState(pc="init", reg=BReg(val="a"),
                        recent=frozenset({(1, "a")}))
        new = evolve(state, pc="read2", r_first=BReg(val="b"))
        want = dataclasses.replace(state, pc="read2", r_first=BReg(val="b"))
        assert new == want and hash(new) == hash(want)
        assert repr(new) == repr(want)
        assert pickle.loads(pickle.dumps(new)) == want
        assert state.pc == "init"

    def test_unknown_field_is_refused(self):
        from repro.core.two_process import TPState

        with pytest.raises(TypeError, match="no field"):
            evolve(TPState(pc="init", pref="a"), prf="b")


class TestRegisterSpec:
    def test_requires_readers_and_writers(self):
        with pytest.raises(ValueError):
            RegisterSpec(name="r", writers=(), readers=(1,), initial=None)
        with pytest.raises(ValueError):
            RegisterSpec(name="r", writers=(0,), readers=(), initial=None)


class TestRegisterLayout:
    def make_layout(self):
        return RegisterLayout([
            RegisterSpec("x", writers=(0,), readers=(1,), initial=BOTTOM),
            RegisterSpec("y", writers=(1,), readers=(0, 2), initial=7),
        ])

    def test_initial_values(self):
        layout = self.make_layout()
        assert layout.initial_values() == (BOTTOM, 7)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RegisterLayout([
                RegisterSpec("x", writers=(0,), readers=(1,), initial=None),
                RegisterSpec("x", writers=(1,), readers=(0,), initial=None),
            ])

    def test_spec_lookup(self):
        layout = self.make_layout()
        assert layout.spec_of("y").initial == 7
        assert layout.index_of("x") == 0


class TestConfiguration:
    def test_initial_configuration(self):
        protocol = TwoProcessProtocol()
        layout = RegisterLayout.for_protocol(protocol)
        config = Configuration.initial(protocol, layout, ("a", "b"))
        assert config.registers == (BOTTOM, BOTTOM)
        assert config.states[0].pref == "a"
        assert config.decisions(protocol) == {}

    def test_with_state_and_register_are_persistent(self):
        protocol = TwoProcessProtocol()
        layout = RegisterLayout.for_protocol(protocol)
        c0 = Configuration.initial(protocol, layout, ("a", "b"))
        c1 = c0.with_register(0, "a")
        assert c0.registers[0] is BOTTOM  # original untouched
        assert c1.registers[0] == "a"
        c2 = c1.with_state(1, c1.states[0])
        assert c2.states[1] == c1.states[0]
        assert c1.states[1] != c2.states[1]

    def test_hashable_and_equal_by_value(self):
        protocol = TwoProcessProtocol()
        layout = RegisterLayout.for_protocol(protocol)
        c0 = Configuration.initial(protocol, layout, ("a", "b"))
        c1 = Configuration.initial(protocol, layout, ("a", "b"))
        assert c0 == c1 and hash(c0) == hash(c1)
        assert len({c0, c1}) == 1
