"""Executable version of the paper's Figure 3 worked example.

Figure 3 walks one static store (Z), one older static store (Y), and one
static load (W) through two phases:

1. a *training* sequence in which W is not predicted to forward, reads a
   stale value from the cache, is caught by re-execution (flush), and the
   FSP learns the W -> Z dependence from the SPCT; and
2. a *speculative forwarding* sequence in which the FSP/SAT chain predicts
   the SQ entry of Z's new instance, the indexed SQ access finds a matching
   address, and W forwards correctly (re-execution finds no violation).

The test drives the same scenario through the real structures (FSP, SAT,
SQ, SVW filter, memory image) rather than the cycle-level core, making every
intermediate state visible and checkable.
"""

import pytest

from repro.core.predictors import PredictorSuiteConfig, FSPConfig, SATConfig, SVWConfig, DDPConfig
from repro.lsu.policies import IndexedSQPolicy, LoadCommitInfo
from repro.lsu.store_queue import StoreQueue
from repro.memory.image import MemoryImage

PC_STORE_Y = 0x900
PC_STORE_Z = 0x904
PC_LOAD_W = 0x908

ADDR_A = 0x2000
ADDR_B = 0x2008


@pytest.fixture
def setup():
    predictors = PredictorSuiteConfig(
        fsp=FSPConfig(entries=64, assoc=2),
        sat=SATConfig(entries=64),
        ddp=DDPConfig(entries=64, assoc=2),
        svw=SVWConfig(ssbf_entries=256, spct_entries=256),
    )
    policy = IndexedSQPolicy(sq_size=4, use_delay=True, predictors=predictors)
    return policy, StoreQueue(size=4), MemoryImage()


class TestTrainingSequence:
    """Left-hand side of Figure 3: the predictor learns W -> Z."""

    def test_training_sequence(self, setup):
        policy, sq, memory = setup
        ssn_cmt = 16          # some stores have already committed
        ssn_y, ssn_z = 17, 18

        # Time 1: store Z renames (SSN 18, noted in the SAT); load W decodes
        # and finds no forwarding store in the FSP.
        sq.allocate(ssn_y, PC_STORE_Y, seq=0)
        sq.allocate(ssn_z, PC_STORE_Z, seq=1)
        policy.store_renamed(PC_STORE_Y, ssn_y)
        policy.store_renamed(PC_STORE_Z, ssn_z)
        assert policy.sat.lookup(PC_STORE_Z) == ssn_z
        prediction = policy.predict_load(PC_LOAD_W, ssn_ren=ssn_z, ssn_cmt=ssn_cmt)
        assert prediction.fwd_ssn == 0            # FSP[W] is empty

        # Time 2: store Z executes, writing B/6 into the SQ.
        sq.write_execute(ssn_z, ADDR_B, 8, 6)

        # Time 3: store Y commits (value 5 to address A); load W executes.
        # With no prediction it reads the (stale) value 0 from the cache.
        memory.write(ADDR_A, 8, 5)
        policy.store_committed(PC_STORE_Y, ssn_y, ADDR_A, 8)
        sq.release(ssn_y)
        memory.write(ADDR_B, 8, 0)                # architectural B is still 0
        decision = policy.forward(ADDR_B, 8, older_than_ssn=ssn_z,
                                  prediction=prediction, store_queue=sq)
        assert not decision.forwarded
        spec_value = memory.read(ADDR_B, 8)
        assert spec_value == 0

        # Time 4: store Z commits, writing 6 to B and updating the SPCT.
        memory.write(ADDR_B, 8, 6)
        policy.store_committed(PC_STORE_Z, ssn_z, ADDR_B, 8)
        sq.release(ssn_z)

        # Time 5: load W re-executes: 0 != 6, violation; the FSP learns the
        # W -> Z dependence from the SPCT.
        correct_value = memory.read(ADDR_B, 8)
        assert correct_value == 6
        assert policy.svw.needs_reexecution(ADDR_B, 8,
                                            prediction.fwd_ssn) is True
        last_ssn, last_pc = policy.svw.last_writer(ADDR_B, 8)
        policy.load_committed(LoadCommitInfo(
            pc=PC_LOAD_W, addr=ADDR_B, size=8,
            spec_value=spec_value, correct_value=correct_value,
            forwarded=False, forward_ssn=0, prediction=prediction,
            ssn_at_rename=ssn_z, ssn_cmt=ssn_z, violation=True,
            last_ssn=last_ssn, last_pc=last_pc))
        learned = policy.fsp.lookup(PC_LOAD_W)
        assert len(learned) == 1
        assert learned[0].store_pc == policy.fsp.partial_store_pc(PC_STORE_Z)


class TestSpeculativeForwardingSequence:
    """Right-hand side of Figure 3: W forwards from the predicted SQ entry."""

    def test_forwarding_sequence(self, setup):
        policy, sq, memory = setup
        # Pre-train the FSP as the training sequence would have.
        policy.fsp.insert(PC_LOAD_W, PC_STORE_Z)

        ssn_cmt = 32
        ssn_y, ssn_z = 33, 34

        # Time 1: store Z renames (SSN 34) and is noted in the SAT.
        sq.allocate(ssn_y, PC_STORE_Y, seq=10)
        sq.allocate(ssn_z, PC_STORE_Z, seq=11)
        policy.store_renamed(PC_STORE_Y, ssn_y)
        policy.store_renamed(PC_STORE_Z, ssn_z)

        # Load W decodes/renames: FSP gives Z, SAT gives SSN 34.
        prediction = policy.predict_load(PC_LOAD_W, ssn_ren=ssn_z, ssn_cmt=ssn_cmt)
        assert prediction.fwd_ssn == ssn_z
        assert prediction.predict_forward

        # Time 2: store Z executes, writing A/8 into its SQ entry.
        sq.write_execute(ssn_z, ADDR_A, 8, 8)

        # Time 3: store Y commits (B=4); load W executes, indexes SQ[34 mod 4]
        # and finds a matching address, forwarding the value 8.
        memory.write(ADDR_B, 8, 4)
        policy.store_committed(PC_STORE_Y, ssn_y, ADDR_B, 8)
        sq.release(ssn_y)
        decision = policy.forward(ADDR_A, 8, older_than_ssn=ssn_z,
                                  prediction=prediction, store_queue=sq)
        assert decision.forwarded
        assert decision.value == 8
        assert decision.forward_ssn == ssn_z

        # Time 4: store Z commits, updating the architectural state of A.
        memory.write(ADDR_A, 8, 8)
        policy.store_committed(PC_STORE_Z, ssn_z, ADDR_A, 8)
        sq.release(ssn_z)

        # Time 5 (paper: time 6): load W re-executes; the forwarded value is
        # correct, so it commits without flushing and the dependence is
        # reinforced.
        correct_value = memory.read(ADDR_A, 8)
        assert correct_value == decision.value
        last_ssn, last_pc = policy.svw.last_writer(ADDR_A, 8)
        policy.load_committed(LoadCommitInfo(
            pc=PC_LOAD_W, addr=ADDR_A, size=8,
            spec_value=decision.value, correct_value=correct_value,
            forwarded=True, forward_ssn=ssn_z, prediction=prediction,
            ssn_at_rename=ssn_z, ssn_cmt=ssn_z, violation=False,
            last_ssn=last_ssn, last_pc=last_pc))
        assert len(policy.fsp.lookup(PC_LOAD_W)) == 1

    def test_sq_index_is_ssn_mod_size(self, setup):
        """The paper's 'SQ[34 mod 4]' indexed access."""
        policy, sq, _ = setup
        sq.allocate(34, PC_STORE_Z, seq=11)
        sq.write_execute(34, ADDR_A, 8, 8)
        entry = sq.read_indexed(34)
        assert entry is not None and entry.ssn == 34
        assert sq.entries_in_order()[0] is entry
