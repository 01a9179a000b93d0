"""Composition demos: ideal functionalities, the seeded protocol executions,
and the simulator constructions that must match them at the environment."""
import hashlib
import json

import numpy as np
import pytest

from gamebound.errors import InputError
from gamebound.rand import rng_from_seed
from gamebound.ucsim import (
    _BORN_P0,
    _QUBIT_STATES,
    RECEIVER_SCRIPTS,
    SENDER_SCRIPTS,
    IdealBitCommitment,
    ProtocolBitCommitment,
    ReceiverProgram,
    SenderProgram,
    _measure,
    _seed_words,
    _tape,
    ideal_one_cc,
    ideal_two_cc_prime,
    one_cc_table,
    qubit_state,
    receiver_script,
    run_2cc_protocol,
    run_ot_protocol,
    run_simulator_demo,
    sender_script,
    simulate_corrupted_receiver,
    simulate_corrupted_sender,
)


def test_one_cc_table_exhaustive():
    rows = one_cc_table()
    assert len(rows) == 4
    for row in rows:
        assert row["sender_learns"] == row["chooser_in"]
        if row["chooser_in"] == 1:
            assert row["chooser_receives"] == row["sender_in"]
        else:
            assert row["chooser_receives"] is None
    with pytest.raises(InputError):
        ideal_one_cc(2, 0)


def test_ideal_two_cc_prime_branches():
    assert ideal_two_cc_prime(1, 0, 0) == {"sender_learns": 0, "receiver_receives": None}
    assert ideal_two_cc_prime(1, 0, 1) == {
        "sender_learns": 1,
        "receiver_receives": (1, 0),
    }
    assert ideal_two_cc_prime(1, 0, 1, "abort")["receiver_receives"] == "abort"
    with pytest.raises(InputError):
        ideal_two_cc_prime(1, 0, 1, "stall")


def test_2cc_protocol_honest_outputs():
    t = run_2cc_protocol(1, 0, 1, seed=5)
    assert not t.aborted
    assert t.outputs == {"alice": 1, "bob": (1, 0)}
    t = run_2cc_protocol(1, 0, 0, seed=5)
    assert t.outputs == {"alice": 0, "bob": None}


def test_2cc_protocol_refusal_aborts():
    t = run_2cc_protocol(1, 0, 1, seed=5, refuse_open=True)
    assert t.aborted
    assert t.outputs["bob"] == "abort"


def test_2cc_protocol_replay_is_deterministic():
    a = run_2cc_protocol(0, 1, 1, seed=(12, 3), bc_backend="protocol")
    b = run_2cc_protocol(0, 1, 1, seed=(12, 3), bc_backend="protocol")
    assert a.to_dict() == b.to_dict()


def test_2cc_over_protocol_commitments_preserves_outputs():
    # the commitment swap must not change what the parties output when the
    # backing run commits cleanly
    hits = 0
    for k in range(20):
        t = run_2cc_protocol(1, 1, 1, seed=(31, k), bc_backend="protocol")
        if t.aborted:
            continue
        assert t.outputs["bob"] == (1, 1)
        hits += 1
    assert hits > 0


def test_ot_honest_completeness():
    completed = 0
    for k in range(40):
        c = k % 2
        t = run_ot_protocol((0, 1, 1), (1, 0, 1), c, 8, seed=(9, k))
        if t.aborted:
            assert t.meta.get("reason") in ("size-abort", "check-abort")
            continue
        completed += 1
        assert t.outputs["bob"] == ((0, 1, 1), (1, 0, 1))[c]
    assert completed > 20


class LyingReceiver(ReceiverProgram):
    """Reveals the complement of every measured bit in the 1CC."""

    name = "lying"

    def one_cc_input(self, i: int, chooser_bit: int) -> int:
        return 1 - int(self.memory["x"][i])


def test_lying_receiver_fails_the_senders_check():
    reasons = set()
    for seed in range(50):
        t = run_ot_protocol((0, 1), (1, 0), 0, 8, receiver=LyingReceiver, seed=seed)
        reasons.add(t.meta.get("reason"))
        if t.meta.get("reason") == "check-abort":
            assert t.aborted
            assert t.outputs == {"alice": "abort", "bob": "abort"}
            assert t.meta["parties"]["bob"] == "receiver:lying"
    assert "check-abort" in reasons


def test_ot_input_validation():
    with pytest.raises(InputError):
        run_ot_protocol((0, 1), (1,), 0, 8)
    with pytest.raises(InputError):
        run_ot_protocol((0,), (1,), 2, 8)
    with pytest.raises(InputError):
        run_ot_protocol((0,), (1,), 0, 1)


def test_corrupted_sender_simulator_extracts_honest_strings():
    strings = ((0, 1, 1), (1, 0, 1))
    checked = 0
    for k in range(20):
        sim = simulate_corrupted_sender(SenderProgram, 1, 8, strings, seed=(9, k))
        if sim["output"] == "abort":
            continue
        checked += 1
        # honest announcements let the delayed measurement recover both
        # strings exactly, so the ideal transfer answers with the real one
        assert sim["extracted"] == strings
        assert sim["output"] == strings[1]
    assert checked > 10


def test_sender_demo_honest_and_fixed_state():
    d = run_simulator_demo("sender", script="honest", runs=60, n=6, seed=77, c=1)
    assert d["pass"]
    assert d["max_z"] == pytest.approx(0.0, abs=1e-12)
    d = run_simulator_demo("sender", script="fixed-state", runs=60, n=6, seed=78, c=1)
    assert d["pass"]


def test_sender_demo_random_announce_within_tolerance():
    d = run_simulator_demo("sender", script="random-announce", runs=200, n=6, seed=79, c=0)
    assert d["pass"]


def test_receiver_demo_honest_with_extraction():
    d = run_simulator_demo("receiver", script="honest", runs=40, n=6, seed=101, c=1)
    assert d["pass"]
    assert d["extraction"]["checked"] > 0
    assert d["extraction"]["correct"] == d["extraction"]["checked"]


def test_wrong_partition_receiver_runs_without_choice():
    sim = simulate_corrupted_receiver(
        receiver_script("wrong-partition"), (0, 1), (1, 1), 6, choice=0, seed=(3, 4)
    )
    assert sim["effective_choice"] is None
    d = run_simulator_demo("receiver", script="wrong-partition", runs=30, n=6, seed=55, c=0)
    assert d["pass"]
    assert d["extraction"]["checked"] == 0


def test_unknown_scripts_rejected():
    with pytest.raises(InputError):
        sender_script("mitm")
    with pytest.raises(InputError):
        receiver_script("mitm")


def test_ideal_commitment_state_machine():
    bc = IdealBitCommitment()
    with pytest.raises(InputError):
        bc.open()
    assert bc.commit(1) == "committed"
    with pytest.raises(InputError):
        bc.commit(0)
    assert bc.extract() == 1
    assert bc.open() == 1
    with pytest.raises(InputError):
        bc.open()


def test_protocol_commitment_round_trip_and_extraction():
    rng = rng_from_seed((42, 0))
    bc = ProtocolBitCommitment(rng, n_qubits=10, check_prob=0.2)
    assert bc.commit(1) == "committed"
    assert bc.extract() == 1
    assert bc.open() == 1
    bc2 = ProtocolBitCommitment(rng_from_seed((42, 1)), n_qubits=10, check_prob=0.2)
    if bc2.commit(0) == "committed":
        assert bc2.extract() == 0
        assert bc2.open() == 0


def test_protocol_commitment_param_validation():
    rng = rng_from_seed(0)
    with pytest.raises(InputError):
        ProtocolBitCommitment(rng, n_qubits=5)
    with pytest.raises(InputError):
        ProtocolBitCommitment(rng, check_prob=0.0)
    bc = ProtocolBitCommitment(rng)
    with pytest.raises(InputError):
        bc.open()
    with pytest.raises(InputError):
        bc.commit(2)


def test_transcript_events_are_jsonable():
    import json

    t = run_ot_protocol((0,), (1,), 0, 6, seed=(4, 4))
    d = t.to_dict()
    assert isinstance(d["events"], list)
    assert all(isinstance(e["actor"], str) for e in d["events"])
    json.dumps(d)  # raises on any ndarray left in a payload


def test_sender_simulator_rejects_bad_choice_on_every_seed():
    # rejected before the run, so a seed whose run aborts cannot hide it
    for k in range(30):
        with pytest.raises(InputError):
            simulate_corrupted_sender(SenderProgram, 5, 8, ((0, 1), (1, 1)), seed=k)


def test_simulators_reject_a_single_position():
    with pytest.raises(InputError):
        simulate_corrupted_sender(SenderProgram, 0, 1, ((0,), (1,)), seed=1)
    with pytest.raises(InputError):
        simulate_corrupted_receiver(receiver_script("honest"), (0,), (1,), 1, choice=0, seed=1)


def test_receiver_simulator_rejects_bad_choice():
    with pytest.raises(InputError):
        simulate_corrupted_receiver(receiver_script("honest"), (0,), (1,), 8, choice=7, seed=1)


# Pinned digests of real runs over every script pairing, both commitment
# backends and both choices, of both simulators' results (the transcript cut
# to outputs, abort flag and meta) and of stand-alone 2CC runs: any change to
# a random draw, an event or an output changes them.
PINNED_SEEDS = range(20)
PINNED_STRINGS = ((0, 1), (1, 1))
REAL_RUNS_SHA256 = "6e6161a0f9cdc3a8381020aec5e2e137b6c2a5988cd2eea6eed7dce4f77028cb"
SIMULATIONS_SHA256 = "7e9c08c144e43924c0cff0109eb627933954cfa25941778714865e88cce0bb3a"
TWO_CC_RUNS_SHA256 = "b3f649e2c68c0ec9e6ba26c92130a38a7bc167b2449c705ccc57e731d4c41de1"


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def _reduced(sim: dict) -> dict:
    view = sim["transcript"].to_dict()
    rest = {k: v for k, v in sim.items() if k != "transcript"}
    return {"transcript": {k: view[k] for k in ("outputs", "aborted", "meta")}, **rest}


def test_pinned_real_runs():
    records = [
        run_ot_protocol(
            *PINNED_STRINGS, c, 6, seed=(17, k), bc_backend=backend,
            sender=sender_script(sender), receiver=receiver_script(receiver),
        ).to_dict()
        for sender in sorted(SENDER_SCRIPTS)
        for receiver in sorted(RECEIVER_SCRIPTS)
        for backend in ("ideal", "protocol")
        for c in (0, 1)
        for k in PINNED_SEEDS
    ]
    assert _digest(records) == REAL_RUNS_SHA256


def test_pinned_simulations():
    records = [
        _reduced(simulate_corrupted_sender(sender_script(name), c, 6, PINNED_STRINGS, seed=(18, k)))
        for name in sorted(SENDER_SCRIPTS)
        for c in (0, 1)
        for k in PINNED_SEEDS
    ]
    records += [
        _reduced(simulate_corrupted_receiver(
            receiver_script(name), *PINNED_STRINGS, 6, choice=c, seed=(19, k), bc_backend=backend))
        for name in sorted(RECEIVER_SCRIPTS)
        for backend in ("ideal", "protocol")
        for c in (0, 1)
        for k in PINNED_SEEDS
    ]
    assert _digest(records) == SIMULATIONS_SHA256


def test_pinned_2cc_runs():
    records = [
        run_2cc_protocol(bits >> 2, (bits >> 1) & 1, bits & 1, seed=(20, k),
                         refuse_open=refuse, bc_backend=backend).to_dict()
        for backend in ("ideal", "protocol")
        for refuse in (False, True)
        for bits in range(8)
        for k in range(5)
    ]
    assert _digest(records) == TWO_CC_RUNS_SHA256


# A run with a seed entry of 2**40 (two seed words), pinned on the engine
# that seeded every tape from the seed tuple itself.
BIG_SEED_RUNS_SHA256 = "163b6e8ed0d22d9c017ae006bc82684771d9046c147f1fe6f02d35a16879fd91"


def test_pinned_run_with_a_multi_word_seed_entry():
    records = [
        run_ot_protocol(*PINNED_STRINGS, c, 6, seed=(2**40, 3), bc_backend=backend).to_dict()
        for backend in ("ideal", "protocol")
        for c in (0, 1)
    ]
    assert _digest(records) == BIG_SEED_RUNS_SHA256


@pytest.mark.parametrize("length", range(1, 6))
def test_seed_words_replay_the_seed_tuple_streams(length):
    entries = (0, 2**32 - 1, 2**32, 2**64 + 5)
    for k in range(len(entries) ** 2):
        seed = tuple(entries[(k + j * (k + 1)) % len(entries)] for j in range(length))
        for given in (seed, list(seed)) + ((seed[0],) if length == 1 else ()):
            words = _seed_words(given)
            for lane in (0, 1, 2):
                reference = np.random.default_rng(seed + (lane,))
                tape = _tape(words, lane)
                assert tape.bit_generator.state == reference.bit_generator.state
                assert tape.random(3).tolist() == reference.random(3).tolist()


def test_seed_words_reject_negative_entries():
    with pytest.raises(InputError):
        _seed_words((3, -1))
    with pytest.raises(InputError):
        run_ot_protocol((0,), (1,), 0, 4, seed=-5)


def _p0(psi, basis) -> float:
    return min(max(float(abs(np.vdot(qubit_state(0, basis), psi)) ** 2), 0.0), 1.0)


def _measure_qubit(psi, basis, rng) -> int:
    """The scalar Born draw, one qubit at a time: the reference for `_measure`."""
    return 0 if rng.random() < _p0(psi, basis) else 1


def test_vectorised_born_draws_match_the_scalar_loop():
    states = _QUBIT_STATES.reshape(4, 2)
    # the tabulated probabilities are the scalar draw's floats, bit for bit
    # (a vectorised overlap can differ from np.vdot in the last bits)
    assert _BORN_P0.tolist() == [[_p0(psi, basis) for basis in (0, 1)] for psi in states]
    for seed in range(100):
        setup = np.random.default_rng((seed, 1))
        n = int(setup.integers(1, 11))
        qubits, bases = setup.integers(0, 4, size=n), setup.integers(0, 2, size=n)
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [_measure_qubit(states[q], b, scalar) for q, b in zip(qubits, bases)]
        assert _measure(qubits, bases, batched).astype(int).tolist() == expected
        one = _measure_qubit(states[qubits[0]], bases[0], scalar)
        assert int(_measure(qubits[0], bases[0], batched)) == one
        assert batched.bit_generator.state == scalar.bit_generator.state


def test_batched_bit_draws_consume_the_stream_like_scalar_draws():
    for seed in range(300):
        n = 2 + seed % 9
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [int(scalar.integers(0, 2)) for _ in range(n)]
        assert batched.integers(0, 2, size=n).tolist() == expected
        assert batched.bit_generator.state == scalar.bit_generator.state
