"""Composition demos: ideal functionalities, the seeded protocol executions,
and the simulator constructions that must match them at the environment."""
import hashlib
import json

import numpy as np
import pytest

import gamebound.ucsim as ucsim
from gamebound.coding import LinearCode, bits_to_int, syndrome
from gamebound.errors import InputError
from gamebound.hashing import XorHashFamily
from gamebound.onecc import extract_commit_bit
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
    _seed_states,
    _seed_words,
    _state_tape,
    _stream,
    _tape,
    _two_cc_step,
    ideal_one_cc,
    one_cc_table,
    qubit_state,
    receiver_script,
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


class RecordingCommitment:
    """Passes commit and open to `bc` and appends each call to `calls`."""

    def __init__(self, bc, calls: list):
        self.bc, self.calls = bc, calls

    def commit(self, bit: int) -> str:
        self.calls.append("commit")
        return self.bc.commit(bit)

    def open(self):
        self.calls.append("open")
        return self.bc.open()


def _step(bc, s0, s1, c):
    """One 2CC' step at position 3, as the transfer engine runs it, and its
    commit, 1CC-input and open calls in order."""
    calls = []

    def s1_for(i, chooser_bit):
        calls.append(("one-cc", i, chooser_bit))
        return s1

    return _two_cc_step(RecordingCommitment(bc, calls), s0, c, s1_for, 3), calls


def test_2cc_protocol_honest_outputs():
    # on c = 1 the chooser learns both bits, on c = 0 neither
    for s0 in (0, 1):
        for s1 in (0, 1):
            step, calls = _step(IdealBitCommitment(), s0, s1, 1)
            assert step == (1, s1, s0)
            assert calls == ["commit", ("one-cc", 3, 1), "open"]
            step, calls = _step(IdealBitCommitment(), s0, s1, 0)
            assert step == (0, None, None)
            assert calls == ["commit", ("one-cc", 3, 0)]


def test_2cc_over_protocol_commitments_preserves_outputs():
    # the protocol commitment must not change what the step outputs when it
    # commits cleanly; on an abort the 1CC input is never asked for, so the
    # tape is not drawn on for it
    hits = aborts = 0
    for k in range(40):
        step, calls = _step(ProtocolBitCommitment(rng_from_seed((31, k))), 1, 1, 1)
        if step[0] is None:
            aborts += 1
            assert (step, calls) == ((None, None, None), ["commit"])
        else:
            hits += 1
            assert (step, calls) == ((1, 1, 1), ["commit", ("one-cc", 3, 1), "open"])
    assert hits > 0 and aborts > 0


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


@pytest.mark.parametrize("seed", [5, (5, 11)])
def test_honest_ot_completeness_counts_like_the_inline_loop(seed):
    runs, n = 40, 6
    entries = seed if isinstance(seed, tuple) else (seed,)
    completed = correct = 0
    for k in range(runs):
        c = k % 2
        t = run_ot_protocol((0,), (1,), c, n, seed=(*entries, k))
        if not t.aborted:
            completed += 1
            correct += t.outputs["bob"] == (c,)
    assert 0 < completed < runs
    assert ucsim.honest_ot_completeness(runs, n, seed) == {
        "runs": runs, "completed": completed, "correct": correct}


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
    bc = ProtocolBitCommitment(rng)
    assert bc.commit(1) == "committed"
    assert bc.extract() == 1
    assert bc.open() == 1
    bc2 = ProtocolBitCommitment(rng_from_seed((42, 1)))
    if bc2.commit(0) == "committed":
        assert bc2.extract() == 0
        assert bc2.open() == 0


def test_protocol_commitment_agrees_with_the_extractor():
    # Over 600 seeds (23 of them abort) the commitment's three draws are
    # replayed from the same seed: the syndrome of the unchecked bases, the
    # hash under the drawn member and the extractor run on those bases give
    # the bit that `extract()` and `open()` return, and the tape ends where
    # the replay does.
    aborts = 0
    for seed in range(600):
        bit = seed % 2
        tape, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        bc = ProtocolBitCommitment(tape)
        outcome = bc.commit(bit)
        theta = replay.integers(0, 2, size=10).astype(np.uint8)
        checked = replay.random(10) < 0.2
        if checked.sum() > 4:
            aborts += 1
            assert outcome == "abort"
            with pytest.raises(InputError):
                bc.extract()
            continue
        theta_rest = theta[~checked]
        n = theta_rest.size
        member = int(replay.integers(0, 2**n))
        code = LinearCode(np.hstack([np.eye(n - 1, dtype=np.uint8), np.ones((n - 1, 1), dtype=np.uint8)]))
        s = syndrome(code, theta_rest)
        masked = XorHashFamily(n).evaluate(member, bits_to_int(theta_rest)) ^ bit
        assert extract_commit_bit(code, member, s, masked, theta_rest) == bit
        assert bc.extract() == bit
        assert bc.open() == bit
        assert tape.random() == replay.random()
    assert aborts == 23


def test_extract_after_an_aborted_commit_is_an_input_error():
    bc = ProtocolBitCommitment(np.random.default_rng(73))
    assert bc.commit(1) == "abort"
    with pytest.raises(InputError):
        bc.extract()
    with pytest.raises(InputError):
        bc.open()


@pytest.mark.parametrize("corruption", ["sender", "receiver"])
@pytest.mark.parametrize("runs", [0, -5])
def test_demo_rejects_non_positive_runs(corruption, runs):
    with pytest.raises(InputError):
        run_simulator_demo(corruption, runs=runs)


def test_protocol_commitment_param_validation():
    bc = ProtocolBitCommitment(rng_from_seed(0))
    with pytest.raises(InputError):
        bc.open()
    with pytest.raises(InputError):
        bc.commit(2)


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
# backends and both choices, and of both simulators' results, each run seen as
# its seed, outputs, abort flag and meta: any change to a random draw or an
# output changes them.
PINNED_SEEDS = range(20)
PINNED_STRINGS = ((0, 1), (1, 1))
REAL_RUNS_SHA256 = "5dad20243dc1fa93315b50bf01a41890404e2b7948f8e15611848514772ec195"
SIMULATIONS_SHA256 = "2ee1ef8845d7b29cb1dd0ede71af9f0dad3ae8198067871c4fedcea43bf3a876"


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def _view(t) -> dict:
    return {"seed": list(t.seed), "outputs": t.outputs, "aborted": t.aborted, "meta": t.meta}


def _reduced(sim: dict) -> dict:
    return {**sim, "transcript": _view(sim["transcript"])}


def test_pinned_real_runs():
    records = [
        _view(run_ot_protocol(
            *PINNED_STRINGS, c, 6, seed=(17, k), bc_backend=backend,
            sender=sender_script(sender), receiver=receiver_script(receiver),
        ))
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


# A run with a seed entry of 2**40 (two seed words), pinned on the engine
# that seeded every tape from the seed tuple itself.
BIG_SEED_RUNS_SHA256 = "c21dc4e5204abbfc1cc4af6bbcad717dda0c42ae658d5ec2b7116f245c1dff8c"


def test_pinned_run_with_a_multi_word_seed_entry():
    records = [
        _view(run_ot_protocol(*PINNED_STRINGS, c, 6, seed=(2**40, 3), bc_backend=backend))
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


def test_seed_states_equal_numpys_seed_sequence():
    # seeds of 1-6 entries, one to three words each, hashed in one call
    entries = (0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5)
    seeds = [0, 5, 2**32] + [
        tuple(entries[(k * 5 + j * (k + 2)) % len(entries)] for j in range(length))
        for length in range(1, 7) for k in range(6)]
    states = _seed_states(seeds)
    assert states.shape == (len(seeds), 3, 4) and states.dtype == np.uint64
    for seed, rows in zip(seeds, states):
        words = _seed_words(seed)
        for lane in (0, 1, 2):
            expected = np.random.SeedSequence(words + [lane]).generate_state(4, np.uint64)
            assert rows[lane].tolist() == expected.tolist()
    assert _seed_states([]).shape == (0, 3, 4)
    with pytest.raises(InputError):
        _seed_states([(1, 2), (3, -1)])


def test_a_tape_from_its_state_draws_as_the_seeded_tape():
    seeds = [(k, 2**33 + k, 11) if k % 3 else (k,) for k in range(40)]
    for seed, rows in zip(seeds, _seed_states(seeds)):
        words = _seed_words(seed)
        for lane in (0, 1, 2):
            tape, reference = _state_tape(rows[lane]), _tape(words, lane)
            for size in (1, 3, 10):
                assert tape.random(size).tolist() == reference.random(size).tolist()
                assert (tape.integers(0, 2, size=size).tolist()
                        == reference.integers(0, 2, size=size).tolist())
                assert int(tape.integers(0, 2**size)) == int(reference.integers(0, 2**size))
                assert tape.random() == reference.random()
            assert tape.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("corruption, script, c", [
    ("receiver", "honest", 1), ("sender", "random-announce", 0)])
def test_demo_runs_equal_the_public_single_runs(corruption, script, c, monkeypatch):
    """Each real run and simulation of a demo, whose tapes come from seed
    states derived a block at a time, equals the public single run on the
    same run seed, whose tapes numpy seeds. Receiver demos run the protocol
    commitment."""
    runs, n, seed, strings = 20, 6, (23, 4), ((0, 1), (1, 1))
    simulator = "_simulate_receiver" if corruption == "receiver" else "_simulate_sender"
    real, simulated = [], []
    with monkeypatch.context() as patch:
        patch.setattr(ucsim, "_STATE_BLOCK", 7)  # three blocks: 7, 7 and 6 runs
        for name, record in (("_run_real", real), (simulator, simulated)):
            def recording(*args, _orig=getattr(ucsim, name), _record=record, **kwargs):
                _record.append(_orig(*args, **kwargs))
                return _record[-1]
            patch.setattr(ucsim, name, recording)
        run_simulator_demo(corruption, script=script, runs=runs, n=n, seed=seed,
                           s0=strings[0], s1=strings[1], c=c)
    expected_real, expected_sim = [], []
    for k in range(runs):
        run_seed = _stream(seed, k)
        if corruption == "receiver":
            program = receiver_script(script)
            expected_real.append(run_ot_protocol(*strings, c, n, receiver=program, seed=run_seed,
                                                 bc_backend="protocol"))
            expected_sim.append(simulate_corrupted_receiver(program, *strings, n, choice=c,
                                                            seed=run_seed))
        else:
            program = sender_script(script)
            expected_real.append(run_ot_protocol(*strings, c, n, sender=program, seed=run_seed))
            expected_sim.append(simulate_corrupted_sender(program, c, n, strings, seed=run_seed))
    assert [_view(t) for t in real] == [_view(t) for t in expected_real]
    assert [_reduced(s) for s in simulated] == [_reduced(s) for s in expected_sim]
    assert len({_view(t)["aborted"] for t in real}) == 2  # aborted and completed runs


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
