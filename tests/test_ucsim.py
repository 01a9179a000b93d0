"""Composition demos: ideal functionalities, the seeded protocol executions,
and the simulator constructions that must match them at the environment."""
import hashlib
import json

import numpy as np
import pytest

import gamebound.ucsim as ucsim
from gamebound.coding import LinearCode, bits_to_int, nearest_coset_rep, syndrome
from gamebound.errors import InputError
from gamebound.hashing import XorHashFamily
from gamebound.tapes import Tape, seed_states, seed_words, state_blocks, stream, word_states
from gamebound.ucsim import (
    _BORN_P0,
    _QUBIT_STATES,
    RECEIVER_SCRIPTS,
    SENDER_SCRIPTS,
    IdealBitCommitment,
    ProtocolBitCommitment,
    ReceiverProgram,
    SenderProgram,
    _Batch,
    _ExtractingSender,
    _measure,
    _RushingReceiver,
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


def _tape(seed, words: int = 64) -> Tape:
    """A one-run tape over the stream `default_rng(seed)` draws from."""
    return Tape(np.asarray(np.random.default_rng(seed).bit_generator.random_raw(words), "<u8")[None])


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


class RecordingReceiver(ReceiverProgram):
    """Honest, but keeps the bases it commits to."""

    def commit_value(self, bases):
        self.memory["committed"] = bases
        return bases


class RecordingSender(SenderProgram):
    """Honest, but keeps its choices and what each position's check sees."""

    def select_bits(self):
        self.memory["chosen"] = super().select_bits()
        return self.memory["chosen"]

    def observe_check(self, revealed, opened_bases):
        self.memory["seen"] = revealed, opened_bases
        return super().observe_check(revealed, opened_bases)


class HidingReceiver(ReceiverProgram):
    """Reveals its bit where the sender checks and its complement elsewhere."""

    def one_cc_input(self, chosen):
        return np.where(chosen, self.memory["x"], 1 - self.memory["x"])


def _played(sender, receiver, runs=40, seed=(31, 7)):
    """One batch of runs of the transfer: both programs and the outcome."""
    batch = _Batch((0, 1), (1, 0), 8, "ideal")
    _, blocks = next(ucsim._seeded_blocks(runs, seed, batch.words((sender, receiver))))
    return batch.play(blocks, sender, receiver)


def test_2cc_protocol_honest_outputs():
    # on c = 1 the chooser learns the receiver's bit and its opened basis, on
    # c = 0 neither: lying only where the sender does not check never aborts
    alice, bob, code, _, _ = _played(RecordingSender, RecordingReceiver)
    revealed, opened = alice.memory["seen"]
    chosen = alice.memory["chosen"] == 1
    assert (revealed[chosen] == bob.memory["x"][chosen]).all()
    assert (opened[chosen] == bob.memory["committed"][chosen]).all()
    assert not revealed[~chosen].any() and not opened[~chosen].any()
    assert set(code.tolist()) == {0, 3}  # honest runs only ever size-abort
    assert set(_played(SenderProgram, HidingReceiver)[2].tolist()) == {0, 3}
    assert 2 in _played(SenderProgram, LyingReceiver)[2].tolist()


def test_2cc_over_protocol_commitments_preserves_outputs():
    # the protocol commitment draws after every lane-0 draw of a real run, so
    # a run whose commitments all commit ends as it does over ideal ones
    hits = aborts = 0
    for k in range(40):
        ideal = run_ot_protocol((0, 1), (1, 1), k % 2, 8, seed=(31, k))
        real = run_ot_protocol((0, 1), (1, 1), k % 2, 8, seed=(31, k), bc_backend="protocol")
        if real.meta.get("reason") == "commit-abort":
            aborts += 1
            assert real.outputs == {"alice": "abort", "bob": "abort"}
        else:
            hits += 1
            assert (real.outputs, real.meta) == (ideal.outputs, ideal.meta)
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

    def one_cc_input(self, chosen):
        return 1 - self.memory["x"]


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
    assert bc.commit([[1, 0]]) is None  # an ideal commitment never aborts
    with pytest.raises(InputError):
        bc.commit([[0, 0]])
    assert bc.extract().tolist() == [[1, 0]]
    assert bc.open().tolist() == [[1, 0]]
    with pytest.raises(InputError):
        bc.open()


def test_protocol_commitment_round_trip_and_extraction():
    bc = ProtocolBitCommitment(_tape((42, 0)))
    assert bc.commit([[1]]).tolist() == [[False]]
    assert bc.extract().tolist() == [[1]]
    assert bc.open().tolist() == [[1]]
    bc2 = ProtocolBitCommitment(_tape((42, 1)))
    if not bc2.commit([[0]]).any():
        assert bc2.extract().tolist() == [[0]]
        assert bc2.open().tolist() == [[0]]


def test_protocol_commitment_agrees_with_the_extractor():
    # Over 600 seeds (23 of them abort) the commitment's three draws are
    # replayed from the same seed: the syndrome of the unchecked bases, the
    # hash under the drawn member and the extractor run on those bases give
    # the bit that `extract()` and `open()` return, and the tape ends where
    # the replay does.
    aborts = 0
    for seed in range(600):
        bit = seed % 2
        tape, replay = _tape(seed), np.random.default_rng(seed)
        bc = ProtocolBitCommitment(tape)
        aborted = bc.commit([[bit]])
        theta = replay.integers(0, 2, size=10).astype(np.uint8)
        checked = replay.random(10) < 0.2
        if checked.sum() > 4:
            aborts += 1
            assert aborted.tolist() == [[True]]
            with pytest.raises(InputError):
                bc.extract()
            continue
        theta_rest = theta[~checked]
        n = theta_rest.size
        member = int(replay.integers(0, 2**n))
        code = LinearCode(np.hstack([np.eye(n - 1, dtype=np.uint8), np.ones((n - 1, 1), dtype=np.uint8)]))
        s = syndrome(code, theta_rest)
        family = XorHashFamily(n)
        masked = family.evaluate(member, bits_to_int(theta_rest)) ^ bit
        # the receiver's extractor: hash of the nearest syndrome-s string, xor the masked bit
        rep = nearest_coset_rep(code, s, theta_rest)
        assert family.evaluate(member, bits_to_int(rep)) ^ masked == bit
        assert bc.extract().tolist() == [[bit]]
        assert bc.open().tolist() == [[bit]]
        assert tape.random(1)[0, 0] == replay.random()
    assert aborts == 23


def test_protocol_commitments_of_a_batch_draw_position_after_position():
    # a batch of runs' commitments over several positions reads each run's
    # tape as one commitment after another on a generator would
    seeds = [(5, k) for k in range(30)]
    tape = Tape(np.array([np.random.default_rng(seed).bit_generator.random_raw(48) for seed in seeds], "<u8"))
    aborted = ProtocolBitCommitment(tape).commit(np.zeros((30, 3), dtype=np.uint8))
    for row, seed in zip(aborted, seeds):
        replay = np.random.default_rng(seed)
        expected = []
        for _ in range(3):
            replay.integers(0, 2, size=10)
            expected.append(bool((replay.random(10) < 0.2).sum() > 4))
            replay.integers(0, 2**4)  # one half, whatever the member's width
        assert row.tolist() == expected
    assert aborted.any()


def test_extract_after_an_aborted_commit_is_an_input_error():
    bc = ProtocolBitCommitment(_tape(73))
    assert bc.commit([[1]]).tolist() == [[True]]
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
    bc = ProtocolBitCommitment(_tape(0))
    with pytest.raises(InputError):
        bc.open()
    with pytest.raises(InputError):
        bc.commit(2)
    for bits in ([[0.5]], [[-1]], np.array([[2]], dtype=np.uint8)):
        with pytest.raises(InputError):
            IdealBitCommitment().commit(bits)


class HalfBitReceiver(ReceiverProgram):
    """Hands the 1CC a value that is not a bit."""

    def one_cc_input(self, chosen):
        return self.memory["x"] * 0.5


def test_the_one_cc_takes_only_bits():
    with pytest.raises(InputError, match="must be bits"):
        run_ot_protocol((0,), (1,), 0, 8, receiver=HalfBitReceiver, seed=3)


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
    # one run's seed states (from numpy's own pools) seed each lane's PCG64
    # as default_rng(seed + (lane,)) is seeded
    entries = (0, 2**32 - 1, 2**32, 2**64 + 5)
    for k in range(len(entries) ** 2):
        seed = tuple(entries[(k + j * (k + 1)) % len(entries)] for j in range(length))
        for given in (seed, list(seed)) + ((seed[0],) if length == 1 else ()):
            words = seed_words(given)
            blocks = state_blocks(word_states(words)[None], [3, 3, 3])
            for lane in (0, 1, 2):
                reference = np.random.default_rng(seed + (lane,)).bit_generator
                assert blocks[lane].tolist() == [reference.random_raw(3).tolist()]
            assert word_states(words).tolist() == seed_states([given])[0].tolist()


def test_seed_states_equal_numpys_seed_sequence():
    # seeds of 1-6 entries, one to three words each, hashed in one call
    entries = (0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5)
    seeds = [0, 5, 2**32] + [
        tuple(entries[(k * 5 + j * (k + 2)) % len(entries)] for j in range(length))
        for length in range(1, 7) for k in range(6)]
    states = seed_states(seeds)
    assert states.shape == (len(seeds), 3, 4) and states.dtype == np.uint64
    for seed, rows in zip(seeds, states):
        words = seed_words(seed)
        for lane in (0, 1, 2):
            expected = np.random.SeedSequence(words + [lane]).generate_state(4, np.uint64)
            assert rows[lane].tolist() == expected.tolist()
    assert seed_states([]).shape == (0, 3, 4)
    with pytest.raises(InputError):
        seed_states([(1, 2), (3, -1)])


def _mixed_draws(tape: Tape) -> list:
    """random(k), a scalar random(), integers(0, 2, size=k) with odd k (so a
    kept half carries over) and integers(0, 2**k), read off a one-run tape."""
    out = []
    for k in (1, 3, 5, 2, 7):
        out += [tape.random(k)[0].tolist(), float(tape.random(1)[0, 0]),
                tape.integers(k)[0].tolist(), int(tape.integers(1, bits=k)[0, 0])]
    return out


def _reference_draws(rng: np.random.Generator) -> list:
    out = []
    for k in (1, 3, 5, 2, 7):
        out += [rng.random(k).tolist(), rng.random(),
                rng.integers(0, 2, size=k).tolist(), int(rng.integers(0, 2**k))]
    return out


def test_a_tape_from_its_state_draws_as_the_seeded_tape():
    # over 40 seeds of 1-3 entries (some at least 2**32) and every lane, a
    # block of raw outputs reads as numpy's Generator draws on that lane,
    # whether one run's states or a loop's `seed_states` rows built it
    seeds = [(k, 2**33 + k, 11) if k % 3 else (k,) if k % 2 else (k, 5) for k in range(40)]
    loop = state_blocks(seed_states(seeds), [64, 64, 64])
    for r, seed in enumerate(seeds):
        single = state_blocks(word_states(seed_words(seed))[None], [64, 64, 64])
        for lane in (0, 1, 2):
            expected = _reference_draws(np.random.default_rng(stream(seed, lane)))
            assert _mixed_draws(Tape(single[lane])) == expected
            assert _mixed_draws(Tape(loop[lane][r:r + 1])) == expected


def test_per_run_counts_move_each_cursor_as_numpy_would():
    # runs that draw different counts, with a kept half or none, then draw
    # alike again: each run's cursor reads its own generator's stream
    seeds = [(9, k) for k in range(6)]
    counts = np.array([0, 1, 2, 3, 4, 7])
    tape = Tape(np.array([np.random.default_rng(seed).bit_generator.random_raw(40) for seed in seeds], "<u8"))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    first = tape.integers(3)
    picked = tape.integers(counts, np.arange(7) - (np.arange(6)[:, None] % 2))
    doubles = tape.random(counts[::-1], np.zeros((6, 1), dtype=np.intp))
    after = tape.integers(5), tape.random(2), tape.integers(1, bits=6)
    for r, rng in enumerate(rngs):
        assert first[r].tolist() == rng.integers(0, 2, size=3).tolist()
        drawn = rng.integers(0, 2, size=counts[r]).tolist()
        offsets = np.arange(7) - r % 2
        assert [picked[r, j] for j, at in enumerate(offsets) if 0 <= at < counts[r]] == [
            drawn[at] for at in offsets if 0 <= at < counts[r]]
        doubles_drawn = rng.random(counts[::-1][r])
        if counts[::-1][r]:
            assert doubles[r, 0] == doubles_drawn[0]
        assert after[0][r].tolist() == rng.integers(0, 2, size=5).tolist()
        assert after[1][r].tolist() == rng.random(2).tolist()
        assert after[2][r, 0] == rng.integers(0, 2**6)


class ComplementCommitReceiver(ReceiverProgram):
    """Commits to the basis it did not measure in."""

    name = "complement-commit"

    def commit_value(self, bases):
        return 1 - bases


def test_a_receiver_committing_another_basis_fails_the_senders_check():
    # the opened basis is the other one, so where the sender's basis is that
    # other one its check compares a bit measured in the wrong basis
    reasons = [run_ot_protocol((0,), (1,), 0, 8, receiver=ComplementCommitReceiver, seed=(61, k))
               .meta.get("reason") for k in range(60)]
    assert "check-abort" in reasons
    sims = [simulate_corrupted_receiver(ComplementCommitReceiver, (0,), (1,), 8, seed=(62, k))
            for k in range(60)]
    assert {s["transcript"].meta.get("reason") for s in sims} >= {"check-abort", None}
    assert all(s["inferred_choice"] in (0, 1) for s in sims if s["output"] != "abort")


def _single_outcome(sender, receiver, strings, c, n, seed, backend) -> dict:
    """A public single run's outcome, or its simulation's."""
    if receiver is _RushingReceiver:
        sim = simulate_corrupted_sender(sender, c, n, strings, seed=seed)
        return {"transcript": _view(sim["transcript"]), "extracted": sim["extracted"]}
    if sender is _ExtractingSender:
        sim = simulate_corrupted_receiver(receiver, *strings, n, choice=c, seed=seed, bc_backend=backend)
        return {"transcript": _view(sim["transcript"]), "inferred": sim["inferred_choice"]}
    return {"transcript": _view(run_ot_protocol(*strings, c, n, sender=sender, receiver=receiver,
                                                seed=seed, bc_backend=backend))}


def _batch_outcomes(batch, blocks, sender, receiver, seeds) -> list[dict]:
    """The same outcomes, read off one batch of runs."""
    alice, bob, code, out, checked = batch.play(blocks, sender, receiver)
    outcomes = []
    for r, seed in enumerate(seeds):
        reason = ucsim._REASONS[code[r]]
        meta = {"parties": {"alice": alice.party, "bob": bob.party}}
        outputs = {"alice": None, "bob": list(out[r].tolist())}
        if reason is not None:
            meta["reason"] = reason
            outputs = {"alice": None if reason == "size-abort" else "abort", "bob": "abort"}
        outcome = {"transcript": {"seed": list(stream(seed, 0)), "outputs": outputs,
                                  "aborted": reason is not None, "meta": meta}}
        if receiver is _RushingReceiver:
            outcome["extracted"] = None if reason else bob.memory["extracted"][r].T.tolist()
            if reason is None:
                meta["extracted"] = outcome["extracted"]
        elif sender is _ExtractingSender:
            outcome["inferred"] = None if reason else int(alice.memory["c_hat"][r])
        elif reason is None:
            meta["checked"] = int(checked[r])
        outcomes.append(outcome)
    return outcomes


def _listed(outcome: dict) -> dict:
    return json.loads(json.dumps(outcome))


@pytest.mark.parametrize("backend", ["ideal", "protocol"])
@pytest.mark.parametrize("c", [0, 1])
def test_loop_runs_equal_batches_of_one(backend, c, monkeypatch):
    """Every run of a loop (tapes from a block of seed states, played with
    the other runs of its block) equals the public single run on its seed:
    every sender against every receiver script, both simulators, both
    backends and both choices, across `_STATE_BLOCK` boundaries."""
    monkeypatch.setattr(ucsim, "_STATE_BLOCK", 7)  # three blocks: 7, 7 and 5 runs
    runs, n, seed, strings = 19, 6, (23, 4), ((0, 1), (1, 1))
    receivers = [*RECEIVER_SCRIPTS.values(), ComplementCommitReceiver, LyingReceiver]
    plays = [(s, r) for s in SENDER_SCRIPTS.values() for r in receivers]
    plays += [(_ExtractingSender, r) for r in receivers]
    if backend == "ideal":  # the rushing simulator runs over ideal commitments only
        plays += [(s, _RushingReceiver) for s in SENDER_SCRIPTS.values()]
    batch, reasons = _Batch(*strings, n, backend, c), set()
    for start, blocks in ucsim._seeded_blocks(runs, seed, batch.words(*plays)):
        seeds = [stream(seed, k) for k in range(start, start + len(blocks[0]))]
        for sender, receiver in plays:
            got = [_listed(g) for g in _batch_outcomes(batch, blocks, sender, receiver, seeds)]
            assert got == [_listed(_single_outcome(sender, receiver, strings, c, n, s, backend))
                           for s in seeds]
            reasons |= {g["transcript"]["meta"].get("reason") for g in got}
    expected = {None, "check-abort", "size-abort"} | ({"commit-abort"} if backend == "protocol" else set())
    assert reasons >= expected


@pytest.mark.parametrize("corruption, script, c", [
    ("receiver", "honest", 1), ("sender", "random-announce", 0)])
def test_demo_runs_equal_the_public_single_runs(corruption, script, c, monkeypatch):
    """A demo's counts, its tapes drawn a block of runs at a time, are the
    counts of the public single runs on the same run seeds. Receiver demos
    run the protocol commitment."""
    runs, n, seed, strings = 20, 6, (23, 4), ((0, 1), (1, 1))
    monkeypatch.setattr(ucsim, "_STATE_BLOCK", 7)  # three blocks: 7, 7 and 6 runs
    demo = run_simulator_demo(corruption, script=script, runs=runs, n=n, seed=seed,
                              s0=strings[0], s1=strings[1], c=c)
    real, ideal = {}, {}
    for k in range(runs):
        run_seed = stream(seed, k)
        if corruption == "receiver":
            program = receiver_script(script)
            t = run_ot_protocol(*strings, c, n, receiver=program, seed=run_seed, bc_backend="protocol")
            sim = simulate_corrupted_receiver(program, *strings, n, choice=c, seed=run_seed)
        else:
            program = sender_script(script)
            t = run_ot_protocol(*strings, c, n, sender=program, seed=run_seed)
            sim = simulate_corrupted_sender(program, c, n, strings, seed=run_seed)
        for counts, output in ((real, ucsim._output(t)), (ideal, sim["output"])):
            label = "".join(map(str, output)) if isinstance(output, tuple) else output
            counts[label] = counts.get(label, 0) + 1
    assert {cat: row["real"] for cat, row in demo["categories"].items() if row["real"]} == real
    assert {cat: row["ideal"] for cat, row in demo["categories"].items() if row["ideal"]} == ideal
    assert "abort" in real and len(real) > 1  # aborted and completed runs


def test_seed_words_reject_negative_entries():
    with pytest.raises(InputError):
        seed_words((3, -1))
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
    assert _BORN_P0.reshape(4, 2).tolist() == [[_p0(psi, basis) for basis in (0, 1)] for psi in states]
    for seed in range(100):
        setup = np.random.default_rng((seed, 1))
        n = int(setup.integers(1, 11))
        qubits, bases = setup.integers(0, 4, size=n), setup.integers(0, 2, size=n)
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [_measure_qubit(states[q], b, scalar) for q, b in zip(qubits, bases)]
        measured = _measure((qubits // 2, qubits % 2), bases, batched.random(n))
        assert measured.astype(int).tolist() == expected
        one = _measure_qubit(states[qubits[0]], bases[0], scalar)
        assert int(_measure((qubits[0] // 2, qubits[0] % 2), bases[0], batched.random())) == one
        assert batched.bit_generator.state == scalar.bit_generator.state


def test_batched_bit_draws_consume_the_stream_like_scalar_draws():
    for seed in range(300):
        n = 2 + seed % 9
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [int(scalar.integers(0, 2)) for _ in range(n)]
        assert batched.integers(0, 2, size=n).tolist() == expected
        assert batched.bit_generator.state == scalar.bit_generator.state
