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
from gamebound.tapes import Tape, lane_blocks, seed_words, stream
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


def _doubles(words) -> list:
    """The tapes' rule for doubles: each raw word shifted right by 11, times 2**-53."""
    return ((np.asarray(words, dtype=np.uint64) >> 11) * 2.0**-53).tolist()


def _bits(words) -> list:
    """The tapes' rule for bits: each raw word's top bit."""
    return (np.asarray(words, dtype=np.uint64) >> 63).tolist()


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
    _, blocks = next(lane_blocks(seed, runs, batch.words((sender, receiver)), runs))
    return batch.play(blocks, sender, receiver)


def _replayed(seed, run: int, sizes) -> list[np.ndarray]:
    """Run `run`'s blocks of a loop on `seed`, drawn alone: each lane's stream
    `default_rng(seed + (lane,))` advanced `run * size` words, then one row."""
    blocks = []
    for lane, size in enumerate(sizes):
        bits = np.random.default_rng(stream(seed, lane)).bit_generator
        bits.advance(run * size)
        blocks.append(bits.random_raw((1, size)))
    return blocks


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
def test_honest_ot_completeness_counts_like_the_inline_loop(seed, monkeypatch):
    # run k, at choice k % 2, replays alone on its lanes' advanced streams;
    # run 0 is the public single run on the seed
    monkeypatch.setattr(ucsim, "_RUNS_PER_BLOCK", 7)  # six blocks: 7 runs each, then 5
    runs, n = 40, 6
    honest = (SenderProgram, ReceiverProgram)
    sizes = _Batch((0,), (1,), n, "ideal").words(honest)
    completed = correct = 0
    for k in range(runs):
        c = k % 2
        code, out = _Batch((0,), (1,), n, "ideal", c).play(_replayed(seed, k, sizes), *honest)[2:4]
        if k == 0:
            t = run_ot_protocol((0,), (1,), c, n, seed=seed)
            assert (t.aborted, t.outputs["bob"]) == (
                bool(code[0]), "abort" if code[0] else tuple(out[0].tolist()))
        if not code[0]:
            completed += 1
            correct += out[0].tolist() == [c]
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
    for bits in ((0.7,), "1", (1, "0")):  # once truncated or parsed to bits
        with pytest.raises(InputError):
            run_ot_protocol(bits, (1,) * len(bits), 0, 8)


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
    # Over 600 seeds (21 of them abort) the commitment draws its ten check
    # coins and nothing else. For bases and a hash member drawn on a second
    # stream, the syndrome of the unchecked bases, the hash under the member
    # and the extractor run on those bases give the bit that `extract()` and
    # `open()` return.
    aborts = 0
    for seed in range(600):
        bit = seed % 2
        tape, words = _tape(seed), np.random.default_rng(seed).bit_generator.random_raw(11)
        bc = ProtocolBitCommitment(tape)
        aborted = bc.commit([[bit]])
        assert tape.word == 10
        checked = np.array(_doubles(words[:10])) < 0.2
        if checked.sum() > 4:
            aborts += 1
            assert aborted.tolist() == [[True]]
            with pytest.raises(InputError):
                bc.extract()
            continue
        replay = np.random.default_rng((seed, 1))
        theta_rest = replay.integers(0, 2, size=10).astype(np.uint8)[~checked]
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
        assert tape.random(1)[0, 0] == _doubles(words[10:])[0]
    assert aborts == 21


def test_protocol_commitments_of_a_batch_draw_position_after_position():
    # a batch of runs' commitments over several positions reads each run's
    # tape as one commitment's ten check coins after another
    seeds = [(5, k) for k in range(30)]
    tape = Tape(np.array([np.random.default_rng(seed).bit_generator.random_raw(30) for seed in seeds], "<u8"))
    aborted = ProtocolBitCommitment(tape).commit(np.zeros((30, 3), dtype=np.uint8))
    assert tape.word == 30
    for row, seed in zip(aborted, seeds):
        coins = np.array(_doubles(np.random.default_rng(seed).bit_generator.random_raw(30)))
        assert row.tolist() == ((coins.reshape(3, 10) < 0.2).sum(1) > 4).tolist()
    assert aborted.any()


def test_extract_after_an_aborted_commit_is_an_input_error():
    bc = ProtocolBitCommitment(_tape(11))
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
REAL_RUNS_SHA256 = "74d2332b2f1d35fe6742c7cd238120c3e74936888ab11ba359e8f103584ea52d"
SIMULATIONS_SHA256 = "977a877ef38b0f730c59eac57f0374151deff9a74cbb01dc193d1896337a1ca8"


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


# A run with a seed entry of 2**40 (two seed words), whose tapes are the raw
# streams of `default_rng` seeded with the seed tuple itself.
BIG_SEED_RUNS_SHA256 = "76c0e9390a1a4a6ab83a522b1ae723771793dc318c4f942565192066c5902f1b"


def test_pinned_run_with_a_multi_word_seed_entry():
    records = [
        _view(run_ot_protocol(*PINNED_STRINGS, c, 6, seed=(2**40, 3), bc_backend=backend))
        for backend in ("ideal", "protocol")
        for c in (0, 1)
    ]
    assert _digest(records) == BIG_SEED_RUNS_SHA256


# The benchmark's own single-run shape: honest runs at n = 8, one-bit strings,
# ideal commitments, choice k % 2 on seed (0, 11, k).
SINGLE_RUNS_SHA256 = "861be0428a2b62a01518c9bd6058db3d14da73cecd3bedc1d70b44def802dc56"


def test_pinned_single_runs_of_the_benchmark_shape():
    records = [_view(run_ot_protocol((0,), (1,), k % 2, 8, seed=(0, 11, k))) for k in range(200)]
    assert _digest(records) == SINGLE_RUNS_SHA256


@pytest.mark.parametrize("length", range(1, 6))
def test_seed_words_replay_the_seed_tuple_streams(length):
    # a batch of one, its lanes seeded from the seed's words, draws each
    # lane's raw stream of default_rng(seed + (lane,))
    entries = (0, 2**32 - 1, 2**32, 2**64 + 5)
    for k in range(len(entries) ** 2):
        seed = tuple(entries[(k + j * (k + 1)) % len(entries)] for j in range(length))
        for given in (seed, list(seed)) + ((seed[0],) if length == 1 else ()):
            start, blocks = next(lane_blocks(given, 1, [3, 3, 3], 1))
            assert start == 0
            for lane in (0, 1, 2):
                reference = np.random.default_rng(seed + (lane,)).bit_generator
                assert blocks[lane].tolist() == [reference.random_raw(3).tolist()]


def test_lane_blocks_are_the_same_rows_at_any_block_size():
    # 30 runs a block at a time: each block starts at its first run, and
    # the rows it holds do not depend on how many runs a block takes
    runs, sizes, rows = 30, [5, 0, 12], {}
    for per_block in (1, 7, 1000):
        starts, lanes = [], [[], [], []]
        for start, blocks in lane_blocks((3, 2**40), runs, sizes, per_block):
            starts.append(start)
            assert [b.shape for b in blocks] == [(min(per_block, runs - start), s) for s in sizes]
            for lane, block in zip(lanes, blocks):
                lane.append(block)
        assert starts == list(range(0, runs, per_block))
        rows[per_block] = [np.concatenate(lane).tolist() for lane in lanes]
    assert rows[1] == rows[7] == rows[1000]
    for lane, size in enumerate(sizes):
        whole = np.random.default_rng((3, 2**40, lane)).bit_generator.random_raw(runs * size)
        assert rows[1][lane] == whole.reshape(runs, size).tolist()


def _mixed_draws(tape: Tape) -> list:
    """random(k), a scalar random() and integers(0, 2, size=k), read off a one-run tape."""
    out = []
    for k in (1, 3, 5, 2, 7):
        out += [tape.random(k)[0].tolist(), tape.random(1)[0].tolist(), tape.integers(k)[0].tolist()]
    return out


def _reference_draws(bits) -> list:
    """The same draws by the tapes' rule, one raw word of `bits` each."""
    out = []
    for k in (1, 3, 5, 2, 7):
        out += [_doubles(bits.random_raw(k)), _doubles(bits.random_raw(1)), _bits(bits.random_raw(k))]
    return out


def test_a_tape_from_its_state_draws_as_the_seeded_tape():
    # over 12 seeds of 1-3 entries (some at least 2**32) and every lane, a
    # row of raw outputs reads by the word rule off the raw stream of that
    # lane's seeded generator, whether a batch of one drew it or a loop of 8
    # runs, 3 a block, drew it as run r (the stream advanced r * 64 words)
    seeds = [(k, 2**33 + k, 11) if k % 3 else (k,) if k % 2 else (k, 5) for k in range(12)]
    for seed in seeds:
        single = next(lane_blocks(seed, 1, [64, 64, 64], 1))[1]
        loop = [np.concatenate(lane) for lane in zip(
            *(blocks for _, blocks in lane_blocks(seed, 8, [64, 64, 64], 3)))]
        for lane in (0, 1, 2):
            expected = _reference_draws(np.random.default_rng(stream(seed, lane)).bit_generator)
            assert _mixed_draws(Tape(single[lane])) == expected
            for r in range(8):
                bits = np.random.default_rng(stream(seed, lane)).bit_generator
                bits.advance(r * 64)
                assert _mixed_draws(Tape(loop[lane][r:r + 1])) == _reference_draws(bits)


def test_per_run_counts_move_each_cursor_as_numpy_would():
    # runs that draw different counts, then draw alike again: each run's
    # cursor reads on in its own row of the lane's raw stream, one word per draw
    counts = np.array([0, 1, 2, 3, 4, 7])
    tape = Tape(next(lane_blocks((9,), 6, [0, 40, 0], 6))[1][1])
    first = tape.integers(3)
    picked = tape.integers(counts, np.arange(7) - (np.arange(6)[:, None] % 2))
    doubles = tape.random(counts[::-1], np.zeros((6, 1), dtype=np.intp))
    after = tape.integers(5), tape.random(2)
    assert tape.word.tolist() == (3 + counts + counts[::-1] + 7).tolist()
    for r in range(6):
        bits = np.random.default_rng((9, 1)).bit_generator
        bits.advance(r * 40)
        assert first[r].tolist() == _bits(bits.random_raw(3))
        drawn = _bits(bits.random_raw(counts[r]))
        offsets = np.arange(7) - r % 2
        assert [picked[r, j] for j, at in enumerate(offsets) if 0 <= at < counts[r]] == [
            drawn[at] for at in offsets if 0 <= at < counts[r]]
        doubles_drawn = _doubles(bits.random_raw(counts[::-1][r]))
        if counts[::-1][r]:
            assert doubles[r, 0] == doubles_drawn[0]
        assert after[0][r].tolist() == _bits(bits.random_raw(5))
        assert after[1][r].tolist() == _doubles(bits.random_raw(2))


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
def test_loop_runs_equal_batches_of_one(backend, c):
    """Every run r of a loop (its rows of the lanes' streams, played with the
    other runs of its block) equals the batch of one played on its lanes'
    streams advanced r * size words, and run 0 equals the public single run
    on the loop's seed: every sender against every receiver script, both
    simulators, both backends and both choices, across block boundaries."""
    runs, n, seed, strings = 19, 6, (23, 4), ((0, 1), (1, 1))
    receivers = [*RECEIVER_SCRIPTS.values(), ComplementCommitReceiver, LyingReceiver]
    plays = [(s, r) for s in SENDER_SCRIPTS.values() for r in receivers]
    plays += [(_ExtractingSender, r) for r in receivers]
    if backend == "ideal":  # the rushing simulator runs over ideal commitments only
        plays += [(s, _RushingReceiver) for s in SENDER_SCRIPTS.values()]
    batch, reasons = _Batch(*strings, n, backend, c), set()
    sizes = batch.words(*plays)
    for start, blocks in lane_blocks(seed, runs, sizes, 7):  # three blocks: 7, 7 and 5 runs
        for sender, receiver in plays:
            got = [_listed(g) for g in _batch_outcomes(batch, blocks, sender, receiver,
                                                       [seed] * len(blocks[0]))]
            assert got == [_listed(_batch_outcomes(batch, _replayed(seed, start + k, sizes),
                                                   sender, receiver, [seed])[0])
                           for k in range(len(got))]
            if start == 0:
                assert got[0] == _listed(_single_outcome(sender, receiver, strings, c, n, seed, backend))
            reasons |= {g["transcript"]["meta"].get("reason") for g in got}
    expected = {None, "check-abort", "size-abort"} | ({"commit-abort"} if backend == "protocol" else set())
    assert reasons >= expected


@pytest.mark.parametrize("backend", ["ideal", "protocol"])
def test_every_play_stays_within_its_blocks(backend, monkeypatch):
    """On every run, each tape's cursor ends within the block its play's
    word budgets make: every sender against every receiver script and both
    simulators, at n = 2, 5, 8, 10 and ell = 1, 3, 8, on both choices."""
    tapes = []

    class AuditedTape(Tape):
        def __init__(self, raw):
            super().__init__(raw)
            tapes.append(self)

    monkeypatch.setattr(ucsim, "Tape", AuditedTape)
    receivers = [*RECEIVER_SCRIPTS.values(), ComplementCommitReceiver, LyingReceiver]
    plays = [(s, r) for s in (*SENDER_SCRIPTS.values(), _ExtractingSender) for r in receivers]
    if backend == "ideal":  # the rushing simulator runs over ideal commitments only
        plays += [(s, _RushingReceiver) for s in SENDER_SCRIPTS.values()]
    runs, codes = 100, set()
    choice = (np.arange(runs) % 2).astype(np.uint8)
    for n in (2, 5, 8, 10):
        for ell in (1, 3, 8):
            batch = _Batch((0,) * ell, (1,) * ell, n, backend)
            for sender, receiver in plays:
                tapes.clear()
                _, blocks = next(lane_blocks((43, n), runs, batch.words((sender, receiver)), runs))
                code = batch.play(blocks, sender, receiver, choice)[2]
                codes |= set(code.tolist())
                for lane, tape in enumerate(tapes):
                    assert (np.asarray(tape.word) <= tape.raw.shape[1]).all(), (
                        sender, receiver, n, ell, lane)
    assert codes == ({0, 1, 2, 3} if backend == "protocol" else {0, 2, 3})


@pytest.mark.parametrize("corruption, script, c", [
    ("receiver", "honest", 1), ("sender", "random-announce", 0)])
def test_demo_runs_equal_the_public_single_runs(corruption, script, c, monkeypatch):
    """A demo's counts, its tapes drawn a block of runs at a time, are the
    counts of its runs replayed alone, run k on its lanes' streams advanced
    k * size words; run 0 is the public single runs on the demo's seed.
    Receiver demos run the protocol commitment."""
    runs, n, seed, strings = 20, 6, (23, 4), ((0, 1), (1, 1))
    monkeypatch.setattr(ucsim, "_RUNS_PER_BLOCK", 7)  # three blocks: 7, 7 and 6 runs
    demo = run_simulator_demo(corruption, script=script, runs=runs, n=n, seed=seed,
                              s0=strings[0], s1=strings[1], c=c)
    if corruption == "receiver":
        program = receiver_script(script)
        batch = _Batch(*strings, n, "protocol", c)
        plays = (SenderProgram, program), (_ExtractingSender, program)
        t = run_ot_protocol(*strings, c, n, receiver=program, seed=seed, bc_backend="protocol")
        sim = simulate_corrupted_receiver(program, *strings, n, choice=c, seed=seed)
    else:
        program = sender_script(script)
        batch = _Batch(*strings, n, "ideal", c)
        plays = (program, ReceiverProgram), (program, _RushingReceiver)
        t = run_ot_protocol(*strings, c, n, sender=program, seed=seed)
        sim = simulate_corrupted_sender(program, c, n, strings, seed=seed)
    sizes = batch.words(*plays)
    real, ideal = {}, {}
    for k in range(runs):
        for counts, play in zip((real, ideal), plays):
            code, out = batch.play(_replayed(seed, k, sizes), *play)[2:4]
            output = "abort" if code[0] else tuple(out[0].tolist())
            if k == 0:
                assert output == (ucsim._output(t) if counts is real else sim["output"])
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


@pytest.mark.parametrize("seed", [1.5, "1", None, float("nan"), np.array([1, 2]), (0, 2.0), [1, "2"]])
def test_seeds_take_only_integer_entries(seed):
    # a float or string once replayed the seed it rounded to, and None, NaN
    # or an array crashed with TypeError or ValueError
    with pytest.raises(InputError):
        run_ot_protocol((0,), (1,), 0, 8, seed=seed)
    with pytest.raises(InputError):
        stream(seed, 0)
    with pytest.raises(InputError):
        ucsim.honest_ot_completeness(4, 8, seed)


def test_numpy_integer_seed_entries_replay_their_python_ints():
    for given, plain in (((np.int64(0), np.uint32(11), np.int8(5)), (0, 11, 5)),
                         (np.uint64(2**40), 2**40), ([np.int16(7), 3], (7, 3))):
        t = run_ot_protocol((0,), (1,), 1, 8, seed=given)
        assert _view(t) == _view(run_ot_protocol((0,), (1,), 1, 8, seed=plain))
        assert all(type(v) is int for v in t.seed)


@pytest.mark.parametrize("runs", [0, -5])
def test_completeness_rejects_non_positive_runs(runs):
    with pytest.raises(InputError):
        ucsim.honest_ot_completeness(runs, 8, 0)


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
    # a tape's n bits in one call are its n one-bit draws, and leave the
    # cursor where they do, on the word that the next double reads
    for seed in range(300):
        n = 2 + seed % 9
        batched, scalar = _tape(seed), _tape(seed)
        expected = [int(scalar.integers(1)[0, 0]) for _ in range(n)]
        assert batched.integers(n)[0].tolist() == expected
        assert batched.word == scalar.word == n
        assert batched.random(1)[0, 0] == scalar.random(1)[0, 0]
