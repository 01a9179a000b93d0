"""Executable ideal functionalities (cut-and-choose, commitment, oblivious
transfer), the protocols built on them, and the simulator constructions run
as seeded programs against scripted adversaries.

One engine (`_play`) plays a batch of runs at once: each phase (prepare,
bases, Born measurement, the n 2CC' steps of commit, 1CC and open with their
aborts, announce, partition, masks, decode) is a few array operations over
(runs, positions) arrays, which the party programs' hooks take and return. A
single public run is a batch of one. The simulators are party programs that
also call the ideal transfer: a rushing receiver against a corrupted sender,
an extracting sender against a corrupted receiver. Lane 0 of a run's seed
drives Born-rule measurement, the commitments and the rushing receiver, lane
1 the sender, lane 2 the receiver, so real and simulated runs abort alike.

Each lane of a seed has one stream, numpy's own PCG64 seeded as
`default_rng(seed + (lane,))` is, and each draw takes one word of it
(`tapes.Tape`). Run r of a loop reads row r of each lane's stream, drawn
`_RUNS_PER_BLOCK` rows at a time; a single run takes row 0
(`tapes.first_rows`), and a real run and its simulation read the same rows.
Where a count depends on the run, each run's cursor moves by its own count.

Scheduling is synchronous with a fixed turn order; the one adversarial
scheduling power modelled is the rushing hook used by the corrupted-sender
simulator (delay a measurement until the functionality forces a value).
Indistinguishability is checked as equality of output distributions over
seeded runs, not proven.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .onecc import encoded_vector
from .tapes import Tape, first_rows, lane_blocks, run_index, stream

MAX_POSITIONS = 10
MAX_STRING_BITS = 8
# Qubits and check probability of each conjugate-coding commitment.
COMMIT_QUBITS = 10
COMMIT_CHECK_PROB = 0.2
# Runs one batch of a loop plays: their tapes are the next rows of each lane's
# stream, which keeps a loop's memory flat whatever its run count.
_RUNS_PER_BLOCK = 1000
# Why a run stopped, indexed by the engine's abort codes; code 0 completed.
_REASONS = (None, "commit-abort", "check-abort", "size-abort")


@dataclass
class ExecutionTranscript:
    seed: tuple
    outputs: dict
    aborted: bool
    meta: dict


# ---------------------------------------------------------------------------
# ideal functionalities


def ideal_one_cc(sender_bit: int, chooser_bit: int) -> dict:
    """The sender learns the choice; the chooser learns the bit only on 1."""
    if sender_bit not in (0, 1) or chooser_bit not in (0, 1):
        raise InputError("functionality inputs must be bits")
    return {"sender_learns": chooser_bit,
            "chooser_receives": sender_bit if chooser_bit == 1 else None}


def one_cc_table() -> list[dict]:
    return [{"sender_in": x, "chooser_in": c, **ideal_one_cc(x, c)}
            for x in (0, 1) for c in (0, 1)]


def _as_bits(values, message: str) -> np.ndarray:
    """`values` as an array, or an input error if an entry is not 0 or 1."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind != "b" and np.count_nonzero(values >> 1 if kind in "iu"
                                        else (values != 0) & (values != 1)):
        raise InputError(message)
    return values


def ideal_ot(strings: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The transfer on every run: string c[r] of run r's pair strings[r]."""
    return strings[run_index(len(c)), c]


class IdealBitCommitment:
    """Commit/open state machine over a (runs, positions) array of
    commitments; the backing simulator can read the bits. It draws nothing."""

    _bits, _state = None, "empty"
    words = staticmethod(lambda n: 0)  # lane-0 words a run's commitments draw

    def __init__(self, tape: Tape | None = None):
        self._tape = tape

    def _accept(self, bits) -> np.ndarray:
        if self._state != "empty":
            raise InputError("commitment already in use")
        return _as_bits(bits, "committed value must be a bit")

    def commit(self, bits):
        """Commits the bits. Returns where a commitment aborted, or None
        where none can, as here."""
        self._bits, self._state = self._accept(bits), "committed"

    def open(self) -> np.ndarray:
        if self._state != "committed":
            raise InputError("nothing to open")
        self._state = "opened"
        return self._bits

    def extract(self) -> np.ndarray:
        if self._bits is None:
            raise InputError("nothing committed yet")
        return self._bits


class ProtocolBitCommitment(IdealBitCommitment):
    """The conjugate-coding commitment run honestly at desk scale.

    The committer's per-position basis bits travel through the cut-and-choose
    functionality, so a simulator that runs the functionality can extract the
    committed bit from the announced hash/syndrome pair even before opening.
    Run honestly, the unchecked basis string has the announced syndrome, so it
    is its own nearest coset member, and both opening and the receiver's
    extractor (hash of the nearest syndrome-s string, xor the masked bit) on it
    return the committed bit. Commit therefore draws only what its abort rule
    reads, the check coins; opening and extraction are the ideal commitment's.
    They read junk for an aborted commitment, and are input errors when every
    one aborted.
    """

    words = staticmethod(lambda n: COMMIT_QUBITS * n)  # the check coins

    def commit(self, bits) -> np.ndarray:
        bits = self._accept(bits)
        # position after position on the lane-0 tape; a run stops at its first
        # aborted commitment, so each draws as if the earlier ones committed
        coins = self._tape.random(COMMIT_QUBITS * bits.shape[1]).reshape(*bits.shape, -1)
        # honest committer: every checked position measures to 0, no mismatch
        aborted = (coins < COMMIT_CHECK_PROB).sum(2) > 2.0 * COMMIT_CHECK_PROB * COMMIT_QUBITS
        self._bits, self._state = (None, "aborted") if aborted.all() else (bits, "committed")
        return aborted


# The commitment backend of a run's 2CC' steps, made on its lane-0 tape.
COMMITMENTS = {"ideal": IdealBitCommitment, "protocol": ProtocolBitCommitment}


# ---------------------------------------------------------------------------
# qubit helpers (product states only; each qubit is measured at most once)


_QUBIT_STATES = np.array([[encoded_vector([bit], [basis]) for basis in (0, 1)]
                          for bit in (0, 1)])
_QUBIT_STATES.setflags(write=False)


def qubit_state(bit: int, basis: int) -> np.ndarray:
    """|bit>_basis, shared and read-only."""
    return _QUBIT_STATES[int(bit), int(basis)]


# P(outcome 0) of the qubit |bit>_basis measured in basis b, at [bit, basis, b].
_BORN_P0 = np.array([[min(max(float(abs(np.vdot(qubit_state(0, b), psi)) ** 2), 0.0), 1.0)
                      for b in (0, 1)] for psi in _QUBIT_STATES.reshape(4, 2)]).reshape(2, 2, 2)


def _measure(qubits: tuple, bases, uniforms: np.ndarray) -> np.ndarray:
    """Born-rule outcomes (True for 1) of qubits (bits, bases) measured in
    `bases`: one uniform per qubit, outcome 0 below its probability of 0."""
    return uniforms >= _BORN_P0[qubits[0], qubits[1], bases]


def _hash(mask: np.ndarray, parts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(runs, ell, 2): the (runs, ell, n) mask's hash of 0/1 `values` on each side."""
    return (mask @ (parts & values[:, :, None])) & 1


_SIDES = np.array([0, 1])


class _Kept:
    """Each run's unchecked positions (`mask`), their `count` and each one's
    `rank` among them: its draw's offset where one value is drawn per position."""

    def __init__(self, chosen: np.ndarray, ranked: np.ndarray, count: np.ndarray):
        self.mask = chosen == 0
        self.rank = np.arange(chosen.shape[1]) - ranked  # ranked: checked ones so far
        self.count = count

    def draw(self, tape: Tape) -> np.ndarray:
        """`count` bits on each run, one at each of its kept positions."""
        return tape.integers(self.count, self.rank)

    def draw_rows(self, tape: Tape, rows: int) -> np.ndarray:
        """`rows` rows of `count` bits on each run, row after row, as (runs, rows, n)."""
        drawn = [self.draw(tape)[:, None] for _ in range(rows)]
        return drawn[0] if rows == 1 else np.concatenate(drawn, axis=1)

    def split(self, side: np.ndarray) -> np.ndarray:
        """The partition (I0, I1) side bits make: (runs, n, 2), True in I_b."""
        return self.mask[:, :, None] & (side[:, :, None] == _SIDES)


# ---------------------------------------------------------------------------
# adversary programs (honest defaults; scripts override single hooks)


class SenderProgram:
    """Alice side of the transfer protocol for a batch of runs; hooks mirror
    the message order and take and return (runs, n) arrays. `strings` is the
    (2, ell) array of both strings."""

    name = "honest"
    # words of its tape a run can draw: prepare, select and masks
    words = staticmethod(lambda n, ell: 3 * n + ell * n)

    def __init__(self, tape: Tape, n: int, strings: np.ndarray):
        self.tape = tape
        self.n = n
        self.strings = strings
        self.ell = strings.shape[1]
        self.memory: dict = {}

    @property
    def party(self) -> str:
        return "sender:" + self.name

    def prepare(self) -> tuple:
        """The qubits |x_i>_theta_i, as the pair (x, theta)."""
        drawn = self.tape.integers(2 * self.n)
        self.memory.update(x=drawn[:, :self.n], theta=drawn[:, self.n:])
        return self.memory["x"], self.memory["theta"]

    def select_bits(self) -> np.ndarray:
        """Every position's 1CC choice, in one draw."""
        return self.tape.integers(self.n)

    def observe_commit(self, bc) -> None:
        """A real sender learns only that the positions are committed."""

    def observe_check(self, revealed: np.ndarray, opened_bases: np.ndarray) -> np.ndarray:
        """Whether a check at each position aborts; unchecked positions read 0."""
        return (opened_bases == self.memory["theta"]) & (revealed != self.memory["x"])

    def announce_bases(self, kept: _Kept) -> np.ndarray:
        return self.memory["theta"]

    def masks(self, kept: _Kept, parts: np.ndarray):
        """The hash mask (runs, ell, n) and both masked strings (runs, ell, 2)."""
        mask = kept.draw_rows(self.tape, self.ell)
        return mask, self.strings.T ^ _hash(mask, parts, self.memory["x"])


class FixedStateSender(SenderProgram):
    """Prepares the fixed configuration x = 0...0 in alternating bases
    0, 1, 0, ... instead of a random one."""

    name = "fixed-state"
    words = staticmethod(lambda n, ell: n + ell * n)

    def prepare(self) -> tuple:
        x = self.memory["x"] = np.zeros((len(self.tape.raw), self.n), dtype=np.intp)
        theta = self.memory["theta"] = np.arange(self.n) % 2 + x
        return x, theta


class RandomAnnounceSender(SenderProgram):
    """Honest preparation but the announced bases are freshly random, so the
    receiver's matched set no longer tracks the real encoding."""

    name = "random-announce"
    words = staticmethod(lambda n, ell: 4 * n + ell * n)

    def announce_bases(self, kept: _Kept) -> np.ndarray:
        return kept.draw(self.tape)


class FlipMaskSender(SenderProgram):
    """Honest except the second masked string is complemented."""

    name = "flip-mask"

    def masks(self, kept, parts):
        mask, masked = super().masks(kept, parts)
        return mask, masked ^ _SIDES


class ReceiverProgram:
    """Bob side for a batch of runs, each with its own choice; hooks mirror
    the message order and take and return (runs, n) arrays."""

    name = "honest"
    lane = 2  # the seed lane of its own tape
    # words a run can draw on lane 0 (its Born-rule outcomes) and on its own tape
    words = staticmethod(lambda n: (n, n))

    def __init__(self, tape: Tape, n: int, choice: np.ndarray):
        self.tape = tape
        self.n = n
        self.choice = choice
        self.memory: dict = {}

    @property
    def party(self) -> str:
        return "receiver:" + self.name

    def choose_bases(self) -> np.ndarray:
        return self.tape.integers(self.n)

    def measure(self, qubits: tuple, bases: np.ndarray, born: Tape) -> None:
        """Measures every qubit on arrival, drawing on the run's Born-rule tape."""
        self.memory["x"] = _measure(qubits, bases, born.random(self.n))

    def commit_value(self, bases: np.ndarray) -> np.ndarray:
        return bases

    def one_cc_input(self, chosen: np.ndarray) -> np.ndarray:
        """Each position's 1CC input; only a rushing simulator reads the choice."""
        return self.memory["x"]

    def size_abort(self, total_checked: np.ndarray) -> np.ndarray:
        return total_checked > 3 * self.n // 5  # a count exceeds 3n/5 iff it exceeds its floor

    def partition(self, theta_hat_a: np.ndarray, theta_b: np.ndarray, kept: _Kept) -> np.ndarray:
        """Each kept position's side: matched bases on side c, the rest on 1 - c."""
        return (theta_hat_a != theta_b) ^ self.choice[:, None]

    def decode(self, mask, masked, parts: np.ndarray) -> np.ndarray:
        """Unmasks the string on its chosen side with its own outcomes."""
        return (masked ^ _hash(mask, parts, self.memory["x"]))[run_index(len(mask)), :, self.choice]

    def effective_choice(self) -> np.ndarray | None:
        return self.choice


class ComputationalBasesReceiver(ReceiverProgram):
    """Measures every position in the computational basis."""

    name = "computational-bases"
    words = staticmethod(lambda n: (n, 0))

    def choose_bases(self) -> np.ndarray:
        return np.zeros((len(self.tape.raw), self.n), dtype=np.intp)


class WrongPartitionReceiver(ReceiverProgram):
    """Ignores the matched set and partitions at random; no effective choice."""

    name = "wrong-partition"
    words = staticmethod(lambda n: (n, 2 * n))

    def partition(self, theta_hat_a, theta_b, kept):
        return kept.draw(self.tape)

    def effective_choice(self) -> None:
        return None


SENDER_SCRIPTS = {p.name: p for p in (SenderProgram, FixedStateSender, RandomAnnounceSender,
                                       FlipMaskSender)}
RECEIVER_SCRIPTS = {p.name: p for p in (ReceiverProgram, ComputationalBasesReceiver,
                                        WrongPartitionReceiver)}


def _script(scripts: dict, side: str, name: str):
    if name not in scripts:
        raise InputError(f"unknown {side} script '{name}'")
    return scripts[name]


def sender_script(name: str) -> type[SenderProgram]:
    return _script(SENDER_SCRIPTS, "sender", name)


def receiver_script(name: str) -> type[ReceiverProgram]:
    return _script(RECEIVER_SCRIPTS, "receiver", name)


def _as_string(bits) -> tuple:
    out = (bits,) if isinstance(bits, int) else tuple(bits)
    if not 1 <= len(out) <= MAX_STRING_BITS:
        raise InputError(f"transferred strings carry 1..{MAX_STRING_BITS} bits")
    if not {0, 1}.issuperset(out):
        raise InputError("transferred strings must be bit tuples")
    return out


# ---------------------------------------------------------------------------
# simulator programs (party programs that also call the ideal transfer)


class _RushingReceiver(ReceiverProgram):
    """The corrupted-sender simulator in the receiver's seat. It measures a
    checked qubit only when the 1CC forces a value (rushing), partitions at
    random, measures every kept qubit in the announced basis, rebuilds both
    strings and hands them to the ideal transfer. It draws everything on the
    run's lane-0 tape, next to ideal commitments, which draw nothing there.
    """

    party = "simulator"
    lane = 0
    words = staticmethod(lambda n: (3 * n, 0))  # bases, a double each, a bit where kept

    def measure(self, qubits, bases, born) -> None:
        self.memory.update(qubits=qubits, p0=_BORN_P0[qubits[0], qubits[1], bases])

    def one_cc_input(self, chosen):
        # one draw per checked position, in order: `_measure` on that qubit
        rank = np.add.accumulate(chosen, axis=1, dtype=np.intp)
        self.memory["x"] = self.tape.random(rank[:, -1], rank - 1) >= self.memory["p0"]
        return self.memory["x"]

    def partition(self, theta_hat_a, theta_b, kept):
        side = kept.draw(self.tape)
        drawn = self.tape.random(kept.count, kept.rank)
        self.memory["x"] = np.where(kept.mask, _measure(self.memory["qubits"], theta_hat_a, drawn),
                                    self.memory["x"])
        return side

    def decode(self, mask, masked, parts):
        strings = self.memory["extracted"] = (masked ^ _hash(mask, parts, self.memory["x"]))
        return ideal_ot(strings.transpose(0, 2, 1), self.choice)


class _ExtractingSender(SenderProgram):
    """The corrupted-receiver simulator in the sender's seat. It plays the
    honest sender on the honest sender's tape, reads every commitment through
    extract(), infers the receiver's effective choice ĉ from its partition
    and masks only the ideal transfer's answer for ĉ; the other masked
    string is random. The strings stay with the functionality: only
    `ideal_ot` reads them.
    """

    party = "simulator"
    words = staticmethod(lambda n, ell: 3 * n + ell * n + ell)

    def observe_commit(self, bc) -> None:
        self.memory["committed"] = bc.extract()

    def masks(self, kept, parts):
        matched = kept.mask & (self.memory["theta"] == self.memory["committed"])
        side0, side1 = parts[..., 0], parts[..., 1]
        within0, within1 = ~(side0 & ~matched).any(1), ~(side1 & ~matched).any(1)
        more0 = (matched & side0).sum(1) >= (matched & side1).sum(1)
        c_hat = self.memory["c_hat"] = np.where((side0 == matched).all(1), 0, np.where(
            (side1 == matched).all(1), 1, np.where(
                # degenerate partitions: prefer the side whose positions the
                # receiver actually knows (all bases matched)
                within0 != within1, ~within0, ~more0))).astype(np.intp)
        runs = run_index(len(c_hat))
        value = ideal_ot(np.broadcast_to(self.strings, (len(c_hat), 2, self.ell)), c_hat)
        mask = kept.draw_rows(self.tape, self.ell)
        masked = np.repeat(self.tape.integers(self.ell)[:, :, None], 2, axis=2)  # the other: random
        masked[runs, :, c_hat] = value ^ _hash(mask, parts, self.memory["x"])[runs, :, c_hat]
        return mask, masked


# ---------------------------------------------------------------------------
# the engine: one message flow for real runs and simulations


def _play(alice: SenderProgram, bob: ReceiverProgram, born: Tape, commitment):
    """Plays every run of a batch. Returns each run's abort code (an index
    into `_REASONS`), the receiver's output bits (junk where a run aborted)
    and the number of checked positions."""
    qubits = alice.prepare()
    if qubits[0].shape[1] != alice.n:
        raise InputError("sender script must supply one qubit per position")
    theta_b = bob.choose_bases()
    bob.measure(qubits, theta_b, born)
    chosen = alice.select_bits()  # the 1CC choices: 1 checks the position
    ranked = np.add.accumulate(chosen, axis=1, dtype=np.intp)  # checked so far
    checked = ranked[:, -1]

    # the n 2CC' steps: commit, 1CC (the chooser learns the receiver's bit
    # only where it checks), and open only where it checks
    bc = commitment(born)
    commit_aborts = bc.commit(bob.commit_value(theta_b))
    if commit_aborts is not None and commit_aborts.all():  # nothing to open
        return np.ones_like(checked), np.zeros((len(checked), alice.ell), np.intp), checked
    alice.observe_commit(bc)
    revealed = _as_bits(bob.one_cc_input(chosen), "functionality inputs must be bits") & chosen
    check_aborts = chosen & alice.observe_check(revealed, bc.open() & chosen)
    code = 3 * bob.size_abort(checked)
    code[check_aborts.any(axis=1)] = 2  # a failed check stops a run before its size test
    if commit_aborts is not None and commit_aborts.any():
        # a run stops at its first abort, a commitment's before its check
        stops = commit_aborts | check_aborts
        stop = run_index(len(stops)), stops.argmax(axis=1)
        code = np.where(commit_aborts[stop], 1, code)
    if np.count_nonzero(code) == len(code):  # no run is left to play
        return code, np.zeros((len(code), alice.ell), np.intp), checked

    kept = _Kept(chosen, ranked, alice.n - checked)
    parts = kept.split(bob.partition(alice.announce_bases(kept), theta_b, kept))
    mask, masked = alice.masks(kept, parts)
    return code, bob.decode(mask, masked, parts), checked


@functools.cache
def _words(plays: tuple, n: int, ell: int, commitment) -> list[int]:
    """Each lane's block width: the most any (sender, receiver) play draws."""
    sizes = [0, 0, 0]
    for sender, receiver in plays:
        need = [receiver.words(n)[0] + commitment.words(n), sender.words(n, ell), 0]
        need[receiver.lane] += receiver.words(n)[1]
        sizes = [max(a, b) for a, b in zip(sizes, need)]
    return sizes


class _Batch:
    """Runs of one transfer (strings, position count and commitment backend),
    each with its own choice and tapes. The constructor checks the inputs."""

    def __init__(self, s0, s1, n: int, bc_backend: str, c=0):
        strings = (_as_string(s0), _as_string(s1))
        if len(strings[0]) != len(strings[1]):
            raise InputError("the two strings must have equal length")
        if c not in (0, 1):
            raise InputError("choice must be a bit")
        if not 2 <= n <= MAX_POSITIONS:
            raise InputError(f"position count must be in 2..{MAX_POSITIONS}")
        if bc_backend not in COMMITMENTS:
            raise InputError("commitment backend must be 'ideal' or 'protocol'")
        self.strings = np.array(strings, dtype=np.intp)
        self.n, self.c, self.commitment = n, c, COMMITMENTS[bc_backend]

    def words(self, *plays) -> list[int]:
        return _words(plays, self.n, self.strings.shape[1], self.commitment)

    def play(self, blocks, sender, receiver, choice=None):
        """Plays sender against receiver on fresh cursors over `blocks`;
        returns both programs, the abort codes, outputs and checked counts."""
        tapes = [Tape(block) for block in blocks]
        if choice is None:
            choice = np.full(len(blocks[0]), self.c, dtype=np.intp)
        alice = sender(tapes[1], self.n, self.strings)
        bob = receiver(tapes[receiver.lane], self.n, choice)
        return (alice, bob, *_play(alice, bob, tapes[0], self.commitment))

    def single(self, seed, sender, receiver):
        """One run on `seed` as a batch of one: its transcript, both programs
        and its checked count."""
        rows, choice = first_rows(seed, self.words((sender, receiver))), np.array([self.c], np.intp)
        alice, bob, code, out, checked = self.play(rows, sender, receiver, choice)
        reason = _REASONS[code[0]]
        meta = {"parties": {"alice": alice.party, "bob": bob.party}}
        if reason is None:
            outputs = {"alice": None, "bob": tuple(out[0].tolist())}
        else:
            meta["reason"] = reason
            outputs = {"alice": None if reason == "size-abort" else "abort", "bob": "abort"}
        t = ExecutionTranscript(stream(seed, 0), outputs, reason is not None, meta)
        return t, alice, bob, int(checked[0])


def _output(t: ExecutionTranscript):
    return "abort" if t.aborted else t.outputs["bob"]


def run_ot_protocol(s0, s1, c: int, n: int, *, sender=None, receiver=None, seed=0,
                    bc_backend: str = "ideal") -> ExecutionTranscript:
    """One seeded execution; scripted parties replace the honest programs."""
    t, _, _, checked = _Batch(s0, s1, n, bc_backend, c).single(
        seed, sender or SenderProgram, receiver or ReceiverProgram)
    if not t.aborted:
        t.meta["checked"] = checked
    return t


def simulate_corrupted_sender(script, c: int, n: int, strings: tuple, seed=0) -> dict:
    """Runs the scripted sender against the rushing receiver: checked
    positions are measured only when the functionality forces a value,
    everything else after the announcement, in the announced bases. Both
    strings are then reconstructed and handed to the ideal transfer.
    """
    t, _, bob, _ = _Batch(*strings, n, "ideal", c).single(seed, script, _RushingReceiver)
    if not t.aborted:
        t.meta["extracted"] = tuple(map(tuple, bob.memory["extracted"][0].T.tolist()))
    return {"transcript": t, "extracted": t.meta.get("extracted"), "output": _output(t)}


def simulate_corrupted_receiver(script, s0, s1, n: int, *, choice: int = 0, seed=0,
                                bc_backend: str = "protocol") -> dict:
    """Runs the scripted receiver against the extracting sender, which
    simulates the honest sender, extracts the committed bases from the
    commitment instances, infers the receiver's effective choice from its
    partition, and completes the run with the ideal transfer's answer for
    that choice.
    """
    t, alice, bob, _ = _Batch(s0, s1, n, bc_backend, choice).single(seed, _ExtractingSender, script)
    effective = bob.effective_choice()
    return {"transcript": t, "inferred_choice": None if t.aborted else int(alice.memory["c_hat"][0]),
            "effective_choice": None if effective is None else int(effective[0]),
            "output": _output(t)}


def honest_ot_completeness(runs: int, n: int, seed) -> dict:
    """Completed and correct honest transfers at choice k % 2, run k on row k
    of `seed`'s lane streams."""
    batch, honest = _Batch((0,), (1,), n, "ideal"), (SenderProgram, ReceiverProgram)
    completed = correct = 0
    for start, blocks in lane_blocks(seed, runs, batch.words(honest), _RUNS_PER_BLOCK):
        choice = np.arange(start, start + len(blocks[0])) % 2
        code, out = batch.play(blocks, *honest, choice)[2:4]
        completed += int((code == 0).sum())
        correct += int(((code == 0) & (out[:, 0] == choice)).sum())
    return {"runs": runs, "completed": completed, "correct": correct}


# ---------------------------------------------------------------------------
# the comparison demo


def _label_counts(code: np.ndarray, out: np.ndarray) -> Counter:
    """Runs per environment-visible output: "abort", or the output's bits."""
    ell = out.shape[1]
    value = np.where(code == 0, (out.astype(np.intp) << np.arange(ell - 1, -1, -1)).sum(1), -1)
    keys, counts = np.unique(value, return_counts=True)
    return Counter({"abort" if k < 0 else format(k, f"0{ell}b"): v
                    for k, v in zip(keys.tolist(), counts.tolist())})


def _compare_counts(real: dict, ideal: dict, runs: int) -> dict:
    rows, worst, ok = {}, 0.0, True
    for cat in sorted(set(real) | set(ideal)):
        k1, k2 = real.get(cat, 0), ideal.get(cat, 0)
        pooled = (k1 + k2) / (2.0 * runs)
        sigma = math.sqrt(max(pooled * (1.0 - pooled) * 2.0 / runs, 0.0))
        diff = abs(k1 - k2) / runs
        row_ok = diff <= 3.0 * sigma + 1e-12 if sigma > 0 else k1 == k2
        rows[cat] = {"real": k1, "ideal": k2, "sigma": sigma, "ok": row_ok}
        ok = ok and row_ok
        if sigma > 0:
            worst = max(worst, diff / sigma)
    return {"categories": rows, "max_z": worst, "pass": ok}


def run_simulator_demo(corruption: str, *, script: str = "honest", runs: int = 1000, n: int = 8,
                       seed=0, s0=(0,), s1=(1,), c: int = 0) -> dict:
    """Real executions against the scripted adversary versus the simulator
    construction feeding the ideal functionality; reports per-output-category
    agreement of the environment-visible outputs at three sigma. Receiver
    demos run the protocol commitment.
    """
    if corruption == "sender":
        program = sender_script(script)
        batch = _Batch(s0, s1, n, "ideal", c)
        real, simulated = (program, ReceiverProgram), (program, _RushingReceiver)
    elif corruption == "receiver":
        program = receiver_script(script)
        batch = _Batch(s0, s1, n, "protocol", c)
        real, simulated = (SenderProgram, program), (_ExtractingSender, program)
    else:
        raise InputError("corruption must be 'sender' or 'receiver'")
    real_counts, ideal_counts, extraction = Counter(), Counter(), {"checked": 0, "correct": 0}
    for _, blocks in lane_blocks(seed, runs, batch.words(real, simulated), _RUNS_PER_BLOCK):
        # the real runs and their simulations read the same blocks
        real_counts += _label_counts(*batch.play(blocks, *real)[2:4])
        alice, bob, code, out, _ = batch.play(blocks, *simulated)
        ideal_counts += _label_counts(code, out)
        effective = bob.effective_choice()
        if corruption == "receiver" and effective is not None:
            done = code == 0
            extraction["checked"] += int(done.sum())
            extraction["correct"] += int((done & (alice.memory.get("c_hat") == effective)).sum())
    report = _compare_counts(real_counts, ideal_counts, runs)
    report.update(corruption=corruption, script=script, runs=runs, positions=n, choice=c)
    if corruption == "receiver":
        report["extraction"] = extraction
    return report
