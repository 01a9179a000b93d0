"""Executable ideal functionalities (cut-and-choose, commitment, oblivious
transfer), the protocols built on them, and the simulator constructions run
as seeded programs against scripted adversaries.

One engine (`_Execution`) runs the transfer's message flow over a sender
program and a receiver program; each position is one 2CC' step (commit, 1CC,
then open). The simulators are party programs that also call the ideal
transfer: a rushing receiver against a corrupted sender, an extracting sender
against a corrupted receiver. Lane 0 of a run's seed drives Born-rule
measurement, the commitments and the rushing receiver, lane 1 the sender, lane
2 the receiver, so real and simulated runs abort on the same seeds. A single
run seeds its tapes with numpy's SeedSequence; a loop of runs derives every
run's seed states in one vectorised pass of the same hash, and a real run and
its simulation build their tapes from the same states, so every tape draws the
stream that seeding it would give. Each batch of draws (bases, outcomes, 1CC
choices) is one call that consumes the tape as per-position draws would.

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

MAX_POSITIONS = 10
MAX_STRING_BITS = 8
# Qubits and check probability of each conjugate-coding commitment.
COMMIT_QUBITS = 10
COMMIT_CHECK_PROB = 0.2
# Runs whose seed states one vectorised derivation computes at a time, which
# keeps a loop's memory flat whatever its run count.
_STATE_BLOCK = 1000
# numpy's SeedSequence constants: O'Neill's seed_seq hash over a 4-word pool.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _stream(seed, lane: int):
    """Derived seed for one party's random tape; keeps runs replayable."""
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    return (*map(int, entries), lane)


def _seed_words(seed) -> list[int]:
    """`seed`'s entries as the little-endian uint32 words SeedSequence makes of
    them, so `_tape(words, lane)` draws exactly as `default_rng(_stream(seed, lane))`."""
    words = []
    for v in _stream(seed, 0)[:-1]:
        if v < 0:
            raise InputError("seeds must be non-negative integers")
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    return words


def _tape(words: list[int], lane: int) -> np.random.Generator:
    return np.random.default_rng(np.array(words + [lane], dtype=np.uint32))


def _seed_states(seeds) -> np.ndarray:
    """The (runs, 3, 4) uint64 array of
    `SeedSequence(_seed_words(seed) + [lane]).generate_state(4, np.uint64)` for
    every seed and lane 0-2, hashed for all of them at once in uint32 arrays."""
    words = [_seed_words(seed) for seed in seeds]
    lengths = np.repeat([len(w) + 1 for w in words], 3)
    # zero words past a seed's end hash as the pool fill of a short seed does
    entropy = np.zeros((len(words), 3, max(4, lengths.max(initial=0))), dtype=np.uint32)
    for k, w in enumerate(words):
        entropy[k, :, :len(w) + 1] = [w + [lane] for lane in range(3)]
    entropy = entropy.reshape(-1, entropy.shape[-1])

    def hasher(const: int, mult: int):
        def hashmix(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & 0xFFFFFFFF
            value = value * np.uint32(const)
            return value ^ value >> np.uint32(16)
        return hashmix

    def mix(x, y):
        out = _MIX_L * x - _MIX_R * y
        return out ^ out >> np.uint32(16)

    hashmix = hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[:, i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, entropy.shape[1]):
        live = lengths > src
        for dst in range(4):
            pool[dst] = np.where(live, mix(pool[dst], hashmix(entropy[:, src])), pool[dst])
    hashmix = hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=-1)
    return state.astype("<u4").view("<u8").astype(np.uint64).reshape(len(words), 3, 4)


@functools.cache
def _state_seed() -> type:
    """numpy's seed-sequence interface over one precomputed PCG64 state, made
    on first use so that importing this module does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for its (4, uint64) seed state only

    return StateSeed


def _state_tape(state: np.ndarray) -> np.random.Generator:
    """The tape `_tape` builds for the words and lane whose seed state this is."""
    return np.random.Generator(np.random.PCG64(_state_seed()(state)))


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
    return {
        "sender_learns": chooser_bit,
        "chooser_receives": sender_bit if chooser_bit == 1 else None,
    }


def one_cc_table() -> list[dict]:
    rows = []
    for x in (0, 1):
        for c in (0, 1):
            out = ideal_one_cc(x, c)
            rows.append({"sender_in": x, "chooser_in": c, **out})
    return rows


def ideal_ot(strings: tuple, c: int):
    if c not in (0, 1):
        raise InputError("choice must be a bit")
    return strings[c]


class IdealBitCommitment:
    """Commit/open state machine; the backing simulator can read the bit."""

    _bit = None
    _state = "empty"

    def _accept(self, bit: int) -> None:
        if self._state != "empty":
            raise InputError("commitment already in use")
        if bit not in (0, 1):
            raise InputError("committed value must be a bit")

    def commit(self, bit: int) -> str:
        self._accept(bit)
        self._bit = int(bit)
        self._state = "committed"
        return "committed"

    def open(self):
        if self._state != "committed":
            raise InputError("nothing to open")
        self._state = "opened"
        return self._bit

    def extract(self) -> int:
        if self._bit is None:
            raise InputError("nothing committed yet")
        return self._bit


class ProtocolBitCommitment(IdealBitCommitment):
    """The conjugate-coding commitment run honestly at desk scale.

    The committer's per-position basis bits travel through the cut-and-choose
    functionality, so a simulator that runs the functionality can extract the
    committed bit from the announced hash/syndrome pair even before opening.
    Run honestly, the unchecked basis string has the announced syndrome, so it
    is its own nearest coset member, and both opening and `extract_commit_bit`
    on it return the committed bit. Commit therefore makes the protocol's
    draws (bases, checked positions, hash member) and applies its abort rule;
    opening and extraction are the ideal commitment's.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def commit(self, bit: int) -> str:
        self._accept(bit)
        self._rng.integers(0, 2, size=COMMIT_QUBITS)  # the bases theta
        n_checked = int((self._rng.random(COMMIT_QUBITS) < COMMIT_CHECK_PROB).sum())
        # honest committer: every checked position measures to 0, no mismatch
        if n_checked > 2.0 * COMMIT_CHECK_PROB * COMMIT_QUBITS:
            self._state = "aborted"
            return "abort"
        self._rng.integers(0, 2**(COMMIT_QUBITS - n_checked))  # the hash member
        return super().commit(bit)


# The maker of one fresh commitment on a run's lane-0 tape, per backend.
COMMITMENTS = {"ideal": lambda _rng: IdealBitCommitment(), "protocol": ProtocolBitCommitment}


# ---------------------------------------------------------------------------
# two-bit cut-and-choose from commitment + one-bit cut-and-choose


def _two_cc_step(bc, s0: int, c: int, s1_for, position: int):
    """One 2CC' step at a transfer position: the committer commits s0 to
    `bc`, the 1CC passes s1_for(position, c) under the choice c, and on c = 1
    the commitment is opened. Returns (c, revealed s1, opened s0): c is None
    when the commitment aborts, and opened is None for c = 0.
    """
    if bc.commit(s0) == "abort":
        return None, None, None
    revealed = ideal_one_cc(sender_bit=s1_for(position, c), chooser_bit=c)["chooser_receives"]
    if c == 0:
        return c, revealed, None
    return c, revealed, bc.open()


# ---------------------------------------------------------------------------
# qubit helpers (product states only; each qubit is measured at most once)


_QUBIT_STATES = np.array([[encoded_vector([bit], [basis]) for basis in (0, 1)]
                          for bit in (0, 1)])
_QUBIT_STATES.setflags(write=False)


def qubit_state(bit: int, basis: int) -> np.ndarray:
    """|bit>_basis, shared and read-only."""
    return _QUBIT_STATES[int(bit), int(basis)]


# P(outcome 0) of the qubit with state index 2·bit + basis, measured in basis b.
_BORN_P0 = np.array([[min(max(float(abs(np.vdot(qubit_state(0, b), psi)) ** 2), 0.0), 1.0)
                      for b in (0, 1)] for psi in _QUBIT_STATES.reshape(4, 2)])


def _measure(qubits, bases, rng: np.random.Generator):
    """Born-rule outcomes (True for 1) of qubits, a numpy array or scalar,
    measured in `bases`: one uniform draw per qubit, in order, with outcome 0
    below the qubit's probability of 0."""
    return rng.random(qubits.shape or None) >= _BORN_P0[qubits, bases]


def _xor_hash(bits, mask: np.ndarray, positions, values) -> tuple:
    """`bits` XOR the mask's hash of `values` restricted to `positions`."""
    v = values.tolist()
    return tuple(a ^ (sum(row[p] & v[p] for p in positions) & 1)
                 for a, row in zip(bits, mask.tolist()))


def _random_partition(rng: np.random.Generator, nhat: int) -> tuple[tuple, tuple]:
    side = rng.integers(0, 2, size=nhat).tolist()
    return (tuple(j for j in range(nhat) if side[j] == 0),
            tuple(j for j in range(nhat) if side[j] == 1))


# ---------------------------------------------------------------------------
# adversary programs (honest defaults; scripts override single hooks)


class SenderProgram:
    """Alice side of the transfer protocol; hooks mirror the message order."""

    name = "honest"

    def __init__(self, rng: np.random.Generator, n: int, strings: tuple):
        self.rng = rng
        self.n = n
        self.strings = strings
        self.ell = len(strings[0])
        self.memory: dict = {}

    @property
    def party(self) -> str:
        return "sender:" + self.name

    def prepare(self) -> np.ndarray:
        """The qubits |x_i>_theta_i, as state indices 2·x_i + theta_i."""
        x, theta = self.rng.integers(0, 2, size=(2, self.n)).astype(np.uint8)
        self.memory["x"] = x
        self.memory["theta"] = theta
        return 2 * x + theta

    def select_bits(self) -> np.ndarray:
        """Every position's 1CC choice, in one draw."""
        return self.rng.integers(0, 2, size=self.n)

    def observe_commit(self, i: int, bc) -> None:
        """A real sender learns only that position i is committed."""

    def observe_check(self, i: int, revealed_x: int, opened_basis: int) -> str | None:
        if opened_basis == self.memory["theta"][i] and revealed_x != self.memory["x"][i]:
            return "abort"
        return None

    def announce_bases(self, kept: np.ndarray) -> np.ndarray:
        return self.memory["theta"][kept]

    def masks(self, kept: np.ndarray, i0, i1) -> tuple[np.ndarray, tuple, tuple]:
        nhat = len(kept)
        mask = self.rng.integers(0, 2, size=(self.ell, nhat)).astype(np.uint8)
        x_hat = self.memory["x"][kept]
        return (mask, _xor_hash(self.strings[0], mask, i0, x_hat),
                _xor_hash(self.strings[1], mask, i1, x_hat))


class FixedStateSender(SenderProgram):
    """Prepares the fixed configuration x = 0...0 in alternating bases
    0, 1, 0, ... instead of a random one."""

    name = "fixed-state"

    def prepare(self) -> np.ndarray:
        x = self.memory["x"] = np.zeros(self.n, dtype=np.uint8)
        theta = self.memory["theta"] = np.arange(self.n, dtype=np.uint8) % 2
        return 2 * x + theta


class RandomAnnounceSender(SenderProgram):
    """Honest preparation but the announced bases are freshly random, so the
    receiver's matched set no longer tracks the real encoding."""

    name = "random-announce"

    def announce_bases(self, kept: np.ndarray) -> np.ndarray:
        return self.rng.integers(0, 2, size=len(kept)).astype(np.uint8)


class FlipMaskSender(SenderProgram):
    """Honest except the second masked string is complemented."""

    name = "flip-mask"

    def masks(self, kept, i0, i1):
        mask, m0, m1 = super().masks(kept, i0, i1)
        return mask, m0, tuple(b ^ 1 for b in m1)


class ReceiverProgram:
    """Bob side; hooks mirror the message order."""

    name = "honest"

    def __init__(self, rng: np.random.Generator, n: int, choice: int):
        self.rng = rng
        self.n = n
        self.choice = int(choice)
        self.memory: dict = {}

    @property
    def party(self) -> str:
        return "receiver:" + self.name

    def choose_bases(self) -> np.ndarray:
        return self.rng.integers(0, 2, size=self.n).astype(np.uint8)

    def measure(self, qubits: np.ndarray, bases: np.ndarray, rng: np.random.Generator) -> None:
        """Measures every qubit on arrival, drawing on the run's Born-rule tape."""
        self.memory["x"] = _measure(qubits, bases, rng).astype(np.uint8)

    def commit_value(self, i: int, basis: int) -> int:
        return basis

    def one_cc_input(self, i: int, chooser_bit: int) -> int:
        """Position i's 1CC input; only a rushing simulator reads the choice."""
        return int(self.memory["x"][i])

    def size_abort(self, total_checked: int) -> bool:
        return total_checked > 3 * self.n / 5

    def partition(self, theta_hat_a: np.ndarray, theta_hat_b: np.ndarray, nhat: int):
        same = (theta_hat_a == theta_hat_b).tolist()
        sides = tuple(j for j in range(nhat) if same[j]), tuple(j for j in range(nhat) if not same[j])
        return sides if self.choice == 0 else sides[::-1]

    def decode(self, mask, m0, m1, x_hat_b: np.ndarray, i0, i1) -> tuple:
        return _xor_hash((m0, m1)[self.choice], mask, (i0, i1)[self.choice], x_hat_b)

    def effective_choice(self) -> int | None:
        return self.choice


class ComputationalBasesReceiver(ReceiverProgram):
    """Measures every position in the computational basis."""

    name = "computational-bases"

    def choose_bases(self) -> np.ndarray:
        return np.zeros(self.n, dtype=np.uint8)


class WrongPartitionReceiver(ReceiverProgram):
    """Ignores the matched set and partitions at random; no effective choice."""

    name = "wrong-partition"

    def partition(self, theta_hat_a, theta_hat_b, nhat):
        return _random_partition(self.rng, nhat)

    def effective_choice(self) -> None:
        return None


SENDER_SCRIPTS = {
    "honest": SenderProgram,
    "fixed-state": FixedStateSender,
    "random-announce": RandomAnnounceSender,
    "flip-mask": FlipMaskSender,
}

RECEIVER_SCRIPTS = {
    "honest": ReceiverProgram,
    "computational-bases": ComputationalBasesReceiver,
    "wrong-partition": WrongPartitionReceiver,
}


def sender_script(name: str) -> type[SenderProgram]:
    if name not in SENDER_SCRIPTS:
        raise InputError(f"unknown sender script '{name}'")
    return SENDER_SCRIPTS[name]


def receiver_script(name: str) -> type[ReceiverProgram]:
    if name not in RECEIVER_SCRIPTS:
        raise InputError(f"unknown receiver script '{name}'")
    return RECEIVER_SCRIPTS[name]


def _as_string(bits) -> tuple:
    out = (int(bits),) if isinstance(bits, int) else tuple(map(int, bits))
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
    strings and hands them to the ideal transfer. Constructed on the run's
    lane-0 tape, which it uses for every draw.
    """

    party = "simulator"

    def __init__(self, rng, n, choice, transcript: ExecutionTranscript):
        super().__init__(rng, n, choice)
        self.transcript = transcript

    def measure(self, qubits, bases, rng) -> None:
        self.memory.update(qubits=qubits, p0=_BORN_P0[qubits, bases].tolist(),
                           rushed=np.zeros(self.n, dtype=bool), x=np.zeros(self.n, dtype=np.uint8))

    def one_cc_input(self, i, chooser_bit):
        if chooser_bit == 0:
            return 0
        self.memory["rushed"][i] = True
        bit = int(self.rng.random() >= self.memory["p0"][i])  # `_measure` on one qubit
        self.memory["x"][i] = bit
        return bit

    def partition(self, theta_hat_a, theta_hat_b, nhat):
        i0, i1 = _random_partition(self.rng, nhat)
        kept = ~self.memory["rushed"]
        self.memory["x"][kept] = _measure(self.memory["qubits"][kept], theta_hat_a, self.rng)
        return i0, i1

    def decode(self, mask, m0, m1, x_hat_b, i0, i1):
        strings = (_xor_hash(m0, mask, i0, x_hat_b), _xor_hash(m1, mask, i1, x_hat_b))
        out = ideal_ot(strings, self.choice)
        self.transcript.meta["extracted"] = strings
        return out


class _ExtractingSender(SenderProgram):
    """The corrupted-receiver simulator in the sender's seat. It plays the
    honest sender on the honest sender's tape, reads every commitment through
    extract(), infers the receiver's effective choice ĉ from its partition
    and masks only the ideal transfer's answer for ĉ; the other masked
    string is random. The strings stay with the functionality: only
    `ideal_ot` reads them.
    """

    party = "simulator"

    def observe_commit(self, i, bc) -> None:
        self.memory.setdefault("committed", {})[i] = bc.extract()

    def masks(self, kept, i0, i1):
        committed = [self.memory["committed"][i] for i in kept.tolist()]
        theta_hat = self.memory["theta"][kept].tolist()
        matched = {j for j in range(len(kept)) if theta_hat[j] == committed[j]}
        side0, side1 = set(i0), set(i1)
        if side0 == matched:
            c_hat = 0
        elif side1 == matched:
            c_hat = 1
        elif (side0 <= matched) != (side1 <= matched):
            # degenerate partitions: prefer the side whose positions the
            # receiver actually knows (all bases matched)
            c_hat = 0 if side0 <= matched else 1
        else:
            c_hat = 0 if len(matched & side0) >= len(matched & side1) else 1
        value = ideal_ot(self.strings, c_hat)
        self.memory["c_hat"] = c_hat
        mask = self.rng.integers(0, 2, size=(self.ell, len(kept))).astype(np.uint8)
        m_chat = _xor_hash(value, mask, (i0, i1)[c_hat], self.memory["x"][kept])
        m_other = tuple(int(b) for b in self.rng.integers(0, 2, size=self.ell))
        return (mask, m_chat, m_other) if c_hat == 0 else (mask, m_other, m_chat)


# ---------------------------------------------------------------------------
# the engine: one message flow for real runs and simulations


class _Execution:
    """One seeded run of the transfer protocol. The constructor checks the
    inputs; `play` runs the message flow over a sender and a receiver
    program and fills in the transcript. `states`, the run's row of
    `_seed_states`, builds its tapes without seeding them.
    """

    def __init__(self, s0, s1, c, n: int, seed, bc_backend="ideal", states=None):
        self.strings = (_as_string(s0), _as_string(s1))
        if len(self.strings[0]) != len(self.strings[1]):
            raise InputError("the two strings must have equal length")
        if c not in (0, 1):
            raise InputError("choice must be a bit")
        if not 2 <= n <= MAX_POSITIONS:
            raise InputError(f"position count must be in 2..{MAX_POSITIONS}")
        self.t = ExecutionTranscript(_stream(seed, 0), outputs={}, aborted=False, meta={})
        self.c, self.n, self.states = c, n, states
        if states is None:
            self.words = _seed_words(self.t.seed[:-1])
        if bc_backend not in COMMITMENTS:
            raise InputError("commitment backend must be 'ideal' or 'protocol'")
        self.new_commitment = COMMITMENTS[bc_backend]
        self.rng = self.tape(0)

    def tape(self, lane: int) -> np.random.Generator:
        if self.states is None:
            return _tape(self.words, lane)
        return _state_tape(self.states[lane])

    def _abort(self, reason: str, alice_output) -> None:
        self.t.aborted = True
        self.t.outputs = {"alice": alice_output, "bob": "abort"}
        self.t.meta["reason"] = reason

    def play(self, alice: SenderProgram, bob: ReceiverProgram) -> int | None:
        """Returns the number of checked positions, or None on an abort."""
        t, n = self.t, self.n
        t.meta["parties"] = {"alice": alice.party, "bob": bob.party}
        qubits = alice.prepare()
        if len(qubits) != n:
            raise InputError("sender script must supply one qubit per position")
        theta_b = bob.choose_bases()
        bob.measure(qubits, theta_b, self.rng)

        kept, choices = [], alice.select_bits().tolist()
        for i, basis in enumerate(theta_b.tolist()):
            bc = self.new_commitment(self.rng)
            t_i, revealed, opened = _two_cc_step(bc, bob.commit_value(i, basis), choices[i],
                                                 bob.one_cc_input, i)
            if t_i is None:
                return self._abort("commit-abort", "abort")
            alice.observe_commit(i, bc)
            if t_i == 0:
                kept.append(i)
            elif alice.observe_check(i, revealed, opened) == "abort":
                return self._abort("check-abort", "abort")
        checked = n - len(kept)
        if bob.size_abort(checked):
            return self._abort("size-abort", None)

        kept = np.array(kept, dtype=np.intp)
        theta_hat_a = np.asarray(alice.announce_bases(kept), dtype=np.uint8)
        i0, i1 = bob.partition(theta_hat_a, theta_b[kept], len(kept))
        mask, m0, m1 = alice.masks(kept, i0, i1)
        out = bob.decode(mask, m0, m1, bob.memory["x"][kept], i0, i1)
        t.outputs = {"alice": None, "bob": out}
        return checked


def _output(t: ExecutionTranscript):
    return "abort" if t.aborted else t.outputs["bob"]


def _run_real(run: _Execution, sender=None, receiver=None) -> ExecutionTranscript:
    alice = (sender or SenderProgram)(run.tape(1), run.n, run.strings)
    bob = (receiver or ReceiverProgram)(run.tape(2), run.n, run.c)
    checked = run.play(alice, bob)
    if checked is not None:
        run.t.meta["checked"] = checked
    return run.t


def run_ot_protocol(s0, s1, c: int, n: int, *, sender=None, receiver=None, seed=0,
                    bc_backend: str = "ideal") -> ExecutionTranscript:
    """One seeded execution; scripted parties replace the honest programs."""
    return _run_real(_Execution(s0, s1, c, n, seed, bc_backend), sender, receiver)


def _simulate_sender(run: _Execution, script) -> dict:
    alice = script(run.tape(1), run.n, run.strings)
    bob = _RushingReceiver(run.rng, run.n, run.c, run.t)
    run.play(alice, bob)
    return {"transcript": run.t, "extracted": run.t.meta.get("extracted"), "output": _output(run.t)}


def simulate_corrupted_sender(script, c: int, n: int, strings: tuple, seed=0) -> dict:
    """Runs the scripted sender against the rushing receiver: checked
    positions are measured only when the functionality forces a value,
    everything else after the announcement, in the announced bases. Both
    strings are then reconstructed and handed to the ideal transfer.
    """
    return _simulate_sender(_Execution(strings[0], strings[1], c, n, seed), script)


def _simulate_receiver(run: _Execution, script) -> dict:
    alice = _ExtractingSender(run.tape(1), run.n, run.strings)
    bob = script(run.tape(2), run.n, run.c)
    run.play(alice, bob)
    return {
        "transcript": run.t,
        "inferred_choice": alice.memory.get("c_hat"),
        "effective_choice": bob.effective_choice(),
        "output": _output(run.t),
    }


def simulate_corrupted_receiver(script, s0, s1, n: int, *, choice: int = 0, seed=0,
                                bc_backend: str = "protocol") -> dict:
    """Runs the scripted receiver against the extracting sender, which
    simulates the honest sender, extracts the committed bases from the
    commitment instances, infers the receiver's effective choice from its
    partition, and completes the run with the ideal transfer's answer for
    that choice.
    """
    return _simulate_receiver(_Execution(s0, s1, choice, n, seed, bc_backend), script)


def _seeded_runs(runs: int, seed):
    """(run seed, seed states) of runs k = 0..runs-1 on `_stream(seed, k)`,
    the states derived _STATE_BLOCK runs at a time."""
    for start in range(0, runs, _STATE_BLOCK):
        seeds = [_stream(seed, k) for k in range(start, min(start + _STATE_BLOCK, runs))]
        yield from zip(seeds, _seed_states(seeds))


def honest_ot_completeness(runs: int, n: int, seed) -> dict:
    """Completed and correct honest transfers at choice k % 2, run k on `_stream(seed, k)`."""
    completed = correct = 0
    for k, (run_seed, states) in enumerate(_seeded_runs(runs, seed)):
        t = _run_real(_Execution((0,), (1,), k % 2, n, run_seed, states=states))
        completed += not t.aborted
        correct += _output(t) == (k % 2,)
    return {"runs": runs, "completed": completed, "correct": correct}


# ---------------------------------------------------------------------------
# the comparison demo


def _label(output) -> str:
    if isinstance(output, tuple):
        return "".join(str(b) for b in output)
    return str(output)


def _compare_counts(real: dict, ideal: dict, runs: int) -> dict:
    cats = sorted(set(real) | set(ideal))
    rows = {}
    worst = 0.0
    ok = True
    for cat in cats:
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
    if runs < 1:
        raise InputError("a demo needs at least one run")
    if corruption == "sender":
        program, backend = sender_script(script), "ideal"
        real = functools.partial(_run_real, sender=program)
        simulate = functools.partial(_simulate_sender, script=program)
    elif corruption == "receiver":
        program, backend = receiver_script(script), "protocol"
        real = functools.partial(_run_real, receiver=program)
        simulate = functools.partial(_simulate_receiver, script=program)
    else:
        raise InputError("corruption must be 'sender' or 'receiver'")
    real_counts: Counter = Counter()
    ideal_counts: Counter = Counter()
    extraction = {"checked": 0, "correct": 0}
    for run_seed, states in _seeded_runs(runs, seed):
        # the real run and its simulation build their tapes from the same states
        real_counts[_label(_output(real(_Execution(s0, s1, c, n, run_seed, backend, states))))] += 1
        sim = simulate(_Execution(s0, s1, c, n, run_seed, backend, states))
        ideal_counts[_label(sim["output"])] += 1
        if sim.get("effective_choice") is not None and sim.get("inferred_choice") is not None:
            extraction["checked"] += 1
            extraction["correct"] += int(sim["inferred_choice"] == sim["effective_choice"])
    report = _compare_counts(real_counts, ideal_counts, runs)
    report.update(corruption=corruption, script=script, runs=runs, positions=n, choice=c)
    if corruption == "receiver":
        report["extraction"] = extraction
    return report
