"""Executable ideal functionalities (cut-and-choose, commitment, oblivious
transfer), the protocols built on them, and the simulator constructions run
as seeded programs against scripted adversaries.

One engine (`_Execution`) runs the transfer's message flow over a sender
program and a receiver program; each position is one 2CC' step (commit,
1CC, then open), which the stand-alone two-bit cut-and-choose protocol runs
once. The simulators are party programs that also call the ideal transfer:
a rushing receiver against a corrupted sender, an extracting sender against
a corrupted receiver. Lane 0 of a run's seed drives Born-rule measurement,
the commitments and the rushing receiver, lane 1 the sender, lane 2 the
receiver, so real and simulated runs abort on the same seeds. The tapes are
seeded from one seed-word array, and each batch of draws (bases, outcomes, 1CC
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
from dataclasses import dataclass, field

import numpy as np

from .coding import LinearCode, bits_to_int, syndrome
from .errors import InputError
from .hashing import XorHashFamily
from .onecc import encoded_vector, extract_commit_bit

MAX_POSITIONS = 10
MAX_STRING_BITS = 8


def _stream(seed, lane: int):
    """Derived seed for one party's random tape; keeps runs replayable."""
    entries = seed if isinstance(seed, (tuple, list)) else (seed,)
    return tuple(int(v) for v in entries) + (lane,)


def _seed_words(seed) -> list[int]:
    """`seed`'s entries as the little-endian uint32 words SeedSequence makes of
    them, so `_tape(words, lane)` draws exactly as `default_rng(_stream(seed, lane))`."""
    entries = _stream(seed, 0)[:-1]
    if any(v < 0 for v in entries):
        raise InputError("seeds must be non-negative integers")
    return [(v >> s) & 0xFFFFFFFF for v in entries for s in range(0, max(v.bit_length(), 1), 32)]


def _tape(words: list[int], lane: int) -> np.random.Generator:
    return np.random.default_rng(np.array(words + [lane], dtype=np.uint32))


def _clean(value):
    if isinstance(value, np.ndarray):
        return tuple(int(v) for v in value.reshape(-1))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (list, tuple)):
        return tuple(_clean(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _clean(v)) for k, v in value.items()))
    return value


@dataclass(slots=True)
class TranscriptEvent:
    index: int
    actor: str
    kind: str
    payload: dict

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "actor": self.actor,
            "kind": self.kind,
            "payload": [[k, _clean(self.payload[k])] for k in sorted(self.payload)],
        }


@dataclass
class ExecutionTranscript:
    seed: tuple
    events: list[TranscriptEvent] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    aborted: bool = False
    meta: dict = field(default_factory=dict)

    def log(self, actor: str, kind: str, **payload) -> None:
        """Keeps the payload as given; `to_dict` cleans it, so a logged
        value must not be mutated afterwards."""
        self.events.append(TranscriptEvent(len(self.events), actor, kind, payload))

    def to_dict(self) -> dict:
        return {
            "seed": list(self.seed) if isinstance(self.seed, tuple) else self.seed,
            "events": [e.to_dict() for e in self.events],
            "outputs": {k: _clean(v) for k, v in self.outputs.items()},
            "aborted": self.aborted,
            "meta": {k: _clean(v) for k, v in self.meta.items()},
        }


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


def ideal_two_cc_prime(s0: int, s1: int, c: int, sender_decision: str = "continue") -> dict:
    """Cut-and-choose over two bits with a sender abort branch after seeing c."""
    for b in (s0, s1, c):
        if b not in (0, 1):
            raise InputError("functionality inputs must be bits")
    if c == 0:
        return {"sender_learns": 0, "receiver_receives": None}
    if sender_decision == "continue":
        return {"sender_learns": 1, "receiver_receives": (s0, s1)}
    if sender_decision == "abort":
        return {"sender_learns": 1, "receiver_receives": "abort"}
    raise InputError("sender decision must be 'continue' or 'abort'")


def ideal_ot(strings: tuple, c: int):
    if c not in (0, 1):
        raise InputError("choice must be a bit")
    return strings[c]


class IdealBitCommitment:
    """Commit/open state machine; the backing simulator can read the bit."""

    backend = "ideal"

    def __init__(self) -> None:
        self._bit = None
        self._state = "empty"

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

    def refuse(self) -> str:
        self._state = "refused"
        return "abort"

    def extract(self) -> int:
        if self._bit is None:
            raise InputError("nothing committed yet")
        return self._bit


@functools.cache
def _even_weight_code(n: int) -> LinearCode:
    """Built once per length; LinearCode is frozen, so runs share it."""
    gen = np.hstack([np.eye(n - 1, dtype=np.uint8), np.ones((n - 1, 1), dtype=np.uint8)])
    return LinearCode(gen)


class ProtocolBitCommitment(IdealBitCommitment):
    """The conjugate-coding commitment run honestly at desk scale.

    The committer's per-position basis bits travel through the cut-and-choose
    functionality, so a simulator that runs the functionality can extract the
    committed bit from the announced hash/syndrome pair even before opening.
    """

    backend = "protocol"

    def __init__(self, rng: np.random.Generator, n_qubits: int = 10, check_prob: float = 0.2):
        if not 6 <= n_qubits <= 20:
            raise InputError("protocol commitment supports 6..20 qubits")
        if not 0.0 < check_prob <= 0.5:
            raise InputError("check probability must be in (0, 1/2]")
        super().__init__()
        self._rng = rng
        self._n_qubits = n_qubits
        self._check_prob = check_prob
        self._record: dict = {}

    def commit(self, bit: int) -> str:
        self._accept(bit)
        big_n = self._n_qubits
        theta = self._rng.integers(0, 2, size=big_n).astype(np.uint8)
        checked = self._rng.random(big_n) < self._check_prob
        # honest committer: every checked position measures to 0, no mismatch
        if int(checked.sum()) > 2.0 * self._check_prob * big_n:
            self._state = "aborted"
            return "abort"
        tbar = ~checked
        theta_rest = theta[tbar]
        n = int(theta_rest.size)
        code = _even_weight_code(n)
        family = XorHashFamily(n)
        member = int(self._rng.integers(0, 2**n))
        s = syndrome(code, theta_rest)
        w = family.evaluate(member, bits_to_int(theta_rest)) ^ bit
        self._bit = int(bit)
        self._record = {
            "theta_rest": theta_rest,
            "code": code,
            "member": member,
            "syndrome": s,
            "masked": int(w),
        }
        self._state = "committed"
        return "committed"

    def open(self):
        if self._state != "committed":
            raise InputError("nothing to open")
        rec = self._record
        code, family = rec["code"], XorHashFamily(rec["code"].n)
        if not np.array_equal(syndrome(code, rec["theta_rest"]), rec["syndrome"]):
            return "abort"
        if family.evaluate(rec["member"], bits_to_int(rec["theta_rest"])) ^ rec["masked"] != self._bit:
            return "abort"
        self._state = "opened"
        return self._bit

    def extract(self) -> int:
        """Recover the bit from the functionality-visible basis string."""
        if self._state == "empty":
            raise InputError("nothing committed yet")
        rec = self._record
        return extract_commit_bit(
            rec["code"], rec["member"], rec["syndrome"], rec["masked"], rec["theta_rest"]
        )


def _make_commitment(backend: str, rng: np.random.Generator, params: dict | None):
    if backend == "ideal":
        return IdealBitCommitment()
    if backend == "protocol":
        params = params or {}
        return ProtocolBitCommitment(
            rng,
            n_qubits=int(params.get("n_qubits", 10)),
            check_prob=float(params.get("check_prob", 0.2)),
        )
    raise InputError("commitment backend must be 'ideal' or 'protocol'")


# ---------------------------------------------------------------------------
# two-bit cut-and-choose from commitment + one-bit cut-and-choose


def _two_cc_step(t, bc, committer: str, s0: int, c: int, s1_for, *, position=None, refuse=False):
    """One 2CC' step: `committer` commits s0, the 1CC passes s1_for(position,
    c) under the choice c, and on c = 1 the commitment is opened, or refused.
    Returns (c, revealed s1, opened s0): c is None when the commitment aborts,
    and opened is None for c = 0 and "abort" for a refused or failed opening.
    A transfer run tags the events of each step with its position; a
    stand-alone run has one step and no tag.
    """
    status = bc.commit(s0)
    if position is None:
        t.log(committer, "bc-commit", status=status, backend=bc.backend)
    else:
        t.log(committer, "bc-commit", position=position, status=status)
    if status == "abort":
        return None, None, None
    revealed = ideal_one_cc(sender_bit=s1_for(position, c), chooser_bit=c)["chooser_receives"]
    if position is None:
        t.log("functionality", "one-cc", sender_learns=c, chooser_receives=revealed)
    else:
        t.log("functionality", "one-cc", position=position, chooser_bit=c, revealed=revealed)
    if c == 0:
        return c, revealed, None
    at = {} if position is None else {"position": position}
    if refuse:
        t.log(committer, "bc-refuse", **at)
        return c, revealed, bc.refuse()
    opened = bc.open()
    t.log(committer, "bc-open", value=opened, **at)
    return c, revealed, opened


def run_2cc_protocol(
    s0: int,
    s1: int,
    c: int,
    *,
    seed=0,
    refuse_open: bool = False,
    bc_backend: str = "ideal",
    commit_params: dict | None = None,
) -> ExecutionTranscript:
    """Sender commits the first bit, routes the second through the choice
    functionality, opens only when asked; the receiver learns both bits or
    nothing, with an explicit abort branch when the opening is refused.
    """
    for b in (s0, s1, c):
        if b not in (0, 1):
            raise InputError("protocol inputs must be bits")
    t = ExecutionTranscript(seed=_stream(seed, 0))
    bc = _make_commitment(bc_backend, _tape(_seed_words(seed), 0), commit_params)
    choice, revealed, opened = _two_cc_step(
        t, bc, "alice", s0, c, lambda _i, _c: s1, refuse=refuse_open)
    if choice is None:
        t.aborted = True
        t.outputs = {"alice": None, "bob": "abort"}
        t.meta["reason"] = "commit-abort"
    elif choice == 0:
        t.outputs = {"alice": 0, "bob": None}
        t.log("bob", "output", value=None)
    elif opened == "abort":
        t.aborted = True
        t.outputs = {"alice": 1, "bob": "abort"}
    else:
        t.outputs = {"alice": 1, "bob": (int(opened), int(revealed))}
        t.log("bob", "output", value=t.outputs["bob"])
    return t


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
    actor = "alice"

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

    def observe_check(self, i: int, revealed_x: int, opened_basis) -> str | None:
        if opened_basis == "abort":
            return "abort"
        if int(opened_basis) == int(self.memory["theta"][i]) and revealed_x != int(self.memory["x"][i]):
            return "abort"
        return None

    def announce_bases(self, kept: list[int]) -> np.ndarray:
        return self.memory["theta"][kept]

    def masks(self, kept: list[int], i0, i1) -> tuple[np.ndarray, tuple, tuple]:
        nhat = len(kept)
        mask = self.rng.integers(0, 2, size=(self.ell, nhat)).astype(np.uint8)
        x_hat = self.memory["x"][kept]
        return (mask, _xor_hash(self.strings[0], mask, i0, x_hat),
                _xor_hash(self.strings[1], mask, i1, x_hat))


class FixedStateSender(SenderProgram):
    """Prepares a fixed, announced configuration instead of a random one."""

    name = "fixed-state"

    def __init__(self, rng, n, strings, x=None, theta=None):
        super().__init__(rng, n, strings)
        self._x = np.zeros(n, dtype=np.uint8) if x is None else np.asarray(x, dtype=np.uint8)
        self._theta = (
            np.arange(n, dtype=np.uint8) % 2 if theta is None else np.asarray(theta, dtype=np.uint8)
        )
        if self._x.size != n or self._theta.size != n:
            raise InputError("fixed configuration must cover every position")

    def prepare(self) -> np.ndarray:
        self.memory["x"] = self._x
        self.memory["theta"] = self._theta
        return 2 * self._x + self._theta


class RandomAnnounceSender(SenderProgram):
    """Honest preparation but the announced bases are freshly random, so the
    receiver's matched set no longer tracks the real encoding."""

    name = "random-announce"

    def announce_bases(self, kept: list[int]) -> np.ndarray:
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
    actor = "bob"

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
        return int(basis)

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


def sender_script(name: str, **kwargs):
    if name not in SENDER_SCRIPTS:
        raise InputError(f"unknown sender script '{name}'")
    cls = SENDER_SCRIPTS[name]
    return lambda rng, n, strings: cls(rng, n, strings, **kwargs)


def receiver_script(name: str, **kwargs):
    if name not in RECEIVER_SCRIPTS:
        raise InputError(f"unknown receiver script '{name}'")
    cls = RECEIVER_SCRIPTS[name]
    return lambda rng, n, choice: cls(rng, n, choice, **kwargs)


def _as_string(bits) -> tuple:
    if isinstance(bits, int):
        bits = (bits,)
    out = tuple(int(b) for b in bits)
    if not 1 <= len(out) <= MAX_STRING_BITS:
        raise InputError(f"transferred strings carry 1..{MAX_STRING_BITS} bits")
    if any(b not in (0, 1) for b in out):
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

    actor = party = "simulator"

    def __init__(self, rng, n, choice, transcript: ExecutionTranscript):
        super().__init__(rng, n, choice)
        self.transcript = transcript

    def measure(self, qubits, bases, rng) -> None:
        self.memory.update(qubits=qubits, bases=bases, rushed=[],
                           x=np.zeros(self.n, dtype=np.uint8))

    def one_cc_input(self, i, chooser_bit):
        if chooser_bit == 0:
            return 0
        self.memory["rushed"].append(i)
        self.memory["x"][i] = _measure(self.memory["qubits"][i], self.memory["bases"][i], self.rng)
        return int(self.memory["x"][i])

    def partition(self, theta_hat_a, theta_hat_b, nhat):
        i0, i1 = _random_partition(self.rng, nhat)
        kept = [i for i in range(self.n) if i not in self.memory["rushed"]]
        self.memory["x"][kept] = _measure(self.memory["qubits"][kept], theta_hat_a, self.rng)
        return i0, i1

    def decode(self, mask, m0, m1, x_hat_b, i0, i1):
        strings = (_xor_hash(m0, mask, i0, x_hat_b), _xor_hash(m1, mask, i1, x_hat_b))
        out = ideal_ot(strings, self.choice)
        self.transcript.meta["extracted"] = strings
        self.transcript.log("simulator", "ideal-ot", s0=strings[0], s1=strings[1], output=out)
        return out


class _ExtractingSender(SenderProgram):
    """The corrupted-receiver simulator in the sender's seat. It plays the
    honest sender on the honest sender's tape, reads every commitment through
    extract(), infers the receiver's effective choice ĉ from its partition
    and masks only the ideal transfer's answer for ĉ; the other masked
    string is random. The strings stay with the functionality: only
    `ideal_ot` reads them.
    """

    actor = party = "simulator"

    def __init__(self, rng, n, strings, transcript: ExecutionTranscript):
        super().__init__(rng, n, strings)
        self.transcript = transcript
        self.memory["committed"] = np.zeros(n, dtype=np.uint8)

    def observe_commit(self, i, bc) -> None:
        self.memory["committed"][i] = bc.extract()

    def masks(self, kept, i0, i1):
        theta_hat, committed = self.memory["theta"][kept], self.memory["committed"][kept]
        matched = {j for j in range(len(kept)) if int(theta_hat[j]) == int(committed[j])}
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
        self.transcript.log("simulator", "ideal-ot", choice=c_hat, value=value)
        mask = self.rng.integers(0, 2, size=(self.ell, len(kept))).astype(np.uint8)
        m_chat = _xor_hash(value, mask, (i0, i1)[c_hat], self.memory["x"][kept])
        m_other = tuple(int(b) for b in self.rng.integers(0, 2, size=self.ell))
        return (mask, m_chat, m_other) if c_hat == 0 else (mask, m_other, m_chat)


# ---------------------------------------------------------------------------
# the engine: one message flow for real runs and simulations


class _Execution:
    """One seeded run of the transfer protocol. The constructor checks the
    inputs; `play` runs the message flow over a sender and a receiver
    program and fills in the transcript.
    """

    def __init__(self, s0, s1, c, n: int, seed, bc_backend="ideal", commit_params=None):
        self.strings = (_as_string(s0), _as_string(s1))
        if len(self.strings[0]) != len(self.strings[1]):
            raise InputError("the two strings must have equal length")
        if c not in (0, 1):
            raise InputError("choice must be a bit")
        if not 2 <= n <= MAX_POSITIONS:
            raise InputError(f"position count must be in 2..{MAX_POSITIONS}")
        self.n, self.words = n, _seed_words(seed)
        self.bc_backend, self.commit_params = bc_backend, commit_params
        self.t = ExecutionTranscript(seed=_stream(seed, 0))
        self.rng = _tape(self.words, 0)

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
        t.log(alice.actor, "send-qubits", count=n)
        theta_b = bob.choose_bases()
        bob.measure(qubits, theta_b, self.rng)
        t.log(bob.actor, "measure", bases=theta_b)

        checked = []
        bases, choices = theta_b.tolist(), alice.select_bits().tolist()
        for i in range(n):
            bc = _make_commitment(self.bc_backend, self.rng, self.commit_params)
            t_i, revealed, opened = _two_cc_step(t, bc, bob.actor, bob.commit_value(i, bases[i]),
                                                 choices[i], bob.one_cc_input, position=i)
            if t_i is None:
                return self._abort("commit-abort", "abort")
            alice.observe_commit(i, bc)
            if t_i == 1:
                checked.append(i)
                if alice.observe_check(i, revealed, opened) == "abort":
                    return self._abort("check-abort", "abort")
        if bob.size_abort(len(checked)):
            return self._abort("size-abort", None)

        kept = [i for i in range(n) if i not in checked]
        theta_hat_a = np.asarray(alice.announce_bases(kept), dtype=np.uint8)
        t.log(alice.actor, "announce-bases", bases=theta_hat_a)
        i0, i1 = bob.partition(theta_hat_a, theta_b[kept], len(kept))
        t.log(bob.actor, "partition", i0=i0, i1=i1)
        mask, m0, m1 = alice.masks(kept, i0, i1)
        t.log(alice.actor, "masked-strings", m0=m0, m1=m1)
        out = bob.decode(mask, m0, m1, bob.memory["x"][kept], i0, i1)
        t.outputs = {"alice": None, "bob": out}
        t.log(bob.actor, "output", value=out)
        return len(checked)


def _output(t: ExecutionTranscript):
    return "abort" if t.aborted else t.outputs["bob"]


def run_ot_protocol(
    s0,
    s1,
    c: int,
    n: int,
    *,
    sender=None,
    receiver=None,
    seed=0,
    bc_backend: str = "ideal",
    commit_params: dict | None = None,
) -> ExecutionTranscript:
    """One seeded execution; scripted parties replace the honest programs."""
    run = _Execution(s0, s1, c, n, seed, bc_backend, commit_params)
    alice = (sender or SenderProgram)(_tape(run.words, 1), n, run.strings)
    bob = (receiver or ReceiverProgram)(_tape(run.words, 2), n, c)
    checked = run.play(alice, bob)
    if checked is not None:
        run.t.meta["checked"] = checked
    return run.t


def simulate_corrupted_sender(script, c: int, n: int, strings: tuple, seed=0) -> dict:
    """Runs the scripted sender against the rushing receiver: checked
    positions are measured only when the functionality forces a value,
    everything else after the announcement, in the announced bases. Both
    strings are then reconstructed and handed to the ideal transfer.
    """
    run = _Execution(strings[0], strings[1], c, n, seed)
    alice = script(_tape(run.words, 1), n, run.strings)
    bob = _RushingReceiver(run.rng, n, c, run.t)
    run.play(alice, bob)
    return {"transcript": run.t, "extracted": run.t.meta.get("extracted"), "output": _output(run.t)}


def simulate_corrupted_receiver(
    script,
    s0,
    s1,
    n: int,
    *,
    choice: int = 0,
    seed=0,
    bc_backend: str = "protocol",
    commit_params: dict | None = None,
) -> dict:
    """Runs the scripted receiver against the extracting sender, which
    simulates the honest sender, extracts the committed bases from the
    commitment instances, infers the receiver's effective choice from its
    partition, and completes the run with the ideal transfer's answer for
    that choice.
    """
    run = _Execution(s0, s1, choice, n, seed, bc_backend, commit_params)
    alice = _ExtractingSender(_tape(run.words, 1), n, run.strings, run.t)
    bob = script(_tape(run.words, 2), n, choice)
    run.play(alice, bob)
    return {
        "transcript": run.t,
        "inferred_choice": alice.memory.get("c_hat"),
        "effective_choice": bob.effective_choice(),
        "output": _output(run.t),
    }


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


def run_simulator_demo(
    corruption: str,
    *,
    script: str = "honest",
    runs: int = 1000,
    n: int = 8,
    seed=0,
    s0=(0,),
    s1=(1,),
    c: int = 0,
    script_kwargs: dict | None = None,
    bc_backend: str | None = None,
    commit_params: dict | None = None,
) -> dict:
    """Real executions against the scripted adversary versus the simulator
    construction feeding the ideal functionality; reports per-output-category
    agreement of the environment-visible outputs at three sigma.
    """
    kwargs = script_kwargs or {}
    if corruption == "sender":
        factory = sender_script(script, **kwargs)
        real_args = {"sender": factory}

        def simulate(run_seed):
            return simulate_corrupted_sender(factory, c, n, (s0, s1), seed=run_seed)
    elif corruption == "receiver":
        factory = receiver_script(script, **kwargs)
        backend = {"bc_backend": bc_backend or "protocol", "commit_params": commit_params}
        real_args = {"receiver": factory, **backend}

        def simulate(run_seed):
            return simulate_corrupted_receiver(
                factory, s0, s1, n, choice=c, seed=run_seed, **backend)
    else:
        raise InputError("corruption must be 'sender' or 'receiver'")
    real_counts: Counter = Counter()
    ideal_counts: Counter = Counter()
    extraction = {"checked": 0, "correct": 0}
    for k in range(runs):
        run_seed = _stream(seed, k)
        real_counts[_label(_output(run_ot_protocol(s0, s1, c, n, seed=run_seed, **real_args)))] += 1
        sim = simulate(run_seed)
        ideal_counts[_label(sim["output"])] += 1
        if sim.get("effective_choice") is not None and sim.get("inferred_choice") is not None:
            extraction["checked"] += 1
            extraction["correct"] += int(sim["inferred_choice"] == sim["effective_choice"])
    report = _compare_counts(real_counts, ideal_counts, runs)
    report.update(
        {
            "corruption": corruption,
            "script": script,
            "runs": runs,
            "positions": n,
            "choice": c,
        }
    )
    if corruption == "receiver":
        report["extraction"] = extraction
    return report
