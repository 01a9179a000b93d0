"""Executable ideal functionalities (cut-and-choose, commitment, oblivious
transfer), the protocols built on them, and the simulator constructions run
as seeded programs against scripted adversaries.

Scheduling is synchronous with a fixed turn order; the one adversarial
scheduling power modelled is the rushing hook used by the corrupted-sender
simulator (delay a measurement until the functionality forces a value).
Indistinguishability is checked as equality of output distributions over
seeded runs, not proven.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coding import LinearCode, bits_to_int, syndrome
from .errors import InputError
from .hashing import XorHashFamily
from .onecc import encoded_vector, extract_commit_bit
from .rand import rng_from_seed

MAX_POSITIONS = 10
MAX_STRING_BITS = 8


def _stream(seed, lane: int):
    """Derived seed for one party's random tape; keeps runs replayable."""
    if isinstance(seed, (tuple, list)):
        return tuple(int(v) for v in seed) + (lane,)
    return (int(seed), lane)


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


@dataclass(frozen=True)
class TranscriptEvent:
    index: int
    actor: str
    kind: str
    payload: tuple

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "actor": self.actor,
            "kind": self.kind,
            "payload": [[k, v] for k, v in self.payload],
        }


@dataclass
class PartyMachine:
    role: str
    program: str
    memory: dict = field(default_factory=dict)


@dataclass
class ExecutionTranscript:
    seed: tuple
    events: list[TranscriptEvent] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    aborted: bool = False
    meta: dict = field(default_factory=dict)

    def log(self, actor: str, kind: str, **payload) -> None:
        cleaned = tuple(sorted((k, _clean(v)) for k, v in payload.items()))
        self.events.append(TranscriptEvent(len(self.events), actor, kind, cleaned))

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

    def commit(self, bit: int) -> str:
        if self._state != "empty":
            raise InputError("commitment already in use")
        if bit not in (0, 1):
            raise InputError("committed value must be a bit")
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


def _even_weight_code(n: int) -> LinearCode:
    gen = np.hstack([np.eye(n - 1, dtype=np.uint8), np.ones((n - 1, 1), dtype=np.uint8)])
    return LinearCode(gen)


class ProtocolBitCommitment:
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
        self._rng = rng
        self._n_qubits = n_qubits
        self._check_prob = check_prob
        self._state = "empty"
        self._bit = None
        self._record: dict = {}

    def commit(self, bit: int) -> str:
        if self._state != "empty":
            raise InputError("commitment already in use")
        if bit not in (0, 1):
            raise InputError("committed value must be a bit")
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
            "checked": int(checked.sum()),
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

    def refuse(self) -> str:
        self._state = "refused"
        return "abort"

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
    rng = rng_from_seed(_stream(seed, 0))
    bc = _make_commitment(bc_backend, rng, commit_params)
    status = bc.commit(s0)
    t.log("alice", "bc-commit", status=status, backend=bc.backend)
    if status == "abort":
        t.aborted = True
        t.outputs = {"alice": None, "bob": "abort"}
        t.meta["reason"] = "commit-abort"
        return t
    cc = ideal_one_cc(sender_bit=s1, chooser_bit=c)
    t.log("functionality", "one-cc", sender_learns=cc["sender_learns"],
          chooser_receives=cc["chooser_receives"])
    alice_view_c = cc["sender_learns"]
    if alice_view_c == 0:
        t.outputs = {"alice": 0, "bob": None}
        t.log("bob", "output", value=None)
        return t
    if refuse_open:
        bc.refuse()
        t.log("alice", "bc-refuse")
        t.aborted = True
        t.outputs = {"alice": 1, "bob": "abort"}
        return t
    opened = bc.open()
    t.log("alice", "bc-open", value=opened)
    if opened == "abort":
        t.aborted = True
        t.outputs = {"alice": 1, "bob": "abort"}
        return t
    t.outputs = {"alice": 1, "bob": (int(opened), int(cc["chooser_receives"]))}
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


def measure_qubit(psi: np.ndarray, basis: int, rng: np.random.Generator) -> int:
    """Born-rule sample of the conjugate-coding measurement outcome."""
    b0 = qubit_state(0, basis)
    p0 = float(abs(np.vdot(b0, psi)) ** 2)
    return 0 if rng.random() < min(max(p0, 0.0), 1.0) else 1


def _apply_subset_hash(mask: np.ndarray, positions, values: np.ndarray) -> tuple:
    v = np.zeros(mask.shape[1], dtype=np.uint8)
    for p in positions:
        v[p] = values[p]
    return tuple(int(b) for b in (mask @ v) % 2)


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

    def prepare(self) -> list[np.ndarray]:
        x = self.rng.integers(0, 2, size=self.n).astype(np.uint8)
        theta = self.rng.integers(0, 2, size=self.n).astype(np.uint8)
        self.memory["x"] = x
        self.memory["theta"] = theta
        return [qubit_state(x[i], theta[i]) for i in range(self.n)]

    def select_bit(self, i: int) -> int:
        return int(self.rng.integers(0, 2))

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
        m0 = tuple(a ^ b for a, b in zip(self.strings[0], _apply_subset_hash(mask, i0, x_hat)))
        m1 = tuple(a ^ b for a, b in zip(self.strings[1], _apply_subset_hash(mask, i1, x_hat)))
        return mask, m0, m1


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

    def prepare(self) -> list[np.ndarray]:
        self.memory["x"] = self._x
        self.memory["theta"] = self._theta
        return [qubit_state(self._x[i], self._theta[i]) for i in range(self.n)]


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

    def __init__(self, rng: np.random.Generator, n: int, choice: int):
        self.rng = rng
        self.n = n
        self.choice = int(choice)
        self.memory: dict = {}

    def choose_bases(self) -> np.ndarray:
        return self.rng.integers(0, 2, size=self.n).astype(np.uint8)

    def commit_value(self, i: int, basis: int) -> int:
        return int(basis)

    def cc_input(self, i: int, measured: int) -> int:
        return int(measured)

    def size_abort(self, total_checked: int) -> bool:
        return total_checked > 3 * self.n / 5

    def partition(self, theta_hat_a: np.ndarray, theta_hat_b: np.ndarray, nhat: int):
        matched = [j for j in range(nhat) if int(theta_hat_a[j]) == int(theta_hat_b[j])]
        rest = [j for j in range(nhat) if j not in matched]
        if self.choice == 0:
            return tuple(matched), tuple(rest)
        return tuple(rest), tuple(matched)

    def decode(self, mask, m0, m1, x_hat_b: np.ndarray, i0, i1) -> tuple:
        own = (i0, i1)[self.choice]
        masked = (m0, m1)[self.choice]
        return tuple(a ^ b for a, b in zip(masked, _apply_subset_hash(mask, own, x_hat_b)))

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
        side = self.rng.integers(0, 2, size=nhat)
        i0 = tuple(j for j in range(nhat) if side[j] == 0)
        i1 = tuple(j for j in range(nhat) if side[j] == 1)
        return i0, i1

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
# the transfer protocol (real executions)


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
    s0, s1 = _as_string(s0), _as_string(s1)
    if len(s0) != len(s1):
        raise InputError("the two strings must have equal length")
    if c not in (0, 1):
        raise InputError("choice must be a bit")
    if not 2 <= n <= MAX_POSITIONS:
        raise InputError(f"position count must be in 2..{MAX_POSITIONS}")
    t = ExecutionTranscript(seed=_stream(seed, 0))
    rng = rng_from_seed(_stream(seed, 0))
    alice = (sender or SenderProgram)(rng_from_seed(_stream(seed, 1)), n, (s0, s1))
    bob = (receiver or ReceiverProgram)(rng_from_seed(_stream(seed, 2)), n, c)
    t.meta["parties"] = {
        "alice": PartyMachine("sender", alice.name).role + ":" + alice.name,
        "bob": PartyMachine("receiver", bob.name).role + ":" + bob.name,
    }

    qubits = alice.prepare()
    if len(qubits) != n:
        raise InputError("sender script must supply one qubit per position")
    t.log("alice", "send-qubits", count=n)
    theta_b = bob.choose_bases()
    x_b = np.array([measure_qubit(qubits[i], int(theta_b[i]), rng) for i in range(n)], dtype=np.uint8)
    t.log("bob", "measure", bases=theta_b)

    checked = []
    for i in range(n):
        bc = _make_commitment(bc_backend, rng, commit_params)
        status = bc.commit(bob.commit_value(i, int(theta_b[i])))
        t.log("bob", "bc-commit", position=i, status=status)
        if status == "abort":
            t.aborted = True
            t.outputs = {"alice": "abort", "bob": "abort"}
            t.meta["reason"] = "commit-abort"
            return t
        t_i = alice.select_bit(i)
        cc = ideal_one_cc(sender_bit=bob.cc_input(i, int(x_b[i])), chooser_bit=t_i)
        t.log("functionality", "one-cc", position=i, chooser_bit=t_i,
              revealed=cc["chooser_receives"])
        if t_i == 1:
            checked.append(i)
            opened = bc.open()
            t.log("bob", "bc-open", position=i, value=opened)
            verdict = alice.observe_check(i, cc["chooser_receives"], opened)
            if verdict == "abort":
                t.aborted = True
                t.outputs = {"alice": "abort", "bob": "abort"}
                t.meta["reason"] = "check-abort"
                return t
    if bob.size_abort(len(checked)):
        t.aborted = True
        t.outputs = {"alice": None, "bob": "abort"}
        t.meta["reason"] = "size-abort"
        return t

    kept = [i for i in range(n) if i not in checked]
    theta_hat_a = np.asarray(alice.announce_bases(kept), dtype=np.uint8)
    t.log("alice", "announce-bases", bases=theta_hat_a)
    i0, i1 = bob.partition(theta_hat_a, theta_b[kept], len(kept))
    t.log("bob", "partition", i0=i0, i1=i1)
    mask, m0, m1 = alice.masks(kept, i0, i1)
    t.log("alice", "masked-strings", m0=m0, m1=m1)
    out = bob.decode(mask, m0, m1, x_b[kept], i0, i1)
    t.outputs = {"alice": None, "bob": out}
    t.meta["checked"] = len(checked)
    t.log("bob", "output", value=out)
    return t


# ---------------------------------------------------------------------------
# simulators (ideal executions)


def simulate_corrupted_sender(script, c: int, n: int, strings: tuple, seed=0) -> dict:
    """Runs the receiver with delayed measurement: checked positions are
    measured only when the functionality forces a value (rushing), everything
    else at the end in the announced bases. Both strings are then
    reconstructed and handed to the ideal transfer.
    """
    s0, s1 = _as_string(strings[0]), _as_string(strings[1])
    t = ExecutionTranscript(seed=_stream(seed, 0))
    rng = rng_from_seed(_stream(seed, 0))
    alice = script(rng_from_seed(_stream(seed, 1)), n, (s0, s1))
    t.meta["parties"] = {"alice": "sender:" + alice.name, "bob": "simulator"}

    qubits = alice.prepare()
    t.log("alice", "send-qubits", count=n)
    theta_b = rng.integers(0, 2, size=n).astype(np.uint8)
    x_b: list[int | None] = [None] * n
    checked = []
    for i in range(n):
        bc = IdealBitCommitment()
        bc.commit(int(theta_b[i]))
        t.log("simulator", "bc-commit", position=i, status="committed")
        t_i = alice.select_bit(i)
        if t_i == 1:
            x_b[i] = measure_qubit(qubits[i], int(theta_b[i]), rng)  # rush
            checked.append(i)
        cc = ideal_one_cc(sender_bit=x_b[i] if t_i == 1 else 0, chooser_bit=t_i)
        t.log("functionality", "one-cc", position=i, chooser_bit=t_i,
              revealed=cc["chooser_receives"])
        if t_i == 1:
            opened = bc.open()
            verdict = alice.observe_check(i, cc["chooser_receives"], opened)
            if verdict == "abort":
                t.aborted = True
                t.outputs = {"alice": "abort", "bob": "abort"}
                t.meta["reason"] = "check-abort"
                return {"transcript": t, "extracted": None, "output": "abort"}
    if len(checked) > 3 * n / 5:
        t.aborted = True
        t.outputs = {"alice": None, "bob": "abort"}
        t.meta["reason"] = "size-abort"
        return {"transcript": t, "extracted": None, "output": "abort"}

    kept = [i for i in range(n) if i not in checked]
    theta_hat_a = np.asarray(alice.announce_bases(kept), dtype=np.uint8)
    t.log("alice", "announce-bases", bases=theta_hat_a)
    side = rng.integers(0, 2, size=len(kept))
    i0 = tuple(j for j in range(len(kept)) if side[j] == 0)
    i1 = tuple(j for j in range(len(kept)) if side[j] == 1)
    t.log("simulator", "partition", i0=i0, i1=i1)
    mask, m0, m1 = alice.masks(kept, i0, i1)
    t.log("alice", "masked-strings", m0=m0, m1=m1)
    x_sim = np.array(
        [measure_qubit(qubits[kept[j]], int(theta_hat_a[j]), rng) for j in range(len(kept))],
        dtype=np.uint8,
    )
    e0 = tuple(a ^ b for a, b in zip(m0, _apply_subset_hash(mask, i0, x_sim)))
    e1 = tuple(a ^ b for a, b in zip(m1, _apply_subset_hash(mask, i1, x_sim)))
    out = ideal_ot((e0, e1), c)
    t.outputs = {"alice": None, "bob": out}
    t.meta["extracted"] = (e0, e1)
    t.log("simulator", "ideal-ot", s0=e0, s1=e1, output=out)
    return {"transcript": t, "extracted": (e0, e1), "output": out}


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
    """Simulates the honest sender, extracts the committed bases from the
    commitment instances, infers the scripted receiver's effective choice
    from its partition, and completes the run with the ideal transfer's
    answer for that choice.
    """
    s0, s1 = _as_string(s0), _as_string(s1)
    ell = len(s0)
    t = ExecutionTranscript(seed=_stream(seed, 0))
    rng = rng_from_seed(_stream(seed, 0))
    # the simulated honest sender reuses the real sender's tape so that the
    # runs pair up draw for draw and abort on exactly the same seeds
    alice_rng = rng_from_seed(_stream(seed, 1))
    bob = script(rng_from_seed(_stream(seed, 2)), n, choice)
    t.meta["parties"] = {"alice": "simulator", "bob": "receiver:" + bob.name}

    x_a = alice_rng.integers(0, 2, size=n).astype(np.uint8)
    theta_a = alice_rng.integers(0, 2, size=n).astype(np.uint8)
    qubits = [qubit_state(x_a[i], theta_a[i]) for i in range(n)]
    t.log("simulator", "send-qubits", count=n)
    theta_b = bob.choose_bases()
    x_b = np.array([measure_qubit(qubits[i], int(theta_b[i]), rng) for i in range(n)], dtype=np.uint8)

    committed = np.zeros(n, dtype=np.uint8)
    checked = []
    for i in range(n):
        bc = _make_commitment(bc_backend, rng, commit_params)
        status = bc.commit(bob.commit_value(i, int(theta_b[i])))
        t.log("bob", "bc-commit", position=i, status=status)
        if status == "abort":
            t.aborted = True
            t.outputs = {"alice": "abort", "bob": "abort"}
            t.meta["reason"] = "commit-abort"
            return {"transcript": t, "inferred_choice": None,
                    "effective_choice": bob.effective_choice(), "output": "abort"}
        committed[i] = bc.extract()
        t_i = int(alice_rng.integers(0, 2))
        cc = ideal_one_cc(sender_bit=bob.cc_input(i, int(x_b[i])), chooser_bit=t_i)
        t.log("functionality", "one-cc", position=i, chooser_bit=t_i,
              revealed=cc["chooser_receives"])
        if t_i == 1:
            checked.append(i)
            opened = bc.open()
            if opened == "abort" or (
                int(opened) == int(theta_a[i]) and cc["chooser_receives"] != int(x_a[i])
            ):
                t.aborted = True
                t.outputs = {"alice": "abort", "bob": "abort"}
                t.meta["reason"] = "check-abort"
                return {"transcript": t, "inferred_choice": None,
                        "effective_choice": bob.effective_choice(), "output": "abort"}
    if bob.size_abort(len(checked)):
        t.aborted = True
        t.outputs = {"alice": None, "bob": "abort"}
        t.meta["reason"] = "size-abort"
        return {"transcript": t, "inferred_choice": None,
                "effective_choice": bob.effective_choice(), "output": "abort"}

    kept = [i for i in range(n) if i not in checked]
    theta_hat_a = theta_a[kept]
    t.log("simulator", "announce-bases", bases=theta_hat_a)
    i0, i1 = bob.partition(theta_hat_a, theta_b[kept], len(kept))
    t.log("bob", "partition", i0=i0, i1=i1)
    matched = set(
        j for j in range(len(kept)) if int(theta_hat_a[j]) == int(committed[kept[j]])
    )
    if set(i0) == matched:
        c_hat = 0
    elif set(i1) == matched:
        c_hat = 1
    else:
        # degenerate partitions: prefer the side whose positions the receiver
        # actually knows (all bases matched), else the larger matched overlap
        known0, known1 = set(i0) <= matched, set(i1) <= matched
        if known0 and not known1:
            c_hat = 0
        elif known1 and not known0:
            c_hat = 1
        else:
            c_hat = 0 if len(matched & set(i0)) >= len(matched & set(i1)) else 1
    ideal_value = ideal_ot((s0, s1), c_hat)
    t.log("simulator", "ideal-ot", choice=c_hat, value=ideal_value)

    nhat = len(kept)
    mask = alice_rng.integers(0, 2, size=(ell, nhat)).astype(np.uint8)
    x_hat_a = x_a[kept]
    own = (i0, i1)[c_hat]
    m_chat = tuple(a ^ b for a, b in zip(ideal_value, _apply_subset_hash(mask, own, x_hat_a)))
    m_other = tuple(int(b) for b in alice_rng.integers(0, 2, size=ell))
    m0, m1 = (m_chat, m_other) if c_hat == 0 else (m_other, m_chat)
    t.log("simulator", "masked-strings", m0=m0, m1=m1)
    out = bob.decode(mask, m0, m1, x_b[kept], i0, i1)
    t.outputs = {"alice": None, "bob": out}
    t.log("bob", "output", value=out)
    return {
        "transcript": t,
        "inferred_choice": c_hat,
        "effective_choice": bob.effective_choice(),
        "output": out,
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
    if corruption not in ("sender", "receiver"):
        raise InputError("corruption must be 'sender' or 'receiver'")
    kwargs = script_kwargs or {}
    real_counts: dict[str, int] = {}
    ideal_counts: dict[str, int] = {}
    extraction_hits = 0
    extraction_total = 0
    if corruption == "sender":
        factory = sender_script(script, **kwargs)
        for k in range(runs):
            run_seed = _stream(seed, k)
            real = run_ot_protocol(s0, s1, c, n, sender=factory, seed=run_seed)
            lab = _label(real.outputs["bob"] if not real.aborted else "abort")
            real_counts[lab] = real_counts.get(lab, 0) + 1
            sim = simulate_corrupted_sender(factory, c, n, (s0, s1), seed=run_seed)
            lab = _label(sim["output"])
            ideal_counts[lab] = ideal_counts.get(lab, 0) + 1
    else:
        factory = receiver_script(script, **kwargs)
        backend = bc_backend or "protocol"
        for k in range(runs):
            run_seed = _stream(seed, k)
            real = run_ot_protocol(
                s0, s1, c, n, receiver=factory, seed=run_seed,
                bc_backend=backend, commit_params=commit_params,
            )
            lab = _label(real.outputs["bob"] if not real.aborted else "abort")
            real_counts[lab] = real_counts.get(lab, 0) + 1
            sim = simulate_corrupted_receiver(
                factory, s0, s1, n, choice=c, seed=run_seed,
                bc_backend=backend, commit_params=commit_params,
            )
            lab = _label(sim["output"])
            ideal_counts[lab] = ideal_counts.get(lab, 0) + 1
            if sim["effective_choice"] is not None and sim["inferred_choice"] is not None:
                extraction_total += 1
                extraction_hits += int(sim["inferred_choice"] == sim["effective_choice"])
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
        report["extraction"] = {
            "checked": extraction_total,
            "correct": extraction_hits,
        }
    return report
