import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gamebound.coding import (
    LinearCode,
    ball_size,
    binary_entropy,
    bits_to_int,
    coset_members,
    hamming_ball,
    hamming_ball_around,
    named_code,
    nearest_coset_rep,
    syndrome,
)
from gamebound.errors import InputError


def weight(v):
    return int(np.sum(v))


def test_named_codes_parameters():
    rep31 = named_code("rep31")
    assert (rep31.n, rep31.k, rep31.min_distance()) == (3, 1, 3)
    rep41 = named_code("rep41")
    assert (rep41.n, rep41.k, rep41.min_distance()) == (4, 1, 4)
    ham = named_code("hamming74")
    assert (ham.n, ham.k, ham.min_distance()) == (7, 4, 3)


def test_unknown_code_name():
    with pytest.raises(InputError):
        named_code("nonsense99")


def test_hamming_codewords_by_brute_force():
    ham = named_code("hamming74")
    words = ham.codewords()
    assert len(words) == 16
    nonzero = [w for w in words if weight(w) > 0]
    assert min(weight(w) for w in nonzero) == 3
    # closure under addition
    as_set = {tuple(w) for w in words}
    for a in words[:4]:
        for b in words[:4]:
            assert tuple((a + b) % 2) in as_set


def test_parity_check_annihilates_codewords():
    for name in ("rep31", "rep41", "hamming74"):
        code = named_code(name)
        for w in code.codewords():
            assert not np.any(syndrome(code, w))


def test_parity_check_is_stored_read_only():
    code = named_code("hamming74")
    assert code.parity_check is code.parity_check
    with pytest.raises(ValueError):
        code.parity_check[0, 0] ^= 1


def test_row_reduction_outputs_pinned():
    # Rank checks, parity checks and the row order of coset members, on
    # which nearest_coset_rep breaks ties, for the named codes and 20 random
    # generators.
    h = hashlib.sha256()
    rng = np.random.default_rng(2024)
    codes = [named_code(n) for n in ("rep31", "rep41", "hamming74")]
    while len(codes) < 23:
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        try:
            codes.append(LinearCode(rng.integers(0, 2, size=(k, n))))
        except InputError:
            h.update(b"dependent")
    for code in codes:
        h.update(np.ascontiguousarray(code.parity_check).tobytes())
        for s in itertools.product((0, 1), repeat=code.n - code.k):
            h.update(coset_members(code, s).tobytes())
    assert h.hexdigest() == "7aaa7821fded89ced7b2b2f65556c9f3296f5fc30a9b6b3004873cd8fc9ab13c"


def test_coset_members_share_syndrome():
    code = named_code("rep31")
    s = np.array([1, 0], dtype=np.uint8)
    members = coset_members(code, s)
    assert len(members) == 2  # 2^k
    for m in members:
        np.testing.assert_array_equal(syndrome(code, m), s)
    # distinct members
    assert len({tuple(m) for m in members}) == len(members)


def test_nearest_coset_rep_brute_force_oracle():
    code = named_code("hamming74")
    rng = np.random.default_rng(71)
    for _ in range(20):
        ref = rng.integers(0, 2, size=7).astype(np.uint8)
        s = rng.integers(0, 2, size=3).astype(np.uint8)
        rep = nearest_coset_rep(code, s, ref)
        np.testing.assert_array_equal(syndrome(code, rep), s)
        best = min(int(np.sum((m + ref) % 2)) for m in coset_members(code, s))
        assert int(np.sum((rep + ref) % 2)) == best


def _exhaustive_nearest(code, s, ref):
    """Every syndrome-s string in lexicographic order, the first nearest one
    to ref, and how many are equally near."""
    strings = np.array(list(itertools.product((0, 1), repeat=code.n)), dtype=np.uint8)
    coset = strings[np.all((strings @ code.parity_check.T) % 2 == s, axis=1)]
    dists = (coset ^ ref).sum(axis=1)
    return coset[int(np.argmin(dists))], int(np.count_nonzero(dists == dists.min()))


def _bits(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda b: np.array(b, dtype=np.uint8))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_nearest_coset_rep_matches_exhaustive_enumeration(data):
    # Random [n, k] codes with k <= 6: a systematic generator with its columns
    # permuted; the reference either lies in the coset (distance 0) or not.
    n = data.draw(st.integers(2, 8))
    k = data.draw(st.integers(1, min(n, 6)))
    parity = np.array([data.draw(_bits(n - k)) for _ in range(k)], dtype=np.uint8)
    columns = data.draw(st.permutations(range(n)))
    code = LinearCode(np.hstack([np.eye(k, dtype=np.uint8), parity.reshape(k, n - k)])[:, columns])
    ref = data.draw(_bits(n))
    s = syndrome(code, ref) if data.draw(st.booleans()) else data.draw(_bits(n - k))
    best, ties = _exhaustive_nearest(code, s, ref)
    assert nearest_coset_rep(code, s, ref).tolist() == best.tolist()
    if np.array_equal(syndrome(code, ref), s):
        assert ties == 1 and best.tolist() == ref.tolist()


def test_nearest_coset_rep_breaks_ties_lexicographically():
    # Every syndrome and reference of the named codes; rep41's cosets of
    # weight-2 strings have tied nearest members (rep31 and hamming74 are
    # perfect, so theirs never tie).
    tied = 0
    for name in ("rep31", "rep41", "hamming74"):
        code = named_code(name)
        for s in itertools.product((0, 1), repeat=code.n - code.k):
            for ref in itertools.product((0, 1), repeat=code.n):
                ref = np.array(ref, dtype=np.uint8)
                best, ties = _exhaustive_nearest(code, np.array(s, dtype=np.uint8), ref)
                assert nearest_coset_rep(code, s, ref).tolist() == best.tolist()
                tied += ties > 1
    assert tied > 0


def test_nearest_coset_rep_tie_is_deterministic():
    code = named_code("rep41")
    s = np.array([1, 0, 0], dtype=np.uint8)
    ref = np.zeros(4, dtype=np.uint8)
    a = nearest_coset_rep(code, s, ref)
    b = nearest_coset_rep(code, s, ref)
    np.testing.assert_array_equal(a, b)
    assert weight(a) == 1  # two weight-1 members tie; one is picked stably


def test_hamming_ball_matches_itertools_enumeration():
    center = np.array([1, 0, 1, 1], dtype=np.uint8)
    for radius in range(3):
        ball = hamming_ball_around(center, radius)
        want = [
            v for v in itertools.product((0, 1), repeat=4)
            if sum(a != b for a, b in zip(v, center)) <= radius
        ]
        assert {tuple(b) for b in ball} == {tuple(w) for w in want}
        assert len(ball) == ball_size(4, radius)
        # the flip patterns: by weight, then in combinations order, shared
        # read-only by every caller
        flips = hamming_ball(4, radius)
        assert [tuple(np.flatnonzero(v)) for v in flips] == [
            c for w in range(radius + 1) for c in itertools.combinations(range(4), w)]
        assert hamming_ball(4, radius) is flips
        assert not flips.flags.writeable


def test_ball_size_is_binomial_sum():
    for n in (3, 7, 10):
        for r in range(n + 1):
            assert ball_size(n, r) == sum(math.comb(n, j) for j in range(r + 1))


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    want = 0.5 + 0.75 * math.log2(4.0 / 3.0)
    assert binary_entropy(0.25) == pytest.approx(want, abs=1e-12)
    assert binary_entropy(0.25) == pytest.approx(binary_entropy(0.75), abs=1e-15)


def test_bits_to_int_most_significant_first():
    assert bits_to_int(np.array([1, 0, 1], dtype=np.uint8)) == 5
    assert bits_to_int(np.array([0, 0, 0, 1], dtype=np.uint8)) == 1
    assert bits_to_int(np.array([], dtype=np.uint8)) == 0


def test_codes_compare_and_hash_by_identity():
    code = named_code("hamming74")
    assert code == code
    assert (code == named_code("hamming74")) is False
    assert {code: 1}[code] == 1
    assert isinstance(hash(named_code("rep31")), int)


def test_linear_code_rejects_rank_deficient_generator():
    with pytest.raises(InputError):
        LinearCode(np.array([[1, 1, 0], [1, 1, 0]], dtype=np.uint8))
