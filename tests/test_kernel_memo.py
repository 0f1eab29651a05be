"""The memoized kernels equal the plain loop versions bit for bit.

``measure_qubit``, ``measure_two_qubit_basis`` and the registry's
cross-factor pair measurement compute every branch of an input once and keep
it, and ``apply_correction`` keeps its result, in a memo keyed on the
``StateVector`` object itself.  The reference functions below are the loop
versions they replaced, which compute the branches in row order and keep the
one the uniform selects; a correction's reference is the general
``helpers.apply_unitary``.  Each loop
applies the sampling rules itself: a uniform past the first branch raises
unless the total is within 1e-6 of 1, and a uniform past a total that
rounding left short of 1.0 selects the last branch with positive
probability.  Both are driven with the same fixed uniforms, placed
on and just below every boundary of the cumulative Born probabilities, so
every reachable branch is compared: outcome, probability and post-state
amplitudes, byte for byte.  Joint measurements are compared in both
``PairBasis`` bases, within one factor and across two.
"""

import numpy as np
import pytest

from triqss import qcore, registry
from triqss.harness import PRESET_NAMES, preset_experiment, run_experiment
from triqss.qcore import (
    BELL_ORDER,
    Basis,
    BellOutcome,
    Measurement,
    PairBasis,
    PauliCorrection,
    SignalTag,
    StateVector,
    ZERO_PROB,
    _clamp_probability,
    _pair_residual,
    _qubit_residual,
    apply_correction,
    basis_ket,
    bell_state,
    ghz_state,
    measure_qubit,
    measure_two_qubit_basis,
    signal_state,
)
from triqss.registry import PhotonRegistry

from helpers import (
    TOP_UNIFORM,
    FixedUniform,
    apply_unitary,
    custom_state,
    fresh_memos,
)


# ---------------------------------------------------------------------------
# Reference kernels: the loop versions, uncached


def reference_measure_qubit(state, label, basis, rng):
    plus, minus = basis.eigenvectors
    r_plus = _qubit_residual(state, label, plus)
    p_plus = _clamp_probability(float(np.vdot(r_plus, r_plus).real))
    u = rng.random()
    if u < p_plus:
        outcome, prob, residual = +1, p_plus, r_plus
    else:
        r_minus = _qubit_residual(state, label, minus)
        p_minus = _clamp_probability(float(np.vdot(r_minus, r_minus).real))
        if not abs(p_plus + p_minus - 1.0) <= 1e-6:
            raise AssertionError(
                f"probabilities sum to {p_plus + p_minus}, state not normalized"
            )
        if p_minus == 0.0:  # past the total: +1 is the last possible outcome
            outcome, prob, residual = +1, p_plus, r_plus
        else:
            outcome, prob, residual = -1, p_minus, r_minus
    rest = tuple(l for l in state.labels if l != label)
    post = (
        StateVector._trusted(rest, (residual / np.sqrt(prob)).reshape(-1))
        if rest and prob > 0.0
        else None
    )
    return Measurement(outcome, prob, post)


def reference_measure_two_qubit_basis(state, pair, basis, rng):
    vecs = basis.vectors
    u = rng.random()
    acc = 0.0
    chosen = last = None
    for k in range(4):
        residual = _pair_residual(state, pair, vecs[k])
        prob = _clamp_probability(float(np.vdot(residual, residual).real))
        acc += prob
        if prob > 0.0:
            last = (k, prob, residual)
        if chosen is None and u < acc:
            chosen = (k, prob, residual)
    if (chosen is None or chosen[0] > 0) and not abs(acc - 1.0) <= 1e-6:
        raise AssertionError(f"probabilities sum to {acc}, state not normalized")
    # Past the total, the last row with positive probability is selected.
    index, prob, residual = chosen or last
    rest = tuple(l for l in state.labels if l not in pair)
    post = (
        StateVector._trusted(rest, (residual / np.sqrt(prob)).reshape(-1))
        if rest and prob > 0.0
        else None
    )
    return Measurement(BELL_ORDER[index], prob, post)


def reference_measure_pair_across(f1, f2, pair, basis, rng):
    vecs = basis.vectors
    t1 = np.moveaxis(f1.tensor_view(), f1.axis(pair[0]), 0)
    t2 = np.moveaxis(f2.tensor_view(), f2.axis(pair[1]), 0)
    rest = tuple(l for l in f1.labels if l != pair[0]) + tuple(
        l for l in f2.labels if l != pair[1]
    )
    u = rng.random()
    acc = 0.0
    chosen = last = None
    for k in range(4):
        v = vecs[k].conj()
        residual = np.multiply.outer(t1[0], v[0] * t2[0] + v[1] * t2[1])
        residual += np.multiply.outer(t1[1], v[2] * t2[0] + v[3] * t2[1])
        prob = float(np.vdot(residual, residual).real)
        if prob < ZERO_PROB:
            prob = 0.0
        acc += prob
        if prob > 0.0:
            last = (k, prob, residual)
        if chosen is None and u < acc:
            chosen = (k, prob, residual)
    if (chosen is None or chosen[0] > 0) and not abs(acc - 1.0) <= 1e-6:
        raise AssertionError(f"probabilities sum to {acc}")
    # Past the total, the last row with positive probability is selected.
    index, prob, residual = chosen or last
    if not rest or prob == 0.0:
        return Measurement(BELL_ORDER[index], prob, None)
    return Measurement(
        BELL_ORDER[index],
        prob,
        StateVector._trusted(rest, (residual / np.sqrt(prob)).reshape(-1)),
    )


# ---------------------------------------------------------------------------
# Comparison helpers


def probes(boundaries):
    """Uniforms on and just below every boundary, plus both ends of [0, 1]."""
    out = {0.0, TOP_UNIFORM, 1.0}
    for b in boundaries:
        out.update((b, float(np.nextafter(b, 0.0))))
    return sorted(out)


def assert_same(a, b):
    assert type(a) is type(b) is Measurement
    assert a.probability.hex() == b.probability.hex()
    assert a.outcome == b.outcome and type(a.outcome) is type(b.outcome)
    if a.post_state is None or b.post_state is None:
        assert a.post_state is None and b.post_state is None
    else:
        assert a.post_state.labels == b.post_state.labels
        assert a.post_state.amplitudes.tobytes() == b.post_state.amplitudes.tobytes()


def walk_boundaries(reference):
    """Cumulative boundaries of a loop kernel, found by stepping through it.

    ``reference(u)`` returns the branch the uniform ``u`` selects.  Starting
    at 0, each boundary is the previous one plus the selected branch's
    probability, accumulated in row order exactly as the loop does.  The walk
    ends when the uniform at the last boundary selects no later row.
    """
    bounds = []
    acc = 0.0
    row = -1
    while acc < 1.0:
        result = reference(acc)
        if isinstance(result.outcome, BellOutcome):
            k = BELL_ORDER.index(result.outcome)
        else:
            k = (1 - result.outcome) // 2
        if k <= row:
            break
        row = k
        acc += result.probability
        bounds.append(acc)
    return bounds


def check_qubit(state, label, basis):
    def reference(u):
        return reference_measure_qubit(state, label, basis, FixedUniform(u))

    _, cumulative = qcore._qubit_kernel.__wrapped__(state, label, basis)
    for u in probes([*cumulative, *walk_boundaries(reference)]):
        assert_same(measure_qubit(state, label, basis, FixedUniform(u)), reference(u))


def check_pair(state, pair, basis):
    def reference(u):
        return reference_measure_two_qubit_basis(state, pair, basis, FixedUniform(u))

    _, cumulative = qcore._pair_kernel.__wrapped__(state, pair, basis)
    for u in probes([*cumulative, *walk_boundaries(reference)]):
        result = measure_two_qubit_basis(state, pair, basis, FixedUniform(u))
        assert_same(result, reference(u))


def check_across(f1, f2, pair, basis):
    def reference(u):
        return reference_measure_pair_across(f1, f2, pair, basis, FixedUniform(u))

    _, cumulative = registry._across_kernel.__wrapped__(f1, f2, pair, basis)
    for u in probes([*cumulative, *walk_boundaries(reference)]):
        reg = PhotonRegistry()
        reg.add(f1)
        reg.add(f2)
        result = reg.measure_pair(pair, basis, FixedUniform(u))
        assert_same(result, reference(u))


def check_correction(state, label, correction):
    got = apply_correction(state, label, correction)
    want = apply_unitary(state, label, correction.matrix)
    assert got.labels == want.labels
    if correction is PauliCorrection.IDENTITY:
        # The input itself; the product with I can only flip a zero's sign.
        assert got is state
        assert np.array_equal(got.amplitudes, want.amplitudes)
    else:
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


# ---------------------------------------------------------------------------
# Tests


# The memoized kernels, each its own memo.
MEMOS = (
    (qcore, "_qubit_kernel"),
    (qcore, "_pair_kernel"),
    (registry, "_across_kernel"),
    (registry, "apply_correction"),
)


def identity_key(args):
    """A call's arguments with each state replaced by its identity."""
    return tuple(id(a) if isinstance(a, StateVector) else a for a in args)


def test_every_entry_after_all_presets_equals_the_loop_kernels(monkeypatch):
    # Every distinct argument tuple, states compared by identity, is one
    # entry; the recorder keeps the states alive so their ids stay unique.
    # Equal counts of entries, misses and tuples show nothing was evicted.
    fresh_memos(monkeypatch, globals())
    seen = {name: {} for _, name in MEMOS}
    with monkeypatch.context() as recording:
        for module, name in MEMOS:
            memo = getattr(module, name)

            def recorder(*args, _memo=memo, _calls=seen[name]):
                _calls.setdefault(identity_key(args), args)
                return _memo(*args)

            recording.setattr(module, name, recorder)
        for preset in PRESET_NAMES:
            run_experiment(preset_experiment(preset, rounds=2000, seed=11))

    for module, name in MEMOS:
        info = getattr(module, name).cache_info()
        assert info.currsize == info.misses == len(seen[name]) > 0, name
    for state, label, basis in seen["_qubit_kernel"].values():
        check_qubit(state, label, basis)
    for state, pair, basis in seen["_pair_kernel"].values():
        check_pair(state, pair, basis)
    for f1, f2, pair, basis in seen["_across_kernel"].values():
        check_across(f1, f2, pair, basis)
    for state, label, correction in seen["apply_correction"].values():
        check_correction(state, label, correction)
    print(
        "memo sizes after all presets:",
        {name: getattr(module, name).cache_info().currsize for module, name in MEMOS},
    )


def test_repeated_calls_return_the_same_state_objects():
    # The memos hit only on the very same state object, so equal states must
    # be one object: the cached constructors and the memoized results.
    for tag in SignalTag:
        assert signal_state(tag, ("B", "C")) is signal_state(tag, ("B", "C"))
    for kind in BellOutcome:
        assert bell_state(kind, ("X", "Y")) is bell_state(kind, ("X", "Y"))
    assert ghz_state(("A", "B", "C")) is ghz_state(("A", "B", "C"))
    for basis in Basis:
        for outcome in (+1, -1):
            assert basis_ket(basis, outcome, "Q") is basis_ket(basis, outcome, "Q")
    ghz = ghz_state(("A", "B", "C"))
    for basis in Basis:
        for u in (0.25, 0.75):
            first = measure_qubit(ghz, "A", basis, FixedUniform(u))
            assert measure_qubit(ghz, "A", basis, FixedUniform(u)) is first
            assert first.post_state is not None
    pair = signal_state(SignalTag.PSI_PLUS, ("B", "C"))
    for correction in PauliCorrection:
        first = apply_correction(pair, "C", correction)
        assert apply_correction(pair, "C", correction) is first


LABEL_SETS = (("A",), ("A", "B"), ("A", "B", "C"))


def random_amplitudes(rng, labels, draw):
    """Random amplitudes; two draws in three are nearly ``|0...0>``.

    Their small branches have Born probabilities near 1e-11 and 4e-14, on
    both sides of ``ZERO_PROB``, so the clamp is compared too.
    """
    n = 2 ** len(labels)
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    amps[1:] *= (1.0, 3e-6, 2e-7)[draw % 3]
    return amps


@pytest.mark.parametrize("labels", LABEL_SETS, ids=["1q", "2q", "3q"])
def test_random_states_equal_the_loop_kernels(monkeypatch, labels):
    fresh_memos(monkeypatch, globals())
    rng = np.random.default_rng(2024 + len(labels))
    for draw in range(9):
        state = custom_state(labels, random_amplitudes(rng, labels, draw))
        for label in labels:
            for basis in Basis:
                check_qubit(state, label, basis)
            for correction in PauliCorrection:
                check_correction(state, label, correction)
        for pair in ((a, b) for a in labels for b in labels if a != b):
            for basis in PairBasis:
                check_pair(state, pair, basis)


def test_random_factor_pairs_equal_the_loop_kernel(monkeypatch):
    fresh_memos(monkeypatch, globals())
    rng = np.random.default_rng(77)
    splits = ((("A",), ("B",)), (("A", "X"), ("B",)), (("A",), ("Y", "B")))
    for labels1, labels2 in splits:
        for draw in range(6):
            f1, f2 = (
                custom_state(ls, random_amplitudes(rng, ls, draw))
                for ls in (labels1, labels2)
            )
            for basis in PairBasis:
                check_across(f1, f2, ("A", "B"), basis)


def test_unnormalized_state_still_raises_on_the_draw_path():
    half = StateVector._trusted(("A", "B"), np.full(4, 0.25 + 0j))
    assert measure_qubit(half, "A", Basis.Z, FixedUniform(0.1)).outcome == +1
    with pytest.raises(AssertionError, match="not normalized"):
        measure_qubit(half, "A", Basis.Z, FixedUniform(0.9))
    bell = PairBasis.BELL
    assert measure_two_qubit_basis(half, ("A", "B"), bell, FixedUniform(0.1))
    with pytest.raises(AssertionError, match="not normalized"):
        measure_two_qubit_basis(half, ("A", "B"), bell, FixedUniform(0.9))


class TestNonCanonicalBasis:
    """Joint measurements take a ``PairBasis`` member, never a raw array.

    An array is refused on every call, even one equal to a member's rows,
    and a refused cross-factor call leaves both photons registered.
    """

    BAD = np.eye(4, dtype=complex) * np.array([1, 1, 1, 2])

    def test_rejected_on_every_call(self):
        state = signal_state(SignalTag.PSI_PLUS, ("B", "C"))
        for _ in range(3):
            for basis in PairBasis:
                measure_two_qubit_basis(state, ("B", "C"), basis, FixedUniform(0.5))
                for array in (np.array(basis.vectors), self.BAD):
                    with pytest.raises(TypeError, match="unhashable"):
                        measure_two_qubit_basis(
                            state, ("B", "C"), array, FixedUniform(0.5)
                        )

    def test_rejected_on_every_call_across_factors(self):
        f1 = custom_state(("A",), [0.6, 0.8])
        f2 = custom_state(("B",), [0.8, -0.6j])
        for basis in PairBasis:
            reg = PhotonRegistry()
            reg.add(f1)
            reg.add(f2)
            reg.measure_pair(("A", "B"), basis, FixedUniform(0.5))
            for array in (np.array(basis.vectors), self.BAD):
                reg = PhotonRegistry()
                reg.add(f1)
                reg.add(f2)
                with pytest.raises(TypeError, match="unhashable"):
                    reg.measure_pair(("A", "B"), array, FixedUniform(0.5))
                assert reg.has("A") and reg.has("B")
