import numpy as np
import pytest

from lrdistill import (
    ChoiChannel,
    DensityMatrix,
    complement_channel,
    flagged_depolarizing_channel,
    is_ppt,
    maximally_entangled,
    partial_trace,
    von_neumann_entropy,
    werner_holevo_channel,
)
from lrdistill.channels import channel_from_dict
from lrdistill.errors import (
    BadParameterError,
    DimensionMismatchError,
    NotTracePreservingError,
    StateFormatError,
    SubsystemError,
)

from conftest import antisymmetric_choi, flagged_depolarizing_choi, numerical_rank, random_choi


def identity_channel(d):
    omega = maximally_entangled(d)
    return ChoiChannel(DensityMatrix((d, d), np.outer(omega, omega.conj())))


def rebuild_choi(channel):
    """(id (x) channel) applied to the maximally entangled projector."""
    d = channel.d_in
    j = np.zeros((d * channel.d_out, d * channel.d_out), dtype=complex)
    for i in range(d):
        for k in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, k] = 1.0
            j += np.kron(e, channel.apply(e)) / d
    return j


def test_maximally_entangled_marginals():
    assert np.allclose(maximally_entangled(1), [1.0])
    for d in (2, 3):
        v = maximally_entangled(d)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        m = v.reshape(d, d)
        assert np.allclose(m @ m.conj().T, np.eye(d) / d, atol=1e-15)


def test_identity_channel_apply():
    ch = identity_channel(2)
    assert np.allclose(ch.apply(np.eye(2) / 2), np.eye(2) / 2, atol=1e-12)
    x = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    assert np.allclose(ch.apply(x), x, atol=1e-12)


def test_apply_dimension_check():
    with pytest.raises(DimensionMismatchError):
        identity_channel(2).apply(np.eye(3))


def test_apply_choi_roundtrip():
    for ch in (identity_channel(3), werner_holevo_channel(), flagged_depolarizing_channel(2, 0.5)):
        assert np.max(np.abs(rebuild_choi(ch) - ch.choi.matrix)) <= 1e-9


def test_werner_holevo_choi_entrywise():
    ch = werner_holevo_channel()
    assert ch.d_in == ch.d_out == 3
    assert np.allclose(ch.choi.matrix, antisymmetric_choi(), atol=1e-15)
    assert numerical_rank(ch.choi.matrix) == 3
    assert np.allclose(
        partial_trace(ch.choi, (0,)).matrix, np.eye(3) / 3, atol=1e-12
    )
    assert not is_ppt(ch.choi).is_ppt


def test_werner_holevo_action():
    ch = werner_holevo_channel()
    p0 = np.zeros((3, 3))
    p0[0, 0] = 1.0
    assert np.allclose(ch.apply(p0), (np.eye(3) - p0) / 2, atol=1e-12)
    x = np.arange(9, dtype=float).reshape(3, 3)
    assert np.allclose(ch.apply(x), (np.trace(x) * np.eye(3) - x.T) / 2, atol=1e-10)


def test_complement_of_identity_is_trace():
    comp = complement_channel(identity_channel(2))
    assert comp.d_out == 1
    x = np.array([[0.25, 0.1], [0.1, 0.75]])
    assert np.allclose(comp.apply(x), [[np.trace(x)]], atol=1e-12)


def test_werner_holevo_self_complementary_invariants():
    ch = werner_holevo_channel()
    comp = complement_channel(ch)
    assert comp.choi.dims == (3, 3)
    spec = np.linalg.eigvalsh(ch.choi.matrix)
    spec_c = np.linalg.eigvalsh(comp.choi.matrix)
    assert np.max(np.abs(spec - spec_c)) <= 1e-9
    assert np.allclose(partial_trace(comp.choi, (0,)).matrix, np.eye(3) / 3, atol=1e-9)
    assert not is_ppt(comp.choi).is_ppt


def test_double_complement_spectrum():
    for seed, (d_in, d_out, d_env) in enumerate([(2, 2, 2), (2, 3, 2), (3, 2, 3)]):
        ch = ChoiChannel(random_choi(d_in, d_out, d_env, seed))
        cc = complement_channel(complement_channel(ch))
        spec = np.linalg.eigvalsh(ch.choi.matrix)[::-1]
        spec_cc = np.linalg.eigvalsh(cc.choi.matrix)[::-1]
        k = min(spec.size, spec_cc.size)
        assert np.max(np.abs(spec[:k] - spec_cc[:k])) <= 1e-8
        assert max(spec[k:].max(initial=0.0), spec_cc[k:].max(initial=0.0)) <= 1e-8


def test_complement_entropy_duality():
    for seed in range(4):
        ch = ChoiChannel(random_choi(2, 3, 2, seed + 10))
        comp = complement_channel(ch)
        s_comp = von_neumann_entropy(comp.choi)
        s_out = von_neumann_entropy(partial_trace(ch.choi, (1,)))
        assert abs(s_comp - s_out) <= 1e-9


def test_choi_marginal_invariant():
    channels = [
        identity_channel(2),
        werner_holevo_channel(),
        flagged_depolarizing_channel(2, 0.5),
        flagged_depolarizing_channel(3, 0.25),
        ChoiChannel(random_choi(3, 2, 2, 42)),
    ]
    for ch in channels:
        marginal = partial_trace(ch.choi, (0,)).matrix
        assert np.max(np.abs(marginal - np.eye(ch.d_in) / ch.d_in)) <= 1e-9


def test_flagged_depolarizing_ranks():
    assert numerical_rank(flagged_depolarizing_channel(2, 0.5).choi.matrix) == 5
    assert numerical_rank(flagged_depolarizing_channel(3, 0.5).choi.matrix) == 10


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7, 0.95])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_flagged_depolarizing_choi_is_the_plain_one(d, q):
    assert np.array_equal(flagged_depolarizing_channel(d, q).choi.matrix,
                          flagged_depolarizing_choi(d, q))


def test_flagged_depolarizing_parameter_checks():
    for q in (0.0, 1.0, -0.2, 1.5, "0.5", None, True, float("nan")):
        with pytest.raises(BadParameterError, match="depolarizing strength q must lie in"):
            flagged_depolarizing_channel(2, q)
    with pytest.raises(BadParameterError):
        flagged_depolarizing_channel(1, 0.5)
    with pytest.raises(BadParameterError):
        flagged_depolarizing_channel(2.9)
    with pytest.raises(BadParameterError):
        maximally_entangled(2.7)
    with pytest.raises(BadParameterError, match="exceeds the largest array size"):
        maximally_entangled(10**10)


def test_choi_channel_rejects_wrong_marginal_or_dims():
    rho = DensityMatrix((2, 2), np.diag([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NotTracePreservingError):
        ChoiChannel(rho)
    with pytest.raises(SubsystemError):
        ChoiChannel(DensityMatrix((2, 2, 1), np.eye(4) / 4))
    with pytest.raises(StateFormatError):
        ChoiChannel(np.eye(4) / 4)
    doc = werner_holevo_channel().to_json_dict()
    with pytest.raises(DimensionMismatchError):
        channel_from_dict({**doc, "d_out": 2})


def test_channel_json_roundtrip():
    ch = flagged_depolarizing_channel(2, 0.5)
    back = channel_from_dict(ch.to_json_dict())
    assert (back.d_in, back.d_out) == (ch.d_in, ch.d_out)
    assert np.allclose(back.choi.matrix, ch.choi.matrix, atol=0)
    with pytest.raises(StateFormatError):
        channel_from_dict({"d_in": 2, "d_out": 2})
