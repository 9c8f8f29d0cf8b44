import os
import struct
import zlib

import numpy as np
import pytest

from dynconv.checkpoint import (
    MAGIC,
    BadMagicError,
    CheckpointError,
    ChecksumError,
    MissingTensorError,
    ShapeMismatchError,
    UnexpectedTensorError,
    fnv1a64,
    load_checkpoint,
    load_into,
    save_checkpoint,
    save_model,
)
from dynconv.layers import DcdConv
from dynconv.models import build_resnet
from dynconv.task import build_task_model, make_linear_control
from dynconv.train import train
from dynconv.config import RunConfig


# published FNV-1a 64 reference vectors
@pytest.mark.parametrize(
    "data,digest",
    [
        (b"", 0xCBF29CE484222325),
        (b"a", 0xAF63DC4C8601EC8C),
        (b"foobar", 0x85944171F73967E8),
    ],
)
def test_fnv1a64_reference_vectors(data, digest):
    assert fnv1a64(data) == digest


def test_fnv1a64_is_order_sensitive():
    assert fnv1a64(b"ab") != fnv1a64(b"ba")


def _state(rng):
    return [
        ("alpha", rng.normal(size=(3, 4))),
        ("beta", rng.normal(size=(7,))),
        ("gamma.scalar", np.asarray(2.5)),
    ]


def test_roundtrip_is_bit_exact(tmp_path):
    state = _state(np.random.default_rng(0))
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, state)
    loaded = load_checkpoint(path)
    assert set(loaded) == {"alpha", "beta", "gamma.scalar"}
    for name, value in state:
        assert loaded[name].shape == np.asarray(value).shape
        assert np.array_equal(loaded[name], value)


def test_file_layout_starts_with_magic_and_version(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, _state(np.random.default_rng(1)))
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    version, count = struct.unpack_from("<II", blob, 4)
    assert version == 2 and count == 3
    # trailing checksum covers everything before it
    assert struct.unpack("<Q", blob[-8:])[0] == zlib.crc32(blob[:-8])


def _with_version(blob, version, checksum):
    """`blob` with its version field replaced and its trailer re-signed by `checksum`."""
    body = blob[:4] + struct.pack("<I", version) + blob[8:-8]
    return body + struct.pack("<Q", checksum(body))


def test_version_1_file_is_verified_with_fnv1a64_and_loads(tmp_path):
    state = _state(np.random.default_rng(6))
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, state)
    v1 = _with_version(path.read_bytes(), 1, fnv1a64)
    path.write_bytes(v1)
    loaded = load_checkpoint(path)
    for name, value in state:
        assert loaded[name].tobytes() == np.asarray(value).tobytes()
    path.write_bytes(v1[:-1] + bytes([v1[-1] ^ 1]))
    with pytest.raises(ChecksumError, match="checksum mismatch"):
        load_checkpoint(path)


def test_unknown_version_is_refused(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, _state(np.random.default_rng(7)))
    path.write_bytes(_with_version(path.read_bytes(), 3, zlib.crc32))
    with pytest.raises(CheckpointError, match="unsupported version 3"):
        load_checkpoint(path)


def test_version_1_kxk_w0_fails_shape_check_instead_of_loading_transposed(tmp_path):
    """A version-1 file stored k×k W0 as (C_in, C_out, k²); it must not load into a model that stores (C_out, C_in, k, k)."""
    model = build_resnet(depth=10, dcd="channel_only_3x3", num_classes=5, resolution=16)
    kxk = {f"{layer.name}.w0": layer for layer, *_ in model.iter_layers()
           if isinstance(layer, DcdConv) and layer.k > 1}
    state = []
    for name, value in model.state_items():  # every tensor up to the first k×k W0, which v1 wrote transposed
        if name in kxk:
            state.append((name, value.reshape(kxk[name].c_out, kxk[name].c_in, -1).transpose(1, 0, 2)))
            break
        state.append((name, value))
    path = tmp_path / "r10.ckpt"
    save_checkpoint(path, state)
    path.write_bytes(_with_version(path.read_bytes(), 1, fnv1a64))
    with pytest.raises(ShapeMismatchError, match=rf"'{state[-1][0]}' has shape \(64, 64, 9\)") as info:
        load_into(model, path)
    assert state[-1][0].endswith(".w0") and "(64, 64, 3, 3)" in str(info.value)


def test_bad_magic_is_reported(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, _state(np.random.default_rng(2)))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "s.ckpt"
    path.write_bytes(b"DC")
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_every_truncation_and_malformed_manifest_raises_checkpoint_error(tmp_path):
    path = tmp_path / "two.ckpt"
    save_checkpoint(path, [("w", np.arange(6.0)), ("bias", np.ones(3))])
    blob = path.read_bytes()
    body = blob[:-8]

    def resign(b):
        return b + struct.pack("<Q", zlib.crc32(b))

    # after the 12-byte header, entry 0 is name_len u16, "w", ndim u8, dim u32,
    # offset u64 (16 bytes); entry 1's dim follows its name_len, "bias" and ndim
    dim1 = 12 + 16 + 2 + 4 + 1
    cases = [(blob[:n], "truncated" if 4 <= n < 20 else None) for n in range(len(blob))] + [
        (resign(body[:14] + b"\xff" + body[15:]), "entry 0"),  # non-UTF-8 name
        (resign(body[:8] + struct.pack("<I", 7) + body[12:]), r"entry \d+"),  # inflated count
        (resign(body[:dim1] + struct.pack("<I", 1000) + body[dim1 + 4 :]), "entry 1"),  # shape past payload
        # entry 1 renamed "bias" -> "w"; payload offsets are relative, so the rest still parses
        (resign(body.replace(struct.pack("<H", 4) + b"bias", struct.pack("<H", 1) + b"w")), "entry 1 .*'w'"),
    ] + [  # every single-bit flip
        (blob[:i // 8] + bytes([blob[i // 8] ^ (1 << i % 8)]) + blob[i // 8 + 1 :], None) for i in range(8 * len(blob))
    ]
    for data, message in cases:
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
    # saving a repeated name is refused before any byte is written
    fresh = tmp_path / "dup.ckpt"
    with pytest.raises(CheckpointError, match="'w'"):
        save_checkpoint(fresh, [("w", np.arange(3.0)), ("w", np.ones(3))])
    assert not fresh.exists()


def test_failed_save_leaves_the_previous_checkpoint_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, _state(np.random.default_rng(4)))
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        save_checkpoint(path, _state(np.random.default_rng(5)))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["s.ckpt"]


def test_flipped_payload_byte_fails_checksum(tmp_path):
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, _state(np.random.default_rng(3)))
    blob = bytearray(path.read_bytes())
    blob[-20] ^= 0xFF  # inside the payload region
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError, match="checksum mismatch"):
        load_checkpoint(path)


def test_model_roundtrip_restores_forward_bit_exactly(tmp_path):
    data, _ = make_linear_control(n_train=64, n_val=16, seed=4)
    model = build_task_model(kind="dcd", seed=5)
    cfg = RunConfig(lr=0.2, epochs=2, batch=32, seed=5)
    train(model, data, data, cfg)  # move weights and BN stats off init
    path = tmp_path / "m.ckpt"
    save_model(model, path)

    x = data.inputs[:8]
    want = model.forward(x, train=False)

    fresh = build_task_model(kind="dcd", seed=99)  # different init
    load_into(fresh, path)
    got = fresh.forward(x, train=False)
    assert np.array_equal(np.asarray(want), np.asarray(got))
    for (name_a, val_a), (name_b, val_b) in zip(model.state_items(), fresh.state_items()):
        assert name_a == name_b
        assert np.array_equal(val_a, val_b)


def test_shape_mismatch_names_first_offending_tensor(tmp_path):
    model = build_task_model(kind="dcd", seed=0)
    path = tmp_path / "m.ckpt"
    save_model(model, path)
    other = build_task_model(kind="dcd", num_classes=7, seed=0)
    with pytest.raises(ShapeMismatchError, match="fc.weight"):
        load_into(other, path)


def test_missing_tensor_names_first_missing(tmp_path):
    model = build_task_model(kind="dcd", seed=0)
    state = [(n, v) for n, v in model.state_items() if n != "mix.w0"]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state)
    with pytest.raises(MissingTensorError, match="mix.w0"):
        load_into(model, path)


def test_unknown_tensor_is_rejected(tmp_path):
    model = build_task_model(kind="dcd", seed=0)
    state = model.state_items() + [("ghost", np.zeros(3))]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, state)
    with pytest.raises(UnexpectedTensorError, match="ghost"):
        load_into(model, path)


def test_state_covers_batchnorm_running_stats():
    model = build_task_model(kind="dcd", seed=0)
    names = [n for n, _ in model.state_items()]
    assert "mix.bn.running_mean" in names and "mix.bn.running_var" in names
