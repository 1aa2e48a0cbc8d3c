"""Binary container serialization: golden bytes, round-trips, error offsets."""

import json
import math
import struct

import numpy as np
import pytest

from rstcnn import (
    BankArchive,
    CoeffTensor,
    ContainerFormatError,
    DeformationField,
    FilterBank,
    dump_bank,
    load_bank,
    read_bank,
    save_bank,
)


def tiny_bank(kind="fb", layer_scale=0.0):
    values = np.arange(1 * 2 * 1 * 3 * 3, dtype=np.float64).reshape(1, 2, 1, 3, 3)
    return FilterBank(
        spatial_kind=kind,
        values=values,
        scale_grid=np.array([0.25]),
        layer_scale=layer_scale,
    )


def test_golden_header_bytes():
    bank = tiny_bank()
    data = dump_bank(bank)
    want = b"RSTBANK1" + struct.pack("<5I", 1, 2, 1, 3, 0)
    want += np.array([0.25]).tobytes()
    want += bank.values.tobytes()
    meta = json.dumps({"layer_scale": 0.0}, sort_keys=True).encode()
    want += b"META" + struct.pack("<Q", len(meta)) + meta
    assert data == want


def test_full_round_trip_is_bit_exact(tmp_path):
    bank = tiny_bank(kind="sl", layer_scale=1.5)
    rng = np.random.default_rng(0)
    coeffs = [
        CoeffTensor(rng.standard_normal((1, 2, 3)), rng.standard_normal(2)),
        CoeffTensor(rng.standard_normal((2, 2, 3, 5, 1)), rng.standard_normal(2)),
    ]
    tau = DeformationField(rng.standard_normal((2, 3, 3, 4)), 9, 11)
    meta = {"source": "unit-test", "layer": 1}
    path = tmp_path / "bank.rst"
    n = save_bank(path, bank, coeffs=coeffs, tau=tau, meta=meta)
    assert n == path.stat().st_size
    arc = read_bank(path)
    assert isinstance(arc, BankArchive)
    assert arc.bank.spatial_kind == "sl"
    assert arc.bank.layer_scale == 1.5
    assert arc.bank.pitch == bank.pitch
    np.testing.assert_array_equal(arc.bank.values, bank.values)
    np.testing.assert_array_equal(arc.bank.scale_grid, bank.scale_grid)
    for got, put in zip(arc.coeffs, coeffs):
        np.testing.assert_array_equal(got.a, put.a)
        np.testing.assert_array_equal(got.b, put.b)
    np.testing.assert_array_equal(arc.tau.coeffs, tau.coeffs)
    assert (arc.tau.height, arc.tau.width) == (9, 11)
    assert arc.meta["source"] == "unit-test"
    assert arc.meta["layer_scale"] == 1.5
    # a second dump of the parsed archive reproduces the bytes exactly
    again = dump_bank(arc.bank, coeffs=arc.coeffs, tau=arc.tau, meta=meta)
    assert again == path.read_bytes()


def test_round_trip_without_optional_sections():
    arc = load_bank(dump_bank(tiny_bank()))
    assert arc.coeffs is None and arc.tau is None
    assert arc.meta == {"layer_scale": 0.0}


def test_missing_meta_falls_back_to_default_layer_scale():
    data = dump_bank(tiny_bank(layer_scale=3.0))
    # strip the META section entirely: header + grid + values only
    head_len = 8 + 20 + 8 + 8 * 18
    arc = load_bank(data[:head_len])
    # default for a 3-wide stencil is log2((3 - 1) / 2) = 0
    assert arc.bank.layer_scale == 0.0 and arc.meta is None


def header_only_bank(stencil):
    """Hand-built container bytes: one 1 x 1 x 1 bank of width `stencil`, no sections."""
    head = b"RSTBANK1" + struct.pack("<5I", 1, 1, 1, stencil, 0)
    return head + np.zeros(1 + stencil * stencil).tobytes()


def test_stencil_below_three_rejected_with_offset():
    # L=1 and no META: the default layer scale log2(0) must not be reached
    with pytest.raises(ContainerFormatError, match="L=1 at offset 20"):
        load_bank(header_only_bank(1))


def test_even_stencil_rejected_with_offset():
    # L=2 used to load as a bank with layer scale log2(1/2) = -1
    with pytest.raises(ContainerFormatError, match="L=2 at offset 20"):
        load_bank(header_only_bank(2))


def test_bad_magic_names_offset():
    data = bytearray(dump_bank(tiny_bank()))
    data[0] = ord("X")
    with pytest.raises(ContainerFormatError, match="offset 0"):
        load_bank(bytes(data))


def test_unknown_kind_code_rejected():
    data = bytearray(dump_bank(tiny_bank()))
    data[8 + 16 : 8 + 20] = struct.pack("<I", 7)
    with pytest.raises(ContainerFormatError, match="kind code 7"):
        load_bank(bytes(data))


def test_truncation_is_reported_with_offset():
    data = dump_bank(tiny_bank())
    with pytest.raises(ContainerFormatError, match="truncated"):
        load_bank(data[:11])
    with pytest.raises(ContainerFormatError, match="bank values"):
        load_bank(data[: 8 + 20 + 8 + 16])


def test_duplicate_sections_rejected():
    bank = tiny_bank()
    data = dump_bank(bank)
    meta = json.dumps({"layer_scale": 0.0}, sort_keys=True).encode()
    extra = b"META" + struct.pack("<Q", len(meta)) + meta
    with pytest.raises(ContainerFormatError, match="duplicate META"):
        load_bank(data + extra)
    coeffs = [CoeffTensor(np.zeros((1, 1, 1)), np.zeros(1))]
    data2 = dump_bank(bank, coeffs=coeffs)
    dup = data2[len(data):]
    with pytest.raises(ContainerFormatError, match=f"duplicate COEF section at offset {len(data2)}$"):
        load_bank(data2 + dup)
    tau = DeformationField(np.zeros((2, 3, 3, 4)), 5, 5)
    data3 = dump_bank(bank, tau=tau)
    dup = data3[len(data):]
    with pytest.raises(ContainerFormatError, match=f"duplicate TAU section at offset {len(data3)}$"):
        load_bank(data3 + dup)
    # a repeated section is caught whichever sections come between
    data4 = dump_bank(bank, coeffs=coeffs, tau=tau)
    with pytest.raises(ContainerFormatError, match=f"duplicate COEF section at offset {len(data4)}$"):
        load_bank(data4 + data2[len(data):])


def test_unknown_tag_and_odd_coef_count_rejected():
    data = dump_bank(tiny_bank())
    with pytest.raises(ContainerFormatError, match="unknown section tag"):
        load_bank(data + b"XXXX" + struct.pack("<Q", 0))
    body = struct.pack("<I", 3)
    with pytest.raises(ContainerFormatError, match="not a/b paired"):
        load_bank(data + b"COEF" + struct.pack("<Q", len(body)) + body)


def test_declared_length_mismatch_rejected():
    data = dump_bank(tiny_bank())
    meta = json.dumps({"layer_scale": 0.0}, sort_keys=True).encode()
    bad = b"META" + struct.pack("<Q", len(meta) + 40) + meta
    # declared length larger than the payload: the reader runs off the end
    with pytest.raises(ContainerFormatError):
        load_bank(data[: 8 + 20 + 8 + 8 * 18] + bad)


def test_bad_meta_json_rejected():
    data = dump_bank(tiny_bank())
    head = data[: 8 + 20 + 8 + 8 * 18]
    bad = b"META" + struct.pack("<Q", 4) + b"{oop"
    with pytest.raises(ContainerFormatError, match="bad META payload"):
        load_bank(head + bad)


@pytest.mark.parametrize(
    "payload, cause",
    [
        (b'"layer_scale"', "not a JSON object"),
        (b'{"layer_scale": null}', "layer_scale None is not a finite number"),
        (b'{"layer_scale": "x"}', "layer_scale 'x' is not a finite number"),
        (b'{"layer_scale": NaN}', "layer_scale nan is not a finite number"),
        (b"[1, 2]", "not a JSON object"),
    ],
)
def test_malformed_meta_rejected_with_offset(payload, cause):
    data = dump_bank(tiny_bank())
    head = data[: 8 + 20 + 8 + 8 * 18]
    bad = b"META" + struct.pack("<Q", len(payload)) + payload
    with pytest.raises(ContainerFormatError, match=f"bad META payload at offset {len(head) + 12}: .*{cause}"):
        load_bank(head + bad)


def test_implausible_array_rank_rejected():
    data = dump_bank(tiny_bank())
    body = struct.pack("<I", 2) + struct.pack("<I", 99)
    with pytest.raises(ContainerFormatError, match="implausible rank"):
        load_bank(data + b"COEF" + struct.pack("<Q", len(body)) + body)


def test_dump_rejects_unknown_kind():
    bank = tiny_bank()
    object.__setattr__(bank, "spatial_kind", "mystery")
    with pytest.raises(ContainerFormatError, match="unknown spatial kind"):
        dump_bank(bank)
