"""Binary container for filter banks, coefficients, and deformation fields.

Layout (all little-endian):

    8 bytes   magic "RSTBANK1"
    5 x u32   K, N_r, N_s, L, spatial-kind code (0 disk harmonics, 1 separable sine)
    N_s f64   scale grid
    K*N_r*N_s*L*L f64   bank values, row-major

followed by zero or more tagged sections, each "tag"(4 ascii bytes) +
u64 payload length + payload:

    META  UTF-8 JSON (configuration echo; carries the layer scale)
    COEF  u32 array count, then per array u32 ndim, u32 dims[], f64 data
    TAU   u32 height, u32 width, then one array in the COEF element layout

Serialization is byte-exact: floats round-trip through raw IEEE-754 bits.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .bank import FilterBank, default_layer_scale
from .deform import DeformationField
from .net import CoeffTensor

MAGIC = b"RSTBANK1"
KIND_CODES = {"fb": 0, "sl": 1}
KIND_NAMES = {code: name for name, code in KIND_CODES.items()}


class ContainerFormatError(ValueError):
    """Malformed container bytes; the message names the failing offset."""


@dataclass
class BankArchive:
    """Everything a container file can carry."""

    bank: FilterBank
    coeffs: list | None = None
    tau: DeformationField | None = None
    meta: dict | None = None


def _section(tag, payload):
    return tag + struct.pack("<Q", len(payload)) + payload


def _encode_array(a):
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    head = struct.pack("<I", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
    return head + a.tobytes()


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise ContainerFormatError(
                f"truncated container: need {n} bytes for {what} at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what):
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what):
        return struct.unpack("<Q", self.take(8, what))[0]

    def f64s(self, count, what):
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def array(self, what):
        ndim = self.u32(f"{what} rank")
        if ndim > 16:
            raise ContainerFormatError(f"implausible rank {ndim} for {what}")
        dims = tuple(self.u32(f"{what} dim") for _ in range(ndim))
        n = 1
        for d in dims:
            n *= d
        return self.f64s(n, f"{what} data").reshape(dims)

    @property
    def exhausted(self):
        return self.pos == len(self.data)


def dump_bank(bank, coeffs=None, tau=None, meta=None):
    """Serialize a FilterBank (plus optional sections) to container bytes."""
    if bank.spatial_kind not in KIND_CODES:
        raise ContainerFormatError(f"unknown spatial kind {bank.spatial_kind!r}")
    out = [MAGIC]
    out.append(
        struct.pack(
            "<5I",
            bank.K,
            bank.n_rotations,
            bank.n_scales,
            bank.stencil,
            KIND_CODES[bank.spatial_kind],
        )
    )
    out.append(np.ascontiguousarray(bank.scale_grid, dtype=np.float64).tobytes())
    out.append(np.ascontiguousarray(bank.values, dtype=np.float64).tobytes())

    full_meta = {"layer_scale": bank.layer_scale}
    if meta:
        full_meta.update(meta)
    out.append(_section(b"META", json.dumps(full_meta, sort_keys=True).encode("utf-8")))

    if coeffs is not None:
        body = [struct.pack("<I", 2 * len(coeffs))]
        for ct in coeffs:
            body.append(_encode_array(ct.a))
            body.append(_encode_array(ct.b))
        out.append(_section(b"COEF", b"".join(body)))

    if tau is not None:
        out.append(_section(b"TAU ", struct.pack("<II", tau.height, tau.width) + _encode_array(tau.coeffs)))

    return b"".join(out)


def load_bank(data):
    """Parse container bytes back into a BankArchive (bit-exact arrays)."""
    r = _Reader(bytes(data))
    magic = r.take(len(MAGIC), "magic")
    if magic != MAGIC:
        raise ContainerFormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    K = r.u32("K")
    n_rot = r.u32("N_r")
    n_sc = r.u32("N_s")
    stencil = r.u32("L")
    if stencil < 3 or stencil % 2 == 0:
        raise ContainerFormatError(f"stencil width L={stencil} at offset {r.pos - 4} must be odd and >= 3")
    kind_code = r.u32("kind")
    if kind_code not in KIND_NAMES:
        raise ContainerFormatError(f"unknown spatial-kind code {kind_code}")
    scale_grid = r.f64s(n_sc, "scale grid")
    values = r.f64s(K * n_rot * n_sc * stencil * stencil, "bank values").reshape(
        K, n_rot, n_sc, stencil, stencil
    )

    meta = None
    coeffs = None
    tau = None
    seen = set()
    while not r.exhausted:
        tag = r.take(4, "section tag")
        length = r.u64("section length")
        start = r.pos
        if tag in seen:
            raise ContainerFormatError(f"duplicate {tag.decode().strip()} section at offset {start - 12}")
        seen.add(tag)
        if tag == b"META":
            try:
                meta = json.loads(r.take(length, "META payload").decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ContainerFormatError(f"bad META payload at offset {start}: {exc}") from exc
            if not isinstance(meta, dict):
                raise ContainerFormatError(f"bad META payload at offset {start}: {type(meta).__name__}, not a JSON object")
            scale = meta.get("layer_scale", 0.0)
            # not a bool, and not NaN, infinite or an integer too large for a float
            if type(scale) not in (int, float) or not abs(scale) <= sys.float_info.max:
                raise ContainerFormatError(f"bad META payload at offset {start}: layer_scale {scale!r} is not a finite number")
        elif tag == b"COEF":
            count = r.u32("coefficient array count")
            if count % 2 != 0:
                raise ContainerFormatError(f"COEF count {count} is not a/b paired")
            arrays = [r.array("coefficient array") for _ in range(count)]
            coeffs = [CoeffTensor(arrays[i], arrays[i + 1]) for i in range(0, count, 2)]
        elif tag == b"TAU ":
            height = r.u32("tau height")
            width = r.u32("tau width")
            tau = DeformationField(r.array("tau coefficients"), height, width)
        else:
            raise ContainerFormatError(f"unknown section tag {tag!r} at offset {start - 12}")
        if r.pos - start != length:
            raise ContainerFormatError(
                f"section {tag!r} declared {length} bytes but used {r.pos - start}"
            )

    layer_scale = default_layer_scale(stencil)
    if meta and "layer_scale" in meta:
        layer_scale = float(meta["layer_scale"])
    bank = FilterBank(KIND_NAMES[kind_code], values, scale_grid, layer_scale)
    return BankArchive(bank=bank, coeffs=coeffs, tau=tau, meta=meta)


def save_bank(path, bank, coeffs=None, tau=None, meta=None):
    """Write a container file; see dump_bank."""
    data = dump_bank(bank, coeffs=coeffs, tau=tau, meta=meta)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_bank(path):
    """Read a container file; see load_bank."""
    with open(path, "rb") as fh:
        return load_bank(fh.read())
