"""Property tests of the file readers: SALM, SNBC, mask and plan config.

Each reader is fed random bytes, truncations, single-byte changes and
header-field changes of a valid file.  It either returns or raises a
SpinletsError subclass, nothing else; and whenever it raises, the CLI
command that reads the same file returns 1 and prints no traceback.  The
SALM command, a small transform, also runs on every file the reader
accepts, and returns 0 or 1 without a traceback.
"""

import contextlib
import io
import struct
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlets.cli import main, plan_from_config, plan_to_config_text
from spinlets.errors import SpinletsError
from spinlets.fields import draw_alm, power_law, read_alm, write_alm
from spinlets.grid import build_cubature, polar_cap_mask, read_mask, write_mask
from spinlets.mc import ExperimentPlan
from spinlets.transform import (needlet_analyze, read_coefficients,
                                write_coefficients)

B = 2.0
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=120)


def _written(write, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        write(path, obj)
        return path.read_bytes()


_HALF = power_law(3.0, l_min=2).scaled(0.5)
_ALM = draw_alm(_HALF, _HALF, 2, 8, 11)
VALID_SALM = _written(write_alm, _ALM)
VALID_SNBC = _written(write_coefficients,
                      needlet_analyze(_ALM, build_cubature(2, B)))
VALID_MASK = _written(write_mask, polar_cap_mask(build_cubature(2, B), 0.2))
VALID_CONFIG = plan_to_config_text(ExperimentPlan(
    j_list=(3, 4), channels=3, noise_level=1.0, replicates=2,
    kinds=("masked", "asymmetry", "hausman"), mask_fraction=0.1)).encode()


class Reader(NamedTuple):
    read: Callable
    argv: Callable  # (input path, work dir) -> the CLI command reading it


READERS = {
    "salm": Reader(read_alm, lambda p, d: [
        "transform", "--alm", str(p), "--levels", "4", "--out-dir", str(d / "c"),
        "--force"]),
    "snbc": Reader(read_coefficients, lambda p, d: [
        "estimate", "--kind", "unfeasible", "--coeffs", str(p),
        "--out", str(d / "r.json")]),
    "mask": Reader(read_mask, lambda p, d: [
        "transform", "--alm", str(d / "valid.salm"), "--mask", str(p),
        "--out-dir", str(d / "c")]),
    "config": Reader(plan_from_config, lambda p, d: [
        "mc", "--config", str(p), "--out-dir", str(d / "mc")]),
}


def _struct_field(valid: bytes, offset: int, fmt: str):
    """Strategy: `valid` with the header field at `offset` set to any value
    (any float, NaN and infinities included, for a float64 field)."""
    bits = 8 * struct.calcsize(fmt)
    lo, hi = (-2 ** (bits - 1), 2 ** (bits - 1) - 1) if fmt[-1].islower() \
        else (0, 2 ** bits - 1)
    values = st.floats() if fmt[-1] == "d" else st.integers(lo, hi)
    return values.map(lambda value: _put(valid, offset, fmt, value))


def _put(valid: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(valid)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


def _mask_field(name_and_value) -> bytes:
    name, value = name_and_value
    header, rest = VALID_MASK.decode().split("\n", 1)
    tokens = [f"{name}={value}" if t.startswith(f"{name}=") else t
              for t in header.split(" ")]
    return (" ".join(tokens) + "\n" + rest).encode()


def _config_field(key_and_value) -> bytes:
    key, value = key_and_value
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in VALID_CONFIG.decode().splitlines()]
    return ("\n".join(lines) + "\n").encode()


def _mutations(valid: bytes, fields):
    """Random bytes, truncations, single-byte changes and field changes."""
    def set_byte(pos_and_byte):
        pos, byte = pos_and_byte
        return valid[:pos] + bytes([byte]) + valid[pos + 1:]
    return st.one_of(
        st.binary(max_size=64),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(set_byte),
        fields)


_VALUES = st.one_of(st.integers(0, 10 ** 12).map(str), st.text(max_size=6))
SALM_INPUTS = _mutations(VALID_SALM, st.one_of(
    _struct_field(VALID_SALM, 4, "<I"), _struct_field(VALID_SALM, 8, "<i"),
    _struct_field(VALID_SALM, 12, "<i")))
SNBC_INPUTS = _mutations(VALID_SNBC, st.one_of(
    _struct_field(VALID_SNBC, 4, "<I"), _struct_field(VALID_SNBC, 8, "<I"),
    _struct_field(VALID_SNBC, 12, "<i"), _struct_field(VALID_SNBC, 16, "<I"),
    _struct_field(VALID_SNBC, 20, "<B"), _struct_field(VALID_SNBC, 21, "<d")))
MASK_INPUTS = _mutations(VALID_MASK, st.tuples(
    st.sampled_from(["j", "B", "npix"]), _VALUES).map(_mask_field))
CONFIG_INPUTS = _mutations(VALID_CONFIG, st.tuples(
    st.sampled_from([line.split(" = ")[0] for line
                     in VALID_CONFIG.decode().splitlines()[1:]]),
    st.text(max_size=6)).map(_config_field))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("readers")
    (path / "valid.salm").write_bytes(VALID_SALM)
    return path


def _check(kind: str, data: bytes, work: Path, cli_if_read=False) -> None:
    reader = READERS[kind]
    path = work / f"input.{kind}"
    path.write_bytes(data)
    try:
        reader.read(path)
    except SpinletsError:
        codes = (1,)
    else:
        if not cli_if_read:
            return
        codes = (0, 1)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(reader.argv(path, work))
    assert code in codes, err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_valid_files_are_read(work):
    for kind, data in (("salm", VALID_SALM), ("snbc", VALID_SNBC),
                       ("mask", VALID_MASK), ("config", VALID_CONFIG)):
        path = work / f"valid_input.{kind}"
        path.write_bytes(data)
        READERS[kind].read(path)


@PROPERTY
@given(SALM_INPUTS)
@example(_put(VALID_SALM, 8, "<i", 9))  # spin 9 above L = 8
@example(_put(VALID_SALM, 16, "<d", float("inf")))  # first payload value
def test_salm_reader_returns_or_raises_named_error(work, data):
    _check("salm", data, work, cli_if_read=True)


@PROPERTY
@given(SNBC_INPUTS)
@example(VALID_SNBC[:8] + struct.pack("<I", 4_000_000) + VALID_SNBC[12:])
@example(_put(VALID_SNBC, 21, "<d", float("nan")))
@example(_put(VALID_SNBC, 21, "<d", float("inf")))
@example(_put(VALID_SNBC, 21, "<d", -float("inf")))
@example(_put(VALID_SNBC, 21, "<d", 1.0))
@example(_put(VALID_SNBC, 21, "<d", 1e300))
@example(_put(VALID_SNBC, 4, "<I", 1))
@example(_put(VALID_SNBC, 20, "<B", 7))  # masked flag neither 0 nor 1
@example(_put(VALID_SNBC, 29, "<d", float("nan")))  # first payload value
def test_snbc_reader_returns_or_raises_named_error(work, data):
    _check("snbc", data, work)


def test_nonfinite_payload_values_are_refused_by_index(work):
    # refused by the reader, so no transform or estimator sees them
    for kind, data, message in (
            ("salm", _put(VALID_SALM, 16, "<d", float("inf")),
             "payload value 0 is inf, not a finite number"),
            ("salm", _put(VALID_SALM, len(VALID_SALM) - 8, "<d", -float("inf")),
             f"payload value {(len(VALID_SALM) - 24) // 8} is -inf, "
             "not a finite number"),
            ("snbc", _put(VALID_SNBC, 29, "<d", float("nan")),
             "payload value 0 is nan, not a finite number"),
            ("snbc", _put(VALID_SNBC, 29 + 8 * 5, "<d", float("inf")),
             "payload value 5 is inf, not a finite number")):
        path = work / f"nonfinite.{kind}"
        path.write_bytes(data)
        with pytest.raises(SpinletsError) as err:
            READERS[kind].read(path)
        assert str(err.value) == f"{path}: {message}"


@PROPERTY
@given(MASK_INPUTS)
@example(_mask_field(("j", "5000")))
@example(VALID_MASK + b"\xff\n")
def test_mask_reader_returns_or_raises_named_error(work, data):
    _check("mask", data, work)


@PROPERTY
@given(CONFIG_INPUTS)
@example(VALID_CONFIG.split(b"\n", 1)[1])
@example(VALID_CONFIG + b"B = 2.0\n")
@example(VALID_CONFIG + b"kinds = masked\xe9\n")
@example(_config_field(("kinds", "a%b")))
def test_config_reader_returns_or_raises_named_error(work, data):
    _check("config", data, work)
