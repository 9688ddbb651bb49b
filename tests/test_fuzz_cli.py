"""Random descriptor JSON, weight blobs and input sequences fed through the
command line: every run ends in a documented exit code, and a failed run
prints one line on stderr and no traceback."""
import json
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epursim import cli
from epursim.netio import MAGIC, VERSION

# what a parser may answer: ok, parse/format, numeric, or a failed check
# (an infer run whose output is not finite)
DOCUMENTED = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_NUMERIC, cli.EXIT_CHECK}

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# small numbers only: a valid descriptor is traced, so its sizes stay tiny
_scalars = (st.none() | st.booleans() | st.integers(-2, 6)
            | st.floats(-3, 6) | st.just(float("nan")) | st.sampled_from(
                ["", "fp32", "fp16", "bidirectional", "forward_only", "3"]))
_json = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=8)


@st.composite
def _descriptor(draw):
    """A valid descriptor of up to three small layers, or one with a field
    replaced by an arbitrary scalar or removed."""
    dim = draw(st.integers(1, 4))
    doc = {"input_dim": dim, "numeric_precision": draw(st.sampled_from(["fp32", "fp16"])),
           "layers": []}
    for _ in range(draw(st.integers(1, 3))):
        hidden, bidirectional = draw(st.integers(1, 4)), draw(st.booleans())
        doc["layers"].append({
            "hidden_size": hidden, "input_size": dim, "peephole": draw(st.booleans()),
            "direction": "bidirectional" if bidirectional else "forward_only"})
        dim = hidden * (2 if bidirectional else 1)
    if draw(st.booleans()):
        obj = draw(st.sampled_from([doc, *doc["layers"]]))
        key = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_json)
    return doc

# one forward-only 2x3 layer with peepholes: 4 gates x (6 + 4 + 2 + 2) values
NET = {"input_dim": 3, "layers": [{"hidden_size": 2, "input_size": 3,
                                   "peephole": True}]}
BLOB_VALUES = 4 * (6 + 4 + 2) + 3 * 2


def run(capsys, *argv) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(list(argv))
    # outside pytest, a warning is printed on stderr too
    err = capsys.readouterr().err + "".join(f"{w.message}\n" for w in caught)
    assert rc in DOCUMENTED, (rc, err)
    assert "Traceback" not in err
    if rc != cli.EXIT_OK:
        assert len(err.strip().splitlines()) == 1, err
    return rc


@pytest.fixture()
def net(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(NET), encoding="utf-8")
    return path


def blob(payload: bytes, header=(MAGIC, VERSION, 0, 0)) -> bytes:
    return struct.pack("<4sIII", *header) + payload


@FUZZ
@given(doc=_descriptor() | _json)
def test_descriptor_json(tmp_path, capsys, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run(capsys, "analyze-reuse", "--network", str(path), "--policy", "mwl",
        "--t", "2")


@FUZZ
@given(raw=st.binary(max_size=64))
def test_descriptor_bytes(tmp_path, capsys, raw):
    path = tmp_path / "fuzz.json"
    path.write_bytes(raw)
    run(capsys, "analyze-reuse", "--network", str(path), "--policy", "mwl",
        "--t", "2")


@FUZZ
@given(raw=st.binary(max_size=48)
       | st.binary(min_size=4 * BLOB_VALUES, max_size=4 * BLOB_VALUES + 8).map(blob)
       | st.tuples(st.sampled_from([MAGIC, b"LSTX"]), st.integers(0, 2),
                   st.integers(0, 2), st.integers(0, 2**32 - 1)).map(
                       lambda header: blob(bytes(4 * BLOB_VALUES), header)))
def test_weight_blob(tmp_path, capsys, net, raw):
    weights = tmp_path / "fuzz.bin"
    weights.write_bytes(raw)
    run(capsys, "infer", "--network", str(net), "--weights", str(weights),
        "--synthetic-t", "2")


@FUZZ
@given(raw=st.binary(max_size=40)
       | st.tuples(st.integers(0, 3), st.integers(0, 4), st.binary(max_size=40)).map(
           lambda t: struct.pack("<II", t[0], t[1]) + t[2]),
       suffix=st.sampled_from([".bin", ".csv"]))
def test_sequence(tmp_path, capsys, net, raw, suffix):
    weights = tmp_path / "net.bin"
    if not weights.exists():
        cli.main(["gen-network", "--layers", "1", "--hidden", "2", "--input-dim", "3",
                  "--peephole", "--out-descriptor", str(tmp_path / "g.json"),
                  "--out-weights", str(weights)])
        capsys.readouterr()
    seq = tmp_path / f"fuzz{suffix}"
    seq.write_bytes(raw)
    run(capsys, "infer", "--network", str(net), "--weights", str(weights),
        "--input", str(seq))
