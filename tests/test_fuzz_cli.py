"""Random descriptor JSON, weight blobs, input sequences and hardware
configs fed through the command line: every run ends in a documented exit
code, and a failed run prints one line on stderr and no traceback."""
import copy
import dataclasses
import json
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epursim import arch, cli, presets
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
def _valid_descriptor(draw):
    """A valid descriptor of up to three small layers."""
    dim = draw(st.integers(1, 4))
    doc = {"input_dim": dim, "numeric_precision": draw(st.sampled_from(["fp32", "fp16"])),
           "layers": []}
    for _ in range(draw(st.integers(1, 3))):
        hidden, bidirectional = draw(st.integers(1, 4)), draw(st.booleans())
        doc["layers"].append({
            "hidden_size": hidden, "input_size": dim, "peephole": draw(st.booleans()),
            "direction": "bidirectional" if bidirectional else "forward_only"})
        dim = hidden * (2 if bidirectional else 1)
    return doc


@st.composite
def _descriptor(draw):
    """A valid descriptor, or one with a field replaced by an arbitrary
    scalar or removed."""
    doc = draw(_valid_descriptor())
    if draw(st.booleans()):
        obj = draw(st.sampled_from([doc, *doc["layers"]]))
        key = draw(st.sampled_from(sorted(obj)))
        if draw(st.booleans()):
            del obj[key]
        else:
            obj[key] = draw(_json)
    return doc


_SIZE_KEYS = ("input_dim", "hidden_size", "input_size")
_ENUM_KEYS = ("numeric_precision", "direction")
# values each kind of field must refuse: strings or bools where numbers go,
# floats, zero and negative sizes, sizes past 32 bits; numbers or other
# strings for enums and bools
_not_size = (st.booleans() | st.text(max_size=3) | st.floats(-3, 6) | st.integers(-3, 0)
             | st.sampled_from(["3", "2.0", "true"]) | st.just(2.0)
             | st.integers(2**31, 10**40))
_not_enum = (st.booleans() | st.integers(-1, 2) | st.floats(-1, 2)
             | st.text(max_size=3) | st.sampled_from(["FP32", "forward"]))
_not_bool = (st.integers(-1, 2) | st.floats(-1, 2) | st.none()
             | st.sampled_from(["false", "true", "0", ""]))


@st.composite
def _typed_mutation(draw):
    """A valid descriptor with one field set to a value of the wrong type or
    range, or with one extra key."""
    doc = draw(_valid_descriptor())
    obj = draw(st.sampled_from([doc, *doc["layers"]]))
    if draw(st.booleans()):
        obj[draw(st.text(max_size=4).filter(lambda k: k not in obj))] = draw(_scalars)
        return doc
    key = draw(st.sampled_from(sorted(k for k in obj if k != "layers")))
    obj[key] = draw(_not_size if key in _SIZE_KEYS
                    else _not_enum if key in _ENUM_KEYS else _not_bool)
    return doc


# one forward-only 2x3 layer with peepholes: 4 gates x (6 + 4 + 2 + 2) values
NET = {"input_dim": 3, "layers": [{"hidden_size": 2, "input_size": 3,
                                   "peephole": True}]}
BLOB_VALUES = 4 * (6 + 4 + 2) + 3 * 2


def run(capsys, *argv, documented=DOCUMENTED) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(list(argv))
    # outside pytest, a warning is printed on stderr too
    err = capsys.readouterr().err + "".join(f"{w.message}\n" for w in caught)
    assert rc in documented, (rc, err)
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


def net_weights(tmp_path, capsys):
    """A weight blob for NET, generated on the first call."""
    weights = tmp_path / "net.bin"
    if not weights.exists():
        cli.main(["gen-network", "--layers", "1", "--hidden", "2", "--input-dim", "3",
                  "--peephole", "--out-descriptor", str(tmp_path / "g.json"),
                  "--out-weights", str(weights)])
        capsys.readouterr()
    return weights


@FUZZ
@given(doc=_descriptor() | _json)
def test_descriptor_json(tmp_path, capsys, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run(capsys, "analyze-reuse", "--network", str(path), "--policy", "mwl",
        "--t", "2")


@FUZZ
@given(doc=_typed_mutation())
def test_descriptor_typed_mutations_exit_3(tmp_path, capsys, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "analyze-reuse", "--network", str(path), "--policy", "mwl",
               "--t", "2") == cli.EXIT_PARSE


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
    seq = tmp_path / f"fuzz{suffix}"
    seq.write_bytes(raw)
    run(capsys, "infer", "--network", str(net), "--weights",
        str(net_weights(tmp_path, capsys)), "--input", str(seq))


@FUZZ
@given(t=st.integers(-3, 3), seed=st.integers(-3, 3))
def test_synthetic_input_options(tmp_path, capsys, net, t, seed):
    # a negative seed is a usage error, a length below 1 a bad sequence
    want = cli.EXIT_USAGE if seed < 0 else cli.EXIT_PARSE if t < 1 else cli.EXIT_OK
    assert run(capsys, "infer", "--network", str(net), "--weights",
               str(net_weights(tmp_path, capsys)), "--synthetic-t", str(t),
               "--synthetic-seed", str(seed), documented={want}) == want


@FUZZ
@given(t=st.integers(2**22, 2**200), command=st.sampled_from(["simulate", "compare"]))
def test_extreme_synthetic_length_is_refused_by_the_cost_model(tmp_path, capsys, monkeypatch,
                                                               net, t, command):
    # refused from the shapes and T alone: no frame is drawn, and the
    # missing weight blob is never opened
    monkeypatch.setattr(presets, "random_sequence",
                        lambda *args: pytest.fail("a frame was drawn"))
    rc = cli.main([command, "--network", str(net), "--weights",
                   str(tmp_path / "missing.bin"), "--synthetic-t", str(t)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CAPACITY, err
    assert err.startswith("capacity error: layer 0: intermediate memory needs "), err
    assert err.count("\n") == 1, err


_HW = dataclasses.asdict(arch.HardwareConfig())
# any JSON scalar, half the time one at an edge: non-finite, subnormal, past
# a float's range, a bool or a string where a number goes
_hw_edges = st.sampled_from([None, True, False, -1, 0, 1, 2.5, 1e-300, 1e-320, 10**400,
                             float("inf"), -float("inf"), float("nan"), "", "3"])
_hw_scalars = st.booleans().flatmap(lambda edge: _hw_edges if edge else (
    st.integers() | st.floats() | st.text(max_size=3)))


@pytest.mark.parametrize("key", sorted(k for k in _HW if k != "op_latency")
                         + [f"op_latency.{k}" for k in arch.DEFAULT_OP_LATENCY])
@settings(FUZZ, max_examples=6)
@given(value=_hw_scalars, policy=st.sampled_from(["conventional", "mwl"]))
def test_hw_config_field(tmp_path, capsys, key, value, policy):
    # a valid config with one field (or one op latency) replaced: ok,
    # refused as a bad config or for capacity, or an MU bottleneck.  The
    # 1x8 network runs under the valid config (NET's MU tail would refuse
    # it), so the cost model sees the value.
    desc, weights = tmp_path / "hw_net.json", tmp_path / "hw_net.bin"
    if not desc.exists():
        cli.main(["gen-network", "--layers", "1", "--hidden", "8", "--input-dim", "4",
                  "--out-descriptor", str(desc), "--out-weights", str(weights)])
        capsys.readouterr()
    doc = copy.deepcopy(_HW)
    table, _, name = key.rpartition(".")
    (doc[table] if table else doc)[name] = value
    hw = tmp_path / "hw.json"
    hw.write_text(json.dumps(doc), encoding="utf-8")
    run(capsys, "simulate", "--network", str(desc), "--weights", str(weights),
        "--synthetic-t", "2", "--policy", policy, "--hw-config", str(hw),
        documented={cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_CAPACITY, cli.EXIT_CHECK})


def test_fp16_input_past_range_exits_6_with_one_line(tmp_path, capsys):
    # 70000 is past fp16's largest finite value: the cast to the network's
    # storage precision makes it inf, which is refused without numpy's
    # overflow warning beside the one line
    desc, weights = tmp_path / "n.json", tmp_path / "w.bin"
    cli.main(["gen-network", "--layers", "1", "--hidden", "2", "--input-dim", "2",
              "--precision", "fp16", "--out-descriptor", str(desc),
              "--out-weights", str(weights)])
    capsys.readouterr()
    seq = tmp_path / "in.csv"
    seq.write_text("1.0,70000\n", encoding="utf-8")
    assert run(capsys, "infer", "--network", str(desc), "--weights", str(weights),
               "--input", str(seq)) == cli.EXIT_NUMERIC
