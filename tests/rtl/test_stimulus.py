"""Seeded stimulus drawn as one block per lane, read as columns.

``random_stimulus`` draws a lane's whole stream with one
``getrandbits`` call and keeps the raw 32-bit words.  The oracle here is
the per-port draw loop the stream is defined by: one
``rng.getrandbits(width)`` per port per cycle, ports in declaration
order.  The block draw must give the same values on every supported
Python (CPython fills ``getrandbits(k)`` from whole Mersenne words,
lowest word first, and right-shifts only the top one), and every engine
must simulate a :class:`Stimulus` exactly as it simulates the plain
list of dicts it reads as.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import fifo_pipeline
from repro.designs.catalog import DESIGNS, design_point
from repro.driver import CompileSession
from repro.rtl import (
    BatchedCompiledSimulator,
    CompiledSimulator,
    Module,
    NetlistError,
    Simulator,
    Stimulus,
    VectorCompiledSimulator,
    derive_lane_seed,
    random_stimulus,
    random_stimulus_batch,
)
from repro.rtl.vectorize import _numpy

FLAVORS = ["stdlib"] + (["numpy"] if _numpy() is not None else [])

WIDTHS = st.lists(
    st.one_of(
        st.integers(1, 130),
        st.sampled_from([1, 31, 32, 33, 63, 64, 65, 128]),
    ),
    min_size=1,
    max_size=5,
)


def _oracle(widths, cycles, seed):
    """The per-port draw loop: one getrandbits per port per cycle."""
    rng = random.Random(seed)
    return [
        {f"p{i}": rng.getrandbits(width) for i, width in enumerate(widths)}
        for _ in range(cycles)
    ]


def _passthrough(widths) -> Module:
    """Output ``o<i>`` carries input ``p<i>`` unchanged."""
    module = Module("passthrough")
    for i, width in enumerate(widths):
        port = module.add_input(f"p{i}", width)
        out = module.add_output(f"o{i}", width)
        module.add_cell(
            "or", {"a": port, "b": module.constant(0, width), "out": out}
        )
    module.validate()
    return module


def _expected(widths, cycles, seed):
    return [
        {f"o{i}": vector[f"p{i}"] for i in range(len(widths))}
        for vector in _oracle(widths, cycles, seed)
    ]


@settings(max_examples=60, deadline=None)
@given(widths=WIDTHS, lanes=st.integers(1, 8), cycles=st.integers(0, 50),
       seed=st.integers(0, 2**64 - 1))
def test_block_draw_equals_the_per_port_draws(widths, lanes, cycles, seed):
    module = _passthrough(widths)
    streams = random_stimulus_batch(module, cycles, lanes, seed)
    for lane, stream in enumerate(streams):
        oracle = _oracle(widths, cycles, derive_lane_seed(seed, lane))
        assert len(stream) == cycles
        assert list(stream) == oracle
        assert stream == oracle
        columns = stream.columns()
        for i in range(len(widths)):
            assert columns[f"p{i}"] == [vector[f"p{i}"] for vector in oracle]
        # Re-encoding the values gives a stream that reads the same.
        assert Stimulus.from_vectors(stream.ports, oracle) == stream
        assert list(Stimulus(stream.ports, cycles, stream.words)) == oracle


@settings(max_examples=25, deadline=None)
@given(widths=WIDTHS, lanes=st.integers(1, 8), cycles=st.integers(0, 50),
       seed=st.integers(0, 2**64 - 1))
def test_engines_decode_every_width(widths, lanes, cycles, seed):
    """Each engine's column decoder, through a passthrough netlist."""
    module = _passthrough(widths)
    streams = random_stimulus_batch(module, cycles, lanes, seed)
    expected = [
        _expected(widths, cycles, derive_lane_seed(seed, lane))
        for lane in range(lanes)
    ]
    assert CompiledSimulator(module).run(streams[0]) == expected[0]
    assert BatchedCompiledSimulator(module, lanes).run(streams) == expected
    for flavor in FLAVORS:
        engine = VectorCompiledSimulator(module, lanes, flavor=flavor)
        assert engine.run(streams) == expected, flavor


def test_bias_keeps_its_per_draw_stream():
    module = _passthrough([3, 40])
    rng = random.Random(7)
    oracle = []
    for _ in range(30):
        vector = {}
        for name, width in (("p0", 3), ("p1", 40)):
            if rng.random() < 0.5:
                vector[name] = rng.choice(
                    (0, (1 << width) - 1, 1 << (width - 1))
                )
            else:
                vector[name] = rng.getrandbits(width)
        oracle.append(vector)
    assert random_stimulus(module, 30, seed=7, bias=0.5) == oracle


# -- parity: a Stimulus and the plain dicts it reads as -------------------


@pytest.fixture(scope="module")
def catalog():
    session = CompileSession(opt_level=2)
    modules = {"fifo": fifo_pipeline()}
    for name in sorted(DESIGNS):
        source, component, generators, params = design_point(name)
        modules[name] = session.optimize(
            source, component, params, generators
        ).value.module
    return modules


@pytest.mark.parametrize("name", sorted(DESIGNS) + ["fifo"])
def test_engines_run_a_stimulus_as_its_dicts(catalog, name):
    module = catalog[name]
    lanes = 3
    streams = random_stimulus_batch(module, 24, lanes, seed=11)
    plain = [[dict(vector) for vector in stream] for stream in streams]
    reference = Simulator(module).run_batch(plain)
    assert CompiledSimulator(module).run(streams[0]) == reference[0]
    assert CompiledSimulator(module).run(plain[0]) == reference[0]
    for run in (streams, plain):
        assert BatchedCompiledSimulator(module, lanes).run(run) == reference
        for flavor in FLAVORS:
            engine = VectorCompiledSimulator(module, lanes, flavor=flavor)
            assert engine.run(run) == reference, flavor


def test_partial_dicts_carry_ports_forward_on_every_engine():
    """A port a cycle omits keeps its previous value, from whatever the
    engine held before the run; an empty dict pokes nothing."""
    module = _passthrough([8, 70])
    first = [{"p0": 5, "p1": 1 << 69}]
    stream = [{"p0": 1}, {}, {"p1": 3}, {"p0": 300, "p1": 2 ** 71 - 1}]
    interp = Simulator(module)
    interp.run(first)
    expected = interp.run(stream)
    compiled = CompiledSimulator(module)
    compiled.run(first)
    assert compiled.run(stream) == expected
    engines = [BatchedCompiledSimulator(module, 2)] + [
        VectorCompiledSimulator(module, 2, flavor=flavor)
        for flavor in FLAVORS
    ]
    for engine in engines:
        engine.run([first, [{"p0": 9}]])
        lane_one = Simulator(module)
        lane_one.run([{"p0": 9}])
        assert engine.run([stream, stream]) == [
            expected, lane_one.run(stream)
        ]
        with pytest.raises(NetlistError):
            engine.run([stream, [{"nope": 1}] * len(stream)])
    with pytest.raises(NetlistError):
        compiled.run([{"nope": 1}])
