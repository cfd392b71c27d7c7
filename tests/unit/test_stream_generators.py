"""The C twins of the paper workloads' stream generators.

Compiled runs fill their ``(ops, vals)`` columns from ``fs_stream``
(:func:`repro.core.timing_kernels.stream_columns`) instead of draining
``Workload.node_stream``.  The generators are the specification: the
twin's columns must equal ``materialize_stream(node_stream(...))``,
and wherever the twin cannot promise that it declines, so the
generator runs and raises exactly what it raises today.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MachineParams, Scheme
from repro.analysis import run_timing
from repro.common.address import AddressLayout
from repro.core import timing_kernels as tk
from repro.system.machine import build_address_space
from repro.workloads import (
    BarnesWorkload,
    FFTWorkload,
    FMMWorkload,
    OceanWorkload,
    RadixWorkload,
    RaytraceWorkload,
)

requires_backend = pytest.mark.skipif(
    tk.get_backend() is None, reason="compiled backend unavailable"
)


def context(params, workload):
    return build_address_space(params, AddressLayout.from_params(params), workload)[1]


def drained(workload, node, ctx):
    return tk.materialize_stream(workload.node_stream(node, ctx))


def hooked(workload, node, ctx):
    """The columns a compiled run hands the engine."""
    return tk.materialize_shared(
        None,
        node,
        lambda: workload.node_stream(node, ctx),
        lambda: tk.stream_columns(workload, node, ctx),
    )


def outcome(produce):
    try:
        ops, vals = produce()
    except Exception as exc:  # the generator's own error, whatever it is
        return ("raised", type(exc), str(exc))
    return ("columns", ops.tobytes(), vals.tobytes())


fractions = st.floats(0.01, 0.3)
intensities = st.floats(0.01, 2.0)
workloads = st.one_of(
    st.builds(
        RadixWorkload,
        key_bytes=st.sampled_from([4, 8, 16, 32]),
        array_fraction=fractions,
        passes=st.integers(1, 3),
        radix_buckets=st.integers(1, 4096),
        intensity=intensities,
    ),
    st.builds(
        FFTWorkload,
        element_bytes=st.sampled_from([4, 8, 16]),
        matrix_fraction=fractions,
        stages=st.integers(1, 3),
        intensity=intensities,
    ),
    st.builds(
        FMMWorkload,
        tree_fraction=fractions,
        particles_fraction=fractions,
        iterations=st.integers(1, 3),
        interactions_per_particle=st.integers(1, 10),
        tree_descend=st.floats(0.0, 1.0),
        intensity=intensities,
    ),
    st.builds(
        OceanWorkload,
        element_bytes=st.sampled_from([4, 8, 16]),
        grid_fraction=fractions,
        sweeps=st.integers(1, 4),
        intensity=intensities,
    ),
    st.builds(
        RaytraceWorkload,
        scene_fraction=fractions,
        stack_depth=st.none() | st.integers(1, 4),
        stack_groups=st.none() | st.integers(1, 4),
        stack_pad_pages=st.none() | st.integers(1, 2),
        tasks_per_node=st.integers(1, 10),
        rays_per_task=st.integers(1, 6),
        reads_per_ray=st.integers(0, 12),
        scene_skew=st.floats(0.5, 4.0),
        intensity=intensities,
    ),
    st.builds(
        BarnesWorkload,
        tree_fraction=fractions,
        bodies_fraction=fractions,
        timesteps=st.integers(1, 2),
        walk_reads_per_body=st.integers(0, 12),
        tree_descend=st.floats(0.0, 1.0),
        build_locks=st.integers(1, 16),
        intensity=intensities,
    ),
)
machines = st.builds(
    MachineParams.scaled_down,
    factor=st.sampled_from([64, 128]),
    nodes=st.sampled_from([1, 2, 4]),
    page_size=st.sampled_from([256, 512]),
    seed=st.integers(0, 2**32),
)


@requires_backend
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(workload=workloads, params=machines, data=st.data())
def test_c_columns_equal_the_generator(workload, params, data):
    ctx = context(params, workload)
    node = data.draw(st.integers(0, params.nodes - 1), label="node")
    want = outcome(lambda: drained(workload, node, ctx))
    assert outcome(lambda: hooked(workload, node, ctx)) == want
    if want[0] == "columns":
        # A configuration the generator runs is one the twin takes.
        columns = tk.stream_columns(workload, node, ctx)
        assert columns is not None
        assert (columns[0].tobytes(), columns[1].tobytes()) == want[1:]


class TestDecline:
    """Where the twin declines, the generator's own behaviour stands."""

    def test_failed_bounds_check_raises_the_generators_index_error(self):
        # 128-byte elements on a one-page grid: the band rows run past
        # the segment, which Segment.address refuses mid-stream.
        params = MachineParams.scaled_down(factor=64, nodes=8, page_size=512)
        workload = OceanWorkload(element_bytes=128, grid_fraction=1e-6)
        ctx = context(params, workload)
        assert tk.stream_columns(workload, 7, ctx) is None
        want = outcome(lambda: drained(workload, 7, ctx))
        assert want[0] == "raised" and want[1] is IndexError
        assert outcome(lambda: hooked(workload, 7, ctx)) == want

    def test_mutated_field_raises_the_generators_error(self):
        params = MachineParams.scaled_down(factor=64, nodes=2, page_size=256)
        workload = RadixWorkload(intensity=0.1)
        ctx = context(params, workload)
        workload.radix_buckets = 0  # past the constructor's check
        assert tk.stream_columns(workload, 0, ctx) is None
        want = outcome(lambda: drained(workload, 0, ctx))
        assert want[1] is ZeroDivisionError
        assert outcome(lambda: hooked(workload, 0, ctx)) == want

    def test_compiled_and_scalar_runs_raise_alike(self):
        params = MachineParams.scaled_down(factor=64, nodes=8, page_size=512)
        errors = []
        for fast in (True, False):
            workload = OceanWorkload(element_bytes=128, grid_fraction=1e-6)
            with pytest.raises(IndexError) as info:
                run_timing(params, Scheme.V_COMA, workload, 8, fast=fast)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_randrange_bound_of_2_to_the_32_declines(self):
        # A 2**35-byte histogram: randrange(2**32) per histogram write,
        # past the 32-bit mt_randbelow.  The generator still runs (16
        # keys per pass), and the engine gets its columns.
        params = MachineParams.scaled_down(factor=64, nodes=2, page_size=256)
        fraction = (2**35 * 64) / (params.am_size * params.nodes)
        workload = RadixWorkload(array_fraction=fraction, intensity=1e-12)
        ctx = context(params, workload)
        assert ctx.segment("histogram").size // 8 >= 2**32
        assert tk.stream_columns(workload, 1, ctx) is None
        want = outcome(lambda: drained(workload, 1, ctx))
        assert want[0] == "columns"
        assert outcome(lambda: hooked(workload, 1, ctx)) == want

    def test_subclass_overriding_node_stream_never_takes_the_c_path(self):
        class FirstHundred(RadixWorkload):
            def node_stream(self, node, ctx):
                stream = super().node_stream(node, ctx)
                return (event for _, event in zip(range(100), stream))

        params = MachineParams.scaled_down(factor=64, nodes=2, page_size=256)
        workload = FirstHundred(intensity=0.1)
        ctx = context(params, workload)
        assert tk.stream_columns(workload, 0, ctx) is None
        ops, vals = hooked(workload, 0, ctx)
        assert len(ops) == len(vals) == 100


@requires_backend
class TestSelfTest:
    """The load-time probe refuses a library whose twins diverge."""

    def test_real_library_passes(self):
        backend = tk.get_backend()
        assert tk._self_test(backend.ffi, backend.lib) is None

    def test_diverging_stream_is_refused(self, monkeypatch):
        real = tk._run_recipe

        def skewed(ffi, lib, recipe):
            ops, vals = real(ffi, lib, recipe)
            vals[-1] += 64
            return ops, vals

        monkeypatch.setattr(tk, "_run_recipe", skewed)
        backend = tk.get_backend()
        assert "raytrace stream diverges" in tk._self_test(backend.ffi, backend.lib)
