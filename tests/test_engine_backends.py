"""The compiled engine core vs. the pure-Python reference.

The contract under test (repro.accel): the compiled extension
(``repro.accel._core``) is a drop-in, *bit-identical* replacement for
``repro.utils.simcore`` — same event ordering at equal timestamps, same
float arithmetic in ``BandwidthResource``, same ``events_processed``
accounting, same error behavior — selected at runtime via
``REPRO_ENGINE`` / ``make_engine`` and degrading to the reference
implementation (with a one-line warning) when the extension is not
built.

Every cross-backend test here skips cleanly when the extension is not
compiled, so a checkout without a C compiler still passes tier-1.
``REPRO_ACCEL_DISABLE=1`` makes a built checkout behave like an unbuilt
one (used by the fallback tests).

The hypothesis property test is the drift-catcher: random programs over
every request type must replay identically on both backends. Run it
before touching either engine implementation.
"""

from __future__ import annotations

import os
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.accel as accel
from repro.accel import (
    BACKEND_NAMES,
    build_info,
    compiled_available,
    get_backend,
    make_engine,
    resolve_backend_name,
)
from repro.errors import ConfigError, SimulationError
from repro.utils.simcore import (
    Acquire,
    AllOf,
    Get,
    Put,
    Timeout,
    Wait,
)

requires_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="compiled engine extension not built "
    "(python setup.py build_ext --inplace)",
)


# -- random program interpreter ---------------------------------------
#
# A program is pure data so the same one can be replayed on each
# backend: (n resources, n pools with capacities, event trigger times,
# and per-process op lists). Ops cover every request type the simulator
# yields. Slot holds always release, and waited-on events always fire,
# so generated programs cannot deadlock.

_op = st.one_of(
    st.tuples(
        st.just("timeout"),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
    ),
    st.tuples(
        st.just("acquire"),
        st.integers(min_value=0, max_value=1),
        st.sampled_from([1.0, 4.0, 16.0, 64.0]),
    ),
    st.tuples(
        st.just("slot"),  # Get -> hold -> Put
        st.integers(min_value=0, max_value=1),
        st.sampled_from([0.0, 1.0, 2.0]),
    ),
    st.tuples(st.just("wait"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("spawn_join"), st.integers(min_value=1, max_value=3)),
)

_program = st.fixed_dictionaries(
    {
        "pool_capacities": st.lists(
            st.integers(min_value=1, max_value=3), min_size=2, max_size=2
        ),
        "trigger_times": st.lists(
            st.sampled_from([1.0, 2.5, 4.0]), min_size=2, max_size=2
        ),
        "procs": st.lists(
            st.lists(_op, min_size=1, max_size=5), min_size=1, max_size=6
        ),
    }
)


def _replay(program, backend_name):
    """Run one generated program; return (log, end_time, events)."""
    engine = get_backend(backend_name).Engine()
    resources = [
        engine.bandwidth_resource(f"r{i}", rate=8.0, latency=float(i))
        for i in range(2)
    ]
    pools = [
        engine.slot_pool(f"p{i}", capacity)
        for i, capacity in enumerate(program["pool_capacities"])
    ]
    events = [engine.event() for _ in program["trigger_times"]]
    for event, when in zip(events, program["trigger_times"]):
        engine.schedule(when, event.succeed)

    log = []

    def child(delay):
        yield Timeout(delay)

    def proc(pid, ops):
        for index, op in enumerate(ops):
            if op[0] == "timeout":
                yield Timeout(op[1])
            elif op[0] == "acquire":
                done = yield Acquire(resources[op[1]], op[2])
                log.append((pid, index, "acq", engine.now, done))
                continue
            elif op[0] == "slot":
                pool = pools[op[1]]
                yield Get(pool)
                yield Timeout(op[2])
                yield Put(pool)
            elif op[0] == "wait":
                value = yield Wait(events[op[1]])
                log.append((pid, index, "wait", engine.now, value))
                continue
            elif op[0] == "spawn_join":
                children = [
                    engine.process(child(float(k))) for k in range(op[1])
                ]
                yield AllOf(children)
            log.append((pid, index, op[0], engine.now))

    for pid, ops in enumerate(program["procs"]):
        engine.process(proc(pid, ops))
    end = engine.run()
    return log, end, engine.events_processed


@requires_compiled
class TestBitIdentity:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=_program)
    def test_random_programs_replay_identically(self, program):
        py_log, py_end, py_events = _replay(program, "python")
        cc_log, cc_end, cc_events = _replay(program, "compiled")
        assert cc_log == py_log
        assert cc_end == py_end  # bit-exact, not approx
        assert cc_events == py_events

    def test_bounded_run_until(self):
        def results(backend):
            engine = get_backend(backend).Engine()
            ticks = []

            def clock():
                while True:
                    yield Timeout(1.0)
                    ticks.append(engine.now)

            engine.process(clock())
            end = engine.run(until=5.5)
            return ticks, end, engine.now, engine.events_processed

        assert results("compiled") == results("python")

    def test_bounded_run_max_events_raises_identically(self):
        def boom(backend):
            engine = get_backend(backend).Engine()

            def clock():
                while True:
                    yield Timeout(1.0)

            engine.process(clock())
            with pytest.raises(SimulationError) as info:
                engine.run(max_events=10)
            return str(info.value), engine.events_processed

        assert boom("compiled") == boom("python")

    def test_negative_delay_raises(self):
        engine = get_backend("compiled").Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_at(-0.5, lambda: None)

    def test_reserve_float_identical(self):
        amounts = [1.0, 3.5, 64.0, 0.25, 17.0]

        def book(backend):
            engine = get_backend(backend).Engine()
            resource = engine.bandwidth_resource("link", 7.0, latency=2.5)
            times = [resource.reserve(a) for a in amounts]
            return (
                times,
                resource.busy_time,
                resource.units_moved,
                resource.transfers,
                resource.queue_delay(),
            )

        assert book("compiled") == book("python")


@requires_compiled
class TestCompiledSurface:
    def test_backend_attributes(self):
        assert get_backend("python").Engine().backend == "python"
        assert get_backend("compiled").Engine().backend == "compiled"

    def test_factory_methods_build_native_components(self):
        backend = get_backend("compiled")
        engine = backend.Engine()
        assert type(engine.event()) is backend.Event
        assert type(engine.bandwidth_resource("r", 1.0)) is backend.BandwidthResource
        assert type(engine.slot_pool("p", 4)) is backend.SlotPool

    def test_direct_member_writes(self):
        """The DRAM model (repro/memory/dram.py) writes resource
        accounting fields directly instead of calling ``reserve``; the
        ideal policy overwrites ``issue.rate``. The compiled classes
        must accept the same pokes."""
        engine = get_backend("compiled").Engine()
        resource = engine.bandwidth_resource("vault", 4.0, latency=10.0)
        resource._next_free = 123.5
        resource.busy_time += 7.25
        resource.units_moved += 256.0
        resource.transfers += 3
        resource.rate = 9.0
        assert resource._next_free == 123.5
        assert resource.busy_time == 7.25
        assert resource.units_moved == 256.0
        assert resource.transfers == 3
        assert resource.rate == 9.0
        assert resource._engine.now == 0.0

    def test_build_info_fingerprint(self):
        info = build_info()
        assert info is not None
        assert "compiler" in info and "python_abi" in info


class TestSelection:
    def test_invalid_backend_name_rejected(self):
        with pytest.raises(ConfigError):
            resolve_backend_name("fortran")
        assert set(BACKEND_NAMES) == {"auto", "compiled", "python"}

    def test_explicit_python_always_honored(self):
        assert resolve_backend_name("python") == "python"
        assert make_engine("python").backend == "python"

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "python")
        assert make_engine().backend == "python"

    def test_missing_extension_falls_back_with_warning(self, monkeypatch):
        """REPRO_ENGINE=compiled on a checkout without the built
        extension must degrade to the pure-Python engine with a
        RuntimeWarning — never an error."""
        monkeypatch.setenv("REPRO_ACCEL_DISABLE", "1")
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        monkeypatch.setattr(accel, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = make_engine()
        assert engine.backend == "python"
        # Warn-once: the second construction is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_engine().backend == "python"

    def test_missing_extension_auto_is_silent(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACCEL_DISABLE", "1")
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.setattr(accel, "_warned_fallback", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_engine().backend == "python"
        assert not compiled_available()
        assert build_info() is None

    def test_simulation_runs_on_disabled_extension(self, monkeypatch):
        """A no-compiler checkout still simulates end to end."""
        monkeypatch.setenv("REPRO_ACCEL_DISABLE", "1")
        monkeypatch.setenv("REPRO_ENGINE", "compiled")
        monkeypatch.setattr(accel, "_warned_fallback", True)
        from repro import TraceScale, WorkloadRunner
        from repro.core.policies import BASELINE

        runner = WorkloadRunner("SP", scale=TraceScale.TINY)
        result = runner.run(BASELINE, cache=False)
        assert result.cycles > 0


@requires_compiled
class TestSystemEquivalence:
    """End-to-end: a real simulation is bit-identical across backends
    (the full Figure-8 SMALL grid variant is exercised by
    ``REPRO_FULL_GRID=1`` in ``tests/test_gridrun.py`` run under
    ``REPRO_ENGINE=compiled`` — CI does this on every push)."""

    def test_tiny_run_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        from repro import TraceScale, WorkloadRunner
        from repro.core.policies import BASELINE, FIGURE8_GRID

        def run_all(backend):
            monkeypatch.setenv("REPRO_ENGINE", backend)
            runner = WorkloadRunner("BFS", scale=TraceScale.TINY)
            return {
                p.label: runner.run(p, cache=False)
                for p in (BASELINE,) + FIGURE8_GRID
            }

        py = run_all("python")
        cc = run_all("compiled")
        for label, reference in py.items():
            assert cc[label] == reference, label

    @pytest.mark.skipif(
        not os.environ.get("REPRO_FULL_GRID"),
        reason="full 70-point SMALL grid cross-backend check; "
        "set REPRO_FULL_GRID=1",
    )
    def test_full_figure8_small_grid_cross_backend(self, monkeypatch):
        """The acceptance bar: every point of the Figure-8 SMALL grid,
        cold (no result cache), is bit-identical between backends."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        from repro import TraceScale, WorkloadRunner
        from repro.core.policies import (
            BASELINE,
            FIGURE8_GRID,
            IDEAL_NDP,
            NDP_CTRL_ORACLE,
        )
        from repro.workloads.suite import SUITE_ORDER

        # 10 workloads x 7 policies: the Figure-8 grid plus the oracle
        # and ideal reference points.
        policies = (BASELINE,) + FIGURE8_GRID + (NDP_CTRL_ORACLE, IDEAL_NDP)
        for workload in SUITE_ORDER:

            def run_all(backend):
                monkeypatch.setenv("REPRO_ENGINE", backend)
                runner = WorkloadRunner(workload, scale=TraceScale.SMALL)
                return {
                    p.label: runner.run(p, cache=False) for p in policies
                }

            py = run_all("python")
            cc = run_all("compiled")
            for policy in policies:
                assert cc[policy.label] == py[policy.label], (
                    workload,
                    policy.label,
                )
