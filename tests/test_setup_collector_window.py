"""``PrivacyPreservingSystem.setup`` and ``.load`` pause the cyclic
collector — through one window, in one place — and hand the caller's
collector state back.

Why the pause is free is ``tests/test_no_cyclic_garbage.py``; what it
buys is in docs/performance.md, "Collector and refinement".
"""

from __future__ import annotations

import gc
import re
import sys
import threading
from pathlib import Path

import pytest

from repro.core import system as system_module
from repro.core.config import SystemConfig
from repro.core.storage import save_published
from repro.core.system import PrivacyPreservingSystem, _collector_paused
from repro.exceptions import ReproError

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def collector():
    """Set the collector on/off for a test; put it back afterwards."""
    was_enabled = gc.isenabled()

    def set_enabled(enabled: bool) -> None:
        (gc.enable if enabled else gc.disable)()

    yield set_enabled
    set_enabled(was_enabled)


def a_config() -> SystemConfig:
    return SystemConfig(k=2, theta=2, seed=1)


class TestTheCallersStateComesBack:
    def test_enabled_before_enabled_after(self, figure1, collector):
        collector(True)
        PrivacyPreservingSystem.setup(*figure1, a_config())
        assert gc.isenabled()

    def test_disabled_before_disabled_after(self, figure1, collector):
        """How ``benchmarks/e2e/stepped.py`` calls it: its replay runs
        with the collector off and must stay that way."""
        collector(False)
        PrivacyPreservingSystem.setup(*figure1, a_config())
        assert not gc.isenabled()

    def test_it_is_off_while_setup_runs(self, figure1, collector, monkeypatch):
        seen = []
        real = system_module.build_cloud

        def spying(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(system_module, "build_cloud", spying)
        collector(True)
        PrivacyPreservingSystem.setup(*figure1, a_config())
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_the_config_is_invalid(self, figure1, collector, enabled):
        config = a_config()
        config.theta = 0  # past __post_init__: only publish notices
        collector(enabled)
        with pytest.raises(ReproError):
            PrivacyPreservingSystem.setup(*figure1, config)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_the_cloud_fails_to_build(
        self, figure1, collector, monkeypatch, enabled
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("no cloud today")

        monkeypatch.setattr(system_module, "build_cloud", broken)
        collector(enabled)
        with pytest.raises(RuntimeError, match="no cloud today"):
            PrivacyPreservingSystem.setup(*figure1, a_config())
        assert gc.isenabled() is enabled


class TestLoadRunsInTheSameWindow:
    @pytest.fixture
    def saved(self, figure1, tmp_path):
        system = PrivacyPreservingSystem.setup(*figure1, a_config())
        return save_published(system.published, tmp_path / "dep")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_state_comes_back(self, figure1, saved, collector, enabled):
        collector(enabled)
        PrivacyPreservingSystem.load(saved, figure1[0])
        assert gc.isenabled() is enabled

    def test_it_is_off_while_the_halves_load_and_the_cloud_builds(
        self, figure1, saved, collector, monkeypatch
    ):
        seen = []

        def spying(name):
            real = getattr(system_module, name)

            def spy(*args, **kwargs):
                seen.append((name, gc.isenabled()))
                return real(*args, **kwargs)

            monkeypatch.setattr(system_module, name, spy)

        for name in ("load_cloud_side", "load_client_side", "build_cloud"):
            spying(name)
        collector(True)
        PrivacyPreservingSystem.load(saved, figure1[0])
        assert seen == [
            ("load_cloud_side", False),
            ("load_client_side", False),
            ("build_cloud", False),
        ]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restored_when_the_directory_is_missing(
        self, figure1, tmp_path, collector, enabled
    ):
        collector(enabled)
        with pytest.raises(ReproError):
            PrivacyPreservingSystem.load(tmp_path / "nowhere", figure1[0])
        assert gc.isenabled() is enabled


class TestOverlappingWindows:
    def test_two_threads_never_leave_it_disabled(self, collector):
        """Whichever window saw the collector on turns it back on; the
        one that opened inside another's pause leaves it alone.  Every
        interleaving of two enter/exit pairs ends enabled."""
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        collector(True)
        barrier = threading.Barrier(2)
        failures: list[BaseException] = []

        def open_and_close(rounds: int) -> None:
            try:
                barrier.wait(timeout=10)
                for _ in range(rounds):
                    with _collector_paused():
                        pass
            except BaseException as exc:  # surfaced on the main thread
                failures.append(exc)

        threads = [
            threading.Thread(target=open_and_close, args=(2000,)) for _ in range(2)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        # (a window may be cut short by the other's exit and run its
        # tail with the collector on: slower, never wrong)
        assert gc.isenabled()

    def test_an_exit_cannot_land_between_a_read_and_its_disable(
        self, collector, monkeypatch
    ):
        """B's window is open; A reads the collector as off and is held
        right there while B exits.  Were B's ``enable`` to land before
        A's ``disable``, A (which saw it off) would leave it off for
        good; B's exit has to wait for A's disable instead."""
        collector(True)
        real_isenabled = gc.isenabled
        parked, release, b_exited = (threading.Event() for _ in range(3))

        def parking_isenabled() -> bool:
            state = real_isenabled()
            if threading.current_thread().name == "A":
                parked.set()
                release.wait(timeout=10)
            return state

        def exit_b() -> None:
            window_b.__exit__(None, None, None)
            b_exited.set()

        def open_and_close_a() -> None:
            with _collector_paused():
                pass

        monkeypatch.setattr(gc, "isenabled", parking_isenabled)
        window_b = _collector_paused()
        window_b.__enter__()
        threads = [
            threading.Thread(target=open_and_close_a, name="A"),
            threading.Thread(target=exit_b, name="B"),
        ]
        threads[0].start()
        assert parked.wait(timeout=10)
        threads[1].start()
        # B's exit gets its chance to run while A is parked
        b_exited.wait(timeout=0.2)
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert real_isenabled()

    @pytest.mark.parametrize(
        "order",
        ["A+ B+ B- A-", "A+ B+ A- B-", "A+ A- B+ B-"],
    )
    def test_every_interleaving_by_hand(self, collector, order):
        collector(True)
        windows = {"A": _collector_paused(), "B": _collector_paused()}
        for step in order.split():
            if step[1] == "+":
                windows[step[0]].__enter__()
                assert not gc.isenabled()
            else:
                windows[step[0]].__exit__(None, None, None)
        assert gc.isenabled()


def test_src_touches_the_collector_in_exactly_one_place():
    """One ``gc.disable()`` — the window — and nothing that collects,
    freezes or retunes: no second path, no knob."""
    calls: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for name in re.findall(r"\bgc\.(\w+)\(", path.read_text()):
            calls.setdefault(name, []).append(str(path.relative_to(SRC)))
    assert calls.get("disable") == ["repro/core/system.py"]
    assert calls.get("enable") == ["repro/core/system.py"]
    for banned in ("freeze", "unfreeze", "collect", "set_threshold"):
        assert banned not in calls, (banned, calls[banned])
