"""The collector pause around the O(cells) passes (``repro._nogc``)."""

import gc

import pytest

from repro import _nogc


@pytest.fixture
def collector_state():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@_nogc
def _paused_state():
    return gc.isenabled()


@_nogc
def _nested():
    return _paused_state(), gc.isenabled()


@_nogc
def _fails():
    raise RuntimeError("inside the pass")


def test_pauses_and_restores(collector_state):
    gc.enable()
    assert _paused_state() is False
    assert gc.isenabled()


def test_nested_passes_restore_once(collector_state):
    gc.enable()
    assert _nested() == (False, False)
    assert gc.isenabled()


def test_restores_after_an_exception(collector_state):
    gc.enable()
    with pytest.raises(RuntimeError, match="inside the pass"):
        _fails()
    assert gc.isenabled()


def test_leaves_a_disabled_collector_disabled(collector_state):
    gc.disable()
    assert _paused_state() is False
    assert not gc.isenabled()
    with pytest.raises(RuntimeError):
        _fails()
    assert not gc.isenabled()


def test_keeps_the_function_name():
    assert _paused_state.__name__ == "_paused_state"
