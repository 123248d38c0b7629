"""Boolean ``REPRO_*`` flags: empty, ``0``, ``false``, ``no`` and ``off``
are off (repro.env.env_flag), at every place that reads one."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.analysis
from repro import MirsC, generate_code
from repro.env import env_flag
from repro.exec import resolve_cache

from tests.helpers import UNIFIED, daxpy

FLAG_VALUES = [
    ("", False), ("0", False), ("false", False), (" Off ", False), ("no", False),
    ("1", True),
]


@pytest.mark.parametrize(("value", "on"), FLAG_VALUES)
def test_no_cache_flag(value, on, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", value)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert (resolve_cache(True) is None) is on
    assert env_flag("REPRO_NO_CACHE") is on


@pytest.mark.parametrize(("value", "on"), FLAG_VALUES)
def test_static_certify_flag(value, on, monkeypatch):
    result = MirsC(UNIFIED).schedule(daxpy())
    certified = []
    real = repro.analysis.certify_code

    def recording(code, schedule):
        certified.append(schedule.loop)
        return real(code, schedule)

    monkeypatch.setattr(repro.analysis, "certify_code", recording)
    monkeypatch.setenv("REPRO_STATIC_CERTIFY", value)
    generate_code(result)
    assert bool(certified) is on


@pytest.mark.parametrize(("value", "on"), FLAG_VALUES)
def test_import_time_self_check_flags(value, on):
    """The self-check switches are read when their modules import, so a
    fresh interpreter sees each setting."""
    probe = (
        "import json, repro.schedule.colouring as c, "
        "repro.schedule.pressure as p; "
        "print(json.dumps([c.SELF_CHECK, p.SELF_CHECK]))"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1]),
        REPRO_COLOUR_SELFCHECK=value,
        REPRO_PRESSURE_SELFCHECK=value,
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert json.loads(out) == [on, on]
