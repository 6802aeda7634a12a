"""One protocol execution core: every run goes through the transition
tables' guard-bit lookup, and nothing selects another core."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.common.config import TopologyConfig
from repro.protocols import get_protocol
from repro.sim.engine import Simulator
from repro.workloads.registry import build_workload

SRC = Path(__file__).resolve().parents[2] / "src"


def _directory_sim(**kwargs) -> Simulator:
    config = api._build_config(
        "bitar-despain", processors=4,
        topology=TopologyConfig(kind="directory", directory_banks=2))
    return Simulator(config, build_workload("lock-contention", config),
                     **kwargs)


def test_building_a_simulator_does_not_import_numpy():
    probe = (
        "import sys\n"
        "from repro.common.config import SystemConfig, TopologyConfig\n"
        "from repro.sim.engine import Simulator\n"
        "from repro.workloads.registry import build_workload\n"
        "config = SystemConfig(protocol='bitar-despain',\n"
        "    topology=TopologyConfig(kind='directory', directory_banks=2))\n"
        "Simulator(config, build_workload('lock-contention', config))\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_other_dispatch_values_raise():
    with pytest.raises(ValueError, match="dispatch"):
        _directory_sim(dispatch="interpreted")
    with pytest.raises(ValueError, match="dispatch"):
        get_protocol("illinois", "interpreted")
    assert get_protocol("illinois", "compiled") is get_protocol("illinois")


def test_cli_dispatch_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--protocol", "illinois", "--processors", "2",
              "--dispatch", "compiled"])
    assert info.value.code == 2
    assert "--dispatch" in capsys.readouterr().err


def test_dispatch_environment_variable_changes_nothing(monkeypatch):
    reference = api.simulate("illinois", "sharing", processors=3).to_dict()
    monkeypatch.setenv("REPRO_DISPATCH", "interpreted")
    payload = api.simulate("illinois", "sharing", processors=3).to_dict()
    assert "dispatch" not in payload
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(reference, sort_keys=True)
