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
from tests.conftest import child_env

SRC = Path(__file__).resolve().parents[2] / "src"


def _directory_sim(**kwargs) -> Simulator:
    config = api._build_config(
        "bitar-despain", processors=4,
        topology=TopologyConfig(kind="directory", directory_banks=2))
    return Simulator(config, build_workload("lock-contention", config),
                     **kwargs)


#: Modules an unobserved run must not load: all of ``repro.obs`` but its
#: null object, the conformance battery, the analysis layer (numpy, the
#: process pool) and what only they use.
UNUSED_BY_A_RUN = (
    "numpy", "csv", "concurrent.futures", "repro.analysis",
    "repro.obs.core", "repro.obs.registry", "repro.obs.sampler",
    "repro.obs.tracing", "repro.obs.export", "repro.obs.attribution",
    "repro.obs.heatmap", "repro.verify.conformance", "repro.sim.harness",
    "repro.scenario.compile", "repro.scenario.library",
)

#: Modules a snoop-bus ``bitar-despain`` run without invariant checks
#: must not load: the nine other protocols, the other fabrics, the
#: scheduler, the I/O processor and the invariant checker.
UNUSED_BY_A_SNOOP_RUN = (
    "repro.protocols.write_through", "repro.protocols.goodman",
    "repro.protocols.synapse", "repro.protocols.illinois",
    "repro.protocols.yen", "repro.protocols.berkeley",
    "repro.protocols.dragon", "repro.protocols.firefly",
    "repro.protocols.rudolph_segall", "repro.directory_backend",
    "repro.bus.multibus", "repro.sim.schedule", "repro.memory.io_processor",
    "repro.verify.invariants",
)

LAZY_PACKAGES = ("repro.obs", "repro.verify", "repro.workloads",
                 "repro.analysis", "repro.directory_backend")


def _probe(code: str) -> list:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True,
                          env=child_env(str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_an_unobserved_run_imports_only_what_it_uses():
    loaded = _probe(
        "import json, sys\n"
        "from repro.common.config import SystemConfig, TopologyConfig\n"
        "from repro.sim.engine import Simulator\n"
        "from repro.workloads.registry import build_workload\n"
        "config = SystemConfig(protocol='bitar-despain',\n"
        "    topology=TopologyConfig(kind='directory', directory_banks=2))\n"
        "Simulator(config, build_workload('lock-contention', config)).run()\n"
        f"print(json.dumps([m for m in {UNUSED_BY_A_RUN!r}\n"
        "                  if m in sys.modules]))\n"
    )
    assert loaded == []


def test_an_unobserved_api_run_loads_no_observability_layer():
    loaded = _probe(
        "import json, sys\n"
        "from repro import api\n"
        "api.simulate(processors=2)\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m.startswith('repro.obs.')\n"
        "                  and m != 'repro.obs.null']))\n"
    )
    assert loaded == []


def test_a_snoop_run_loads_one_protocol_and_one_fabric():
    loaded = _probe(
        "import json, sys\n"
        "from repro.common.config import SystemConfig\n"
        "from repro.sim.engine import Simulator\n"
        "from repro.workloads.registry import build_workload\n"
        "config = SystemConfig(protocol='bitar-despain')\n"
        "sim = Simulator(config, build_workload('lock-contention', config),\n"
        "                check_interval=0)\n"
        "sim.run()\n"
        f"print(json.dumps([m for m in {UNUSED_BY_A_SNOOP_RUN!r}\n"
        "                  if m in sys.modules]))\n"
    )
    assert loaded == []


def test_a_run_deriving_no_stream_loads_no_hashlib():
    """``derive_rng`` imports ``hashlib`` (and its ``_hashlib``
    extension) on first use, so a lock workload built next to a seeded
    generator that it never calls does not load it."""
    loaded = _probe(
        "import json, sys\n"
        "from repro.common.config import SystemConfig\n"
        "from repro.sim.engine import Simulator\n"
        "from repro.workloads import lock_contention, scale_probe\n"
        "config = SystemConfig(protocol='bitar-despain')\n"
        "Simulator(config, lock_contention(config)).run()\n"
        "print(json.dumps([m for m in ('hashlib', '_hashlib')\n"
        "                  if m in sys.modules]))\n"
    )
    assert loaded == []


def test_importing_the_cli_loads_no_protocol_module():
    loaded = _probe(
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps([m for m in sys.modules\n"
        "                  if m.startswith(('repro.protocols.',\n"
        "                                   'repro.core.'))\n"
        "                  and m not in ('repro.protocols.base',\n"
        "                                'repro.protocols.features',\n"
        "                                'repro.protocols.table')]))\n"
    )
    assert loaded == []


def test_the_checker_is_built_on_first_use():
    sim = _directory_sim()
    assert "checker" not in vars(sim)
    assert sim.checker is sim.checker
    assert sim.checker.caches == sim.caches


def test_importing_the_cli_loads_no_numpy_or_process_pool():
    loaded = _probe(
        "import json, sys\n"
        "import repro.cli\n"
        "print(json.dumps([m for m in ('numpy', 'concurrent.futures',\n"
        "                  'multiprocessing') if m in sys.modules]))\n"
    )
    assert loaded == []


def test_lazy_packages_resolve_every_export():
    """Every ``__all__`` name is its submodule's object and is listed by
    ``dir()``; an unknown name is an AttributeError.  Importing a
    submodule first must not shadow a same-named export (the workload
    generators live in modules named after them)."""
    problems = _probe(
        "import importlib, json\n"
        "import repro.workloads.lock_contention, repro.workloads.sleep_wait\n"
        "problems = []\n"
        f"for name in {LAZY_PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    for export in package.__all__:\n"
        "        owner = importlib.import_module(package._owners[export])\n"
        "        if getattr(package, export) is not getattr(owner, export):\n"
        "            problems.append(f'{name}.{export} is not its own')\n"
        "        if export not in dir(package):\n"
        "            problems.append(f'{name}.{export} not in dir()')\n"
        "    try:\n"
        "        package.no_such_export\n"
        "        problems.append(f'{name}.no_such_export resolved')\n"
        "    except AttributeError:\n"
        "        pass\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == []


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
