"""A process imports only the modules it runs: the package inits are lazy.

Every check runs in a fresh interpreter, since this one has imported the
whole package by now, and compares module sets; none of them times an
import.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Layers an engine pool worker has no use for.
NOT_ENGINE = {"server", "library", "store", "curation", "campaign", "screening"}

PACKAGES = [
    "repro",
    *(
        f"repro.{name}"
        for name in (
            "baselines campaign core curation datasets dictionary engine experiments "
            "faults library metrics parallel preprocess screening server smiles store "
            "telemetry"
        ).split()
    ),
]


def fresh(statement: str, stdin: bytes = b"") -> object:
    """Run *statement* in a new interpreter and return the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{statement}"],
        input=stdin,
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    )
    return json.loads(done.stdout)


def loaded_after(statement: str, stdin: bytes = b"") -> set:
    return set(fresh(f"{statement}\nprint(json.dumps(sorted(sys.modules)))", stdin))


def layers(modules: set) -> set:
    return {name.split(".")[1] for name in modules if name.startswith("repro.")}


def test_engine_backends_import_no_other_layer():
    assert not layers(loaded_after("import repro.engine.backends")) & NOT_ENGINE


def test_a_pool_worker_unpickles_only_the_engine(plain_codec):
    """What a spawned pool worker unpickles: its initializer, a task and the codec."""
    from repro.engine.backends import _compress_chunk, _init_worker

    payload = pickle.dumps((_init_worker, _compress_chunk, plain_codec))
    loaded = loaded_after("import pickle\npickle.loads(sys.stdin.buffer.read())", payload)
    assert "repro.engine.backends" in loaded
    assert not layers(loaded) & NOT_ENGINE
    assert "numpy" not in loaded


def test_a_fleet_worker_does_not_import_numpy():
    loaded = loaded_after("import repro.server.fleet")
    assert "repro.server.fleet" in loaded
    assert "numpy" not in loaded
    assert not layers(loaded) & {"engine", "curation", "campaign", "screening"}


def test_importing_the_package_imports_no_subpackage():
    assert layers(loaded_after("import repro")) <= {"_lazy"}


def test_dir_lists_every_export_before_it_resolves():
    missing = fresh(
        "import importlib\n"
        f"packages = {PACKAGES!r}\n"
        "modules = [importlib.import_module(name) for name in packages]\n"
        "print(json.dumps({m.__name__: sorted(set(m.__all__) - set(dir(m))) for m in modules}))"
    )
    assert missing == {name: [] for name in PACKAGES}
