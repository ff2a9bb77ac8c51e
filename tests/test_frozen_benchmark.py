"""The frozen end-to-end benchmark must keep importing what it imports.

``benchmarks/e2e/`` judges every PR and may not be edited by one, so a
deletion in ``src/`` that breaks one of its ``from repro… import name``
lines would break the instrument silently (tier-1 does not run it).  This
guard resolves every such import; names kept only for it are marked as
stubs where they are defined.
"""

from __future__ import annotations

import ast
import importlib
import pathlib

import numpy as np
import pytest

from repro.errors import InputError

E2E = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _repro_imports():
    """``(file, module, name)`` of every import of ``repro`` under e2e/."""
    for path in sorted(E2E.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        yield path.name, alias.name, None


def test_every_repro_import_of_the_frozen_benchmark_resolves():
    # One test, not one per import: the ids must survive the benchmark PR
    # that changes the import list.
    imports = list(_repro_imports())
    assert len(imports) > 10
    broken = []
    for file, module, name in imports:
        try:
            imported = importlib.import_module(module)
            if name is not None and not hasattr(imported, name):
                # ``from package import submodule`` resolves by import.
                importlib.import_module(f"{module}.{name}")
        except ImportError as error:
            broken.append(f"{file}: from {module} import {name} ({error})")
    assert not broken, broken


def test_names_kept_only_for_the_frozen_benchmark_still_behave():
    """What ``layers.py`` does with the stubs: iterate an empty ``task_m``,
    merge zero runs under ``MERGE_KEYS``, count zero grid nodes."""
    from repro.plan.compile import compile_workload
    from repro.shard.join import MERGE_KEYS, ShardedJoinStats
    from repro.shard.merge import merge_comparator_count, oblivious_merge_runs

    stats = ShardedJoinStats()
    assert stats.task_m == []
    assert oblivious_merge_runs([], MERGE_KEYS, counter=[0]) == {}
    assert merge_comparator_count(list(stats.task_m)) == 0
    plan = compile_workload("join", engine="sharded", n1=8, n2=8, shards=2)
    assert plan.nodes_by_op("grid_join") == []
    # ``shard.merge_s`` probes runs built from the always-empty ``task_m``:
    # zero runs, above.  The merge takes one-word runs only, so the
    # three-column shape ``MERGE_KEYS`` names is a typed error, not a crash.
    runs = [{"j": np.array(j), "d1": np.arange(len(j)), "d2": np.array(j)} for j in ([0, 2], [1])]
    with pytest.raises(InputError, match="one-word runs"):
        oblivious_merge_runs(runs, MERGE_KEYS, counter=[0])


def test_the_cipher_keeps_the_call_shapes_the_frozen_benchmark_uses():
    """``layers.py::store_and_memory``: ``ProbabilisticEncryptor(key)``, then
    ``encrypt(block)`` and ``decrypt(ciphertext)`` with one positional
    argument each — tier-1 never imports that file, so the shapes are
    exercised here."""
    from repro.memory.encryption import ProbabilisticEncryptor

    encryptor = ProbabilisticEncryptor(b"bench-key-16byte")
    block = bytes(range(256)) * 16
    ciphertexts = [encryptor.encrypt(block) for _ in range(4)]
    assert [encryptor.decrypt(c) for c in ciphertexts] == [block] * 4
