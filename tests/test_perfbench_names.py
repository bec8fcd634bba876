"""Every name the benchmark tracer wraps resolves on greenlight, and its
install/restore pair leaves the package as it found it."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import greenlight as gl  # noqa: E402

import tracer as tracing  # noqa: E402


def owner_of(module_name, path):
    owner = getattr(gl, module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize("span,module_name,path", tracing.SPANS,
                         ids=[f"{m}.{p}" for _, m, p in tracing.SPANS])
def test_span_target_resolves(span, module_name, path):
    owner, attr = owner_of(module_name, path)
    assert callable(getattr(owner, attr, None)), f"{span}: greenlight.{module_name}.{path}"


def test_install_then_restore_puts_every_original_back():
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "greenlight" or name.startswith("greenlight."))]
    owners = {owner for owner, _ in (owner_of(m, p) for _, m, p in tracing.SPANS)}
    namespaces = modules + sorted(owners - set(modules), key=repr)
    before = [dict(vars(ns)) for ns in namespaces]

    restore = tracing.install(gl, tracing.Tracer())
    try:
        for _, module_name, path in tracing.SPANS:
            owner, attr = owner_of(module_name, path)
            assert getattr(owner, attr).__name__ == "traced", f"{module_name}.{path}"
    finally:
        restore()

    for ns, saved in zip(namespaces, before):
        now = vars(ns)
        assert now.keys() == saved.keys(), ns
        changed = [key for key in saved if now[key] is not saved[key]]
        assert changed == [], (ns, changed)
