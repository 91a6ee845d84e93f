"""The traced benchmark (`bench/tracer.py`) wraps library functions and
methods by name, reading each from its own class or module.  A refactor
that moves one of them elsewhere must fail here, in the unit tests, and
not only in a traced benchmark run."""

import argparse
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("blockfec_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def library_namespaces():
    """Every blockfec module and every class defined in one, each with a
    copy of its namespace."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if name == "blockfec" or name.startswith("blockfec."):
            out.append((module, dict(vars(module))))
            for cls in vars(module).values():
                if inspect.isclass(cls) and cls.__module__ == name:
                    out.append((cls, dict(vars(cls))))
    return out


def test_tracer_wraps_every_target_and_restores_it():
    tracer = load_tracer()
    targets = []
    for table in (tracer.COUNTED, tracer.SPANNED):
        for target, attrs in table.items():
            module_name, _, class_name = target.partition(".")
            module = importlib.import_module(f"blockfec.{module_name}")
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                # the tracer reads the attribute from the owner's own namespace
                assert attr in vars(owner), f"{target}.{attr} is not defined there"
                targets.append((owner, attr, vars(owner)[attr]))
    before = library_namespaces()

    t = tracer.Tracer()
    try:
        t.install()
        for owner, attr, original in targets:
            assert vars(owner)[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        t.uninstall()

    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    for owner, namespace in before:
        changed = [k for k, v in namespace.items() if vars(owner).get(k) is not v]
        assert not changed, f"{owner.__name__}: {changed} not restored"


def test_traced_burst_run_spans_the_product_decode(tmp_path, monkeypatch):
    # SerialProduct.decode goes through ProductCode.decode, so the traced
    # benchmark sees the product's own time and its inner row decodes
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("run", "tracer", "workloads"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    run, workloads = sys.modules["run"], sys.modules["workloads"]
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    w = workloads.WORKLOADS["burst_gf8"]
    monkeypatch.setattr(w, "tiny", True)
    args = argparse.Namespace(seed=1, seconds=3, trace=1, tiny=True)
    _, values, _, _, correct = run.traced(w, args, workloads)
    assert correct
    assert values["burst.product_self_us_per_word"] > 0
    assert values["burst.inner_erased_ratio"] > 0
