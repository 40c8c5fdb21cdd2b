"""The package namespace: public names resolve on first use."""

import importlib
import subprocess
import sys

import pytest

import lframes


def test_every_export_is_the_object_its_module_defines():
    for name in lframes.__all__:
        module = importlib.import_module(f"lframes.{lframes._MODULE_OF[name]}")
        value = getattr(lframes, name)
        assert value is getattr(module, name), name
        # the table names the defining module, not one that re-imports the name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_dir_and_star_import_list_every_export():
    assert set(lframes.__all__) <= set(dir(lframes))
    namespace = {}
    exec("from lframes import *", namespace)
    assert set(lframes.__all__) <= namespace.keys()


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lframes.no_such_name
    with pytest.raises(ImportError):
        exec("from lframes import no_such_name", {})
    assert not hasattr(lframes, "is_k_locally_optimal")


def test_import_loads_no_submodule():
    script = (
        "import sys\n"
        "import lframes\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('lframes.'))\n"
        "lframes.FAMILIES\n"
        "loaded.append('|')\n"
        "loaded += sorted(m for m in sys.modules if m.startswith('lframes.'))\n"
        "print(' '.join(loaded))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # FAMILIES loads its module and what that module imports, nothing more
    assert proc.stdout == "| lframes.errors lframes.generators lframes.geometry\n"
    # reductions imports the generators of its sources, which import it only
    # inside functions, so there is no import cycle
    script = "import sys, lframes\nlframes.verify_equivalence\nprint(*sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = [m for m in proc.stdout.split() if m.startswith("lframes.")]
    assert loaded == ["lframes.errors", "lframes.generators", "lframes.geometry",
                      "lframes.graph_core", "lframes.reductions"]
