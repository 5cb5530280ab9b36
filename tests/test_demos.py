"""The demos run, and every name they import from ammhedge exists.

Each demo is run as its own process and must exit 0. Each is also parsed: a
name imported from the package itself must be in `ammhedge.__all__` or be one
of its modules, so shrinking the public API cannot break a demo unnoticed.
The README's count of that API is checked too.
"""

import ast
import fnmatch
import importlib
import importlib.util
import os
import re
import subprocess
import sys

import pytest

import ammhedge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DIR = os.path.join(ROOT, "demos")
DEMOS = sorted(f for f in os.listdir(DEMO_DIR) if f.endswith(".py"))


def _is_module(name):
    return importlib.util.find_spec("ammhedge." + name) is not None


def test_there_are_demos():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # the checkout's package, from a directory of its own
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, os.path.join(DEMO_DIR, demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_imports_exist(demo):
    with open(os.path.join(DEMO_DIR, demo)) as fh:
        tree = ast.parse(fh.read(), filename=demo)
    modules = {}  # local alias -> imported ammhedge module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "ammhedge":
                    modules[a.asname or a.name] = importlib.import_module(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ammhedge":
            source = importlib.import_module(node.module)
            for a in node.names:
                if node.module == "ammhedge" and _is_module(a.name):
                    modules[a.asname or a.name] = importlib.import_module("ammhedge." + a.name)
                elif node.module == "ammhedge" and a.name not in ammhedge.__all__:
                    missing.append(a.name)
                elif not hasattr(source, a.name):
                    missing.append("%s.%s" % (node.module, a.name))
    # attributes read off an imported module, e.g. fpt.h_bar
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append("%s.%s" % (node.value.id, node.attr))
    assert not missing, "%s uses names ammhedge does not export: %s" % (demo, missing)


def test_readme_counts_the_public_api():
    # the README's public-API paragraph gives the count of ammhedge.__all__,
    # names only exported names, and leaves out only the run_* table builders
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    counts = re.findall(r"`ammhedge\.__all__` \((\d+) names\)", text)
    assert counts == [str(len(ammhedge.__all__))]
    # the list below the count, up to the next blank line
    listed, = re.findall(r"`ammhedge\.__all__` \(\d+ names\):\n\n(.*?)\n\n", text, flags=re.S)
    names = set(re.findall(r"`([^`]+)`", listed)) - {"run_*"}
    assert names <= set(ammhedge.__all__), names - set(ammhedge.__all__)
    unlisted = [name for name in ammhedge.__all__
                if name not in names and not fnmatch.fnmatchcase(name, "run_*")]
    assert not unlisted, unlisted
