import ast
import re
import subprocess
import sys
from pathlib import Path

import covlss

SRC = Path(covlss.__file__).parent

# public names that only tests call today, each waiting on a tracked removal:
# single_spike_variance on the criterion 5 reference
ONLY_TESTS_CALL = {"single_spike_variance"}


def test_every_public_name_is_used_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert public - used == ONLY_TESTS_CALL


def test_cli_import_loads_no_process_pool(child_env):
    # replications run on threads in one process; a process pool would load
    # multiprocessing (about 1.3 MB) into every run
    code = (
        "import sys, covlss.cli; "
        "print(' '.join(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_src_imports_only_the_standard_library_and_numpy():
    # the contract behind pyproject's dependencies = ["numpy>=1.23"]
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # absolute
                imported.add(node.module.partition(".")[0])
    assert imported - sys.stdlib_module_names <= {"numpy", "covlss"}


def test_pyproject_version_is_the_package_version():
    # VERSION_STRING, written into every summary.json and verify.json, comes
    # from __version__; read by regex, as tomllib needs Python 3.11
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]+)"$', text, re.M) == [covlss.__version__]
