"""The environment the package reads: two ``REPRO_*`` settings and ``CC``.

Every other setting is a CLI flag or a function argument, set one way
only.  ``REPRO_KERNEL_BACKEND`` forces a compute-kernel backend and
``REPRO_CEXT_CACHE`` moves the compiled-kernel cache; for both, an empty
value counts as unset.
"""

import ast
import tempfile
from pathlib import Path

from repro.kernels import cext, dispatch

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Every environment variable ``src/repro`` reads.  A new one is a second
#: way in for some setting: add it here only with a reason it needs one.
ENV_READS = {"REPRO_KERNEL_BACKEND", "REPRO_CEXT_CACHE", "CC"}


def _env_reads(path: Path) -> set:
    """Names read from the environment in ``path``; a read whose name is
    not a string literal or a module-level string constant reads as
    ``<dynamic>``, any other touch of ``os.environ`` as ``<environ>``."""
    tree = ast.parse(path.read_text(), str(path))
    constants = {
        target.id: node.value.value
        for node in tree.body if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets if isinstance(target, ast.Name)
    }

    def name_of(arg) -> str:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name) and arg.id in constants:
            return constants[arg.id]
        return "<dynamic>"

    def is_environ(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "environ") \
            or (isinstance(node, ast.Name) and node.id == "environ")

    names, read_sites = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if (func.attr == "get" and is_environ(func.value)) \
                    or func.attr == "getenv":
                names.add(name_of(node.args[0]))
                read_sites.add(id(func.value))
        elif isinstance(node, ast.Subscript) and is_environ(node.value):
            names.add(name_of(node.slice))
            read_sites.add(id(node.value))
    for node in ast.walk(tree):
        if is_environ(node) and id(node) not in read_sites:
            names.add("<environ>")
    return names


class TestEnvReads:
    def test_src_reads_only_the_known_names(self):
        found = {}
        for path in sorted(SRC.rglob("*.py")):
            for name in _env_reads(path):
                found.setdefault(name, []).append(str(path.relative_to(SRC)))
        assert set(found) == ENV_READS, found

    def test_scan_sees_each_read_form(self, tmp_path):
        path = tmp_path / "probe.py"
        path.write_text(
            "import os\n"
            "FLAG = 'A_FLAG'\n"
            "os.environ.get(FLAG)\n"
            "os.getenv('B_FLAG')\n"
            "os.environ['C_FLAG']\n"
            "os.environ.get(name)\n"
            "dict(os.environ)\n"
        )
        assert _env_reads(path) == {"A_FLAG", "B_FLAG", "C_FLAG",
                                    "<dynamic>", "<environ>"}


class TestEnvStr:
    """The two string settings: a value is used, unset or empty is the
    default."""

    def test_returns_value(self, monkeypatch, tmp_path):
        monkeypatch.setenv(dispatch.ENV_FLAG, "numpy")
        assert dispatch._resolve(None).name == "numpy"
        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path / "cache"))
        assert cext._cache_dir() == str(tmp_path / "cache")

    def test_empty_counts_as_unset(self, monkeypatch, tmp_path):
        monkeypatch.setenv(dispatch.ENV_FLAG, "")
        assert dispatch._resolve(None) is dispatch._resolve("auto")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv("REPRO_CEXT_CACHE", "")
        assert Path(cext._cache_dir()).parent == tmp_path

    def test_unset_returns_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv(dispatch.ENV_FLAG, raising=False)
        assert dispatch._resolve(None) is dispatch._resolve("auto")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.delenv("REPRO_CEXT_CACHE", raising=False)
        assert Path(cext._cache_dir()).parent == tmp_path
