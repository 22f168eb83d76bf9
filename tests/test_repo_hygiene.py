"""Repository-level hygiene: everything compiles, the public API is
importable and complete, examples are syntactically sound."""

import pathlib
import py_compile

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def all_python_files():
    files = []
    for directory in ("src", "examples", "benchmarks"):
        files.extend(sorted((REPO / directory).rglob("*.py")))
    return files


@pytest.mark.parametrize("path", all_python_files(),
                         ids=lambda p: str(p.relative_to(REPO)))
def test_compiles(path):
    py_compile.compile(str(path), doraise=True)


def test_public_api_exports_resolve():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_cli_and_simulation_do_not_import_numpy():
    """The package declares no dependencies: start-up, loading every
    experiment and simulating on the scalar cores must not pull numpy
    in (it costs every process start-up time and memory)."""
    import os
    import subprocess
    import sys

    script = "\n".join([
        "import sys",
        "import repro.cli",
        "from repro.config import inorder_machine, sst_machine",
        "from repro.experiments import load_all",
        "from repro.sim.machine import Machine",
        "from repro.workloads import pointer_chase",
        "load_all()",
        "program = pointer_chase(chains=2, nodes_per_chain=16, hops=24)",
        "for config in (inorder_machine(), sst_machine()):",
        "    assert Machine(config).run(program).instructions > 0",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr


def test_examples_have_main_guards():
    for path in sorted((REPO / "examples").glob("*.py")):
        text = path.read_text()
        assert '__name__ == "__main__"' in text, path.name
        assert "def main()" in text, path.name


def test_design_index_names_every_spec_module():
    """DESIGN.md's experiment index names each registered experiment's
    spec module, and every spec-module path it names exists."""
    import re

    from repro.experiments import list_specs

    design = (REPO / "DESIGN.md").read_text()
    for spec in list_specs():
        module = f"src/repro/experiments/e{spec.number:02d}_{spec.slug}.py"
        assert f"`{module}`" in design, f"{module} missing from DESIGN.md"
    for match in re.finditer(r"src/repro/experiments/e\d+_\w+\.py", design):
        assert (REPO / match.group(0)).is_file(), match.group(0)


def test_results_tables_and_documents_in_sync():
    """Generated results come in pairs: for every experiment the stored
    ``.txt`` table must be exactly the JSON document's rendered table
    (regenerate with ``repro experiments run`` after changing either
    side)."""
    results_dir = REPO / "benchmarks" / "results"
    json_paths = (
        sorted(results_dir.glob("e*_*.json")) if results_dir.is_dir()
        else []
    )
    if not json_paths:
        pytest.skip("no generated results in this checkout")
    from repro.experiments import load_result_doc

    txt_stems = {path.stem for path in results_dir.glob("e*_*.txt")}
    assert txt_stems == {path.stem for path in json_paths}
    for json_path in json_paths:
        doc = load_result_doc(json_path)  # validates the schema
        assert doc["experiment"]["name"] == json_path.stem, json_path.name
        txt = json_path.with_suffix(".txt").read_text()
        assert txt == doc["table"]["rendered"] + "\n", (
            f"{json_path.stem}: .txt and .json disagree"
        )


def test_docs_exist_and_are_substantial():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        text = (REPO / name).read_text()
        assert len(text) > 2000, name


def test_no_bytecode_caches_tracked():
    """``__pycache__`` must be ignored, never committed.  Outside a git
    work tree (an exported source tree) nothing is tracked, so the test
    skips there."""
    import subprocess

    gitignore = (REPO / ".gitignore").read_text()
    assert "__pycache__/" in gitignore
    inside = subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"], cwd=REPO,
        capture_output=True, text=True,
    )
    if inside.returncode != 0:
        pytest.skip("not a git work tree: "
                    + (inside.stderr.strip() or "git rev-parse failed"))
    tracked = subprocess.run(
        ["git", "ls-files"], cwd=REPO, capture_output=True, text=True,
        check=True,
    ).stdout
    offenders = [
        line for line in tracked.splitlines()
        if "__pycache__" in line or line.endswith((".pyc", ".pyo"))
    ]
    assert not offenders, offenders
