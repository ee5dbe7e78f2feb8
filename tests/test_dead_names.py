"""No code nobody calls: a name defined in the package must be used somewhere
in the runtime.

Every function (methods included), class and module-level assigned name in
src/quantlio/*.py, dunders aside, is counted as a whole word over the Python
files of src/, tools/ and bench/ (bench/tests included). A name whose count
does not exceed its number of definitions has no use outside them, and is
dead. Tests do not count as uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Scene.point_to_patch_distances waits for a caller (ROADMAP item 2).
KNOWN_DEAD = {"point_to_patch_distances"}


def defined_names() -> Counter:
    names = Counter()
    for path in sorted((ROOT / "src" / "quantlio").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[node.name] += 1
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return Counter({name: k for name, k in names.items()
                    if not (name.startswith("__") and name.endswith("__"))})


def test_only_the_known_dead_names_are_unused():
    names = defined_names()
    assert {"Codebook", "qmap_update", "_TAIL_COEFFS", "handle_frame"} <= names.keys()
    text = "\n".join(path.read_text() for top in ("src", "tools", "bench")
                     for path in sorted((ROOT / top).rglob("*.py")))
    dead = {name for name, k in names.items()
            if len(re.findall(rf"\b{re.escape(name)}\b", text)) <= k}
    assert dead == KNOWN_DEAD
