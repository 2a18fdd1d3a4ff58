"""Every public function or class in ``src/gatesim`` is reached from the package,
and so is every private (``_``-prefixed, not dunder) top-level function, class
or assigned name.

A name counts as reached when some other top-level statement of the package
refers to it as a name or an attribute (docstrings and imports do not
count).  A public name that only tests or perfbench call must be listed below
with the reason it stays; a private one has no such list.  Every dataclass
field must likewise be read as an attribute somewhere in the package, or be
listed with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "gatesim"

KEPT_UNREACHED = {
    "energy_comparison": "the paper's energy comparison; a planned `gatesim energy` wires it, "
                         "and criterion 10 and perfbench call it",
    "load_params": "reads `train-pgnn --out`; a planned `--params` option calls it",
    "annulus_bbox": "criterion 9's reference box",
    "write_events_csv": "the planned episode record's event export",
    "write_track_csv": "the planned episode record's track export",
    "write_dataset_csv": "the only practical producer of `train-pgnn --dataset` input",
}

UNREAD_FIELDS = {
    "GridResult.mode": "written to the grid CSV through `astuple`",
    "GateTrack.center_x": "written to the track CSV through `astuple`",
    "GateTrack.center_y": "written to the track CSV through `astuple`",
    **dict.fromkeys(
        [f"EnergyComparison.{name}" for name in (
            "mean_event_J", "mean_depth_J", "mean_surplus_J", "n_pairs",
            "event_success_rate", "depth_success_rate")],
        "returned by the listed `energy_comparison`",
    ),
    "EnergyCoefficients.j_total": "hashed through its repr by perfbench's `models_digest`",
    "QuinticFit.residual_rms": "the fit evidence ROADMAP item 3 quotes",
}


def _assigned(target):
    """The names a top-level assignment target binds (attribute and item targets bind none)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _assigned(elt)]
    return []


def _defined(top):
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    if isinstance(top, ast.Assign):
        return [name for target in top.targets for name in _assigned(target)]
    if isinstance(top, ast.AnnAssign):
        return _assigned(top.target)
    return []


def _checked(top, private):
    """The names ``top`` defines that a test checks: public functions and
    classes, or private (not dunder) functions, classes and assigned names."""
    if private:
        return [name for name in _defined(top) if name.startswith("_") and not name.endswith("__")]
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
        return [top.name]
    return []


def _unreached(private: bool) -> set:
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defs = {name: top for module in modules for top in module.body for name in _checked(top, private)}
    reached = set()
    for module in modules:
        for top in module.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in defs and defs[name] is not top:
                    reached.add(name)
    return set(defs) - reached


def test_every_public_definition_is_reached_or_listed():
    unreached = _unreached(private=False)
    assert unreached <= set(KEPT_UNREACHED), "unreached and unlisted"
    assert set(KEPT_UNREACHED) <= unreached, "listed but reached, or gone"


def test_every_private_definition_is_reached():
    assert _unreached(private=True) == set()


def test_every_dataclass_field_is_read_or_listed():
    modules = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    fields = {
        f"{top.name}.{stmt.target.id}": stmt.target.id
        for module in modules
        for top in module.body
        if isinstance(top, ast.ClassDef)
        and any(ast.unparse(dec).startswith("dataclass") for dec in top.decorator_list)
        for stmt in top.body
        if isinstance(stmt, ast.AnnAssign) and "ClassVar" not in ast.unparse(stmt.annotation)
    }
    read = {
        node.attr
        for module in modules
        for node in ast.walk(module)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = {key for key, name in fields.items() if name not in read}
    assert unread - set(UNREAD_FIELDS) == set(), "unread and unlisted"
    assert set(UNREAD_FIELDS) - unread == set(), "listed but read, or gone"
