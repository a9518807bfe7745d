"""Per-step code names enum members through module constants.

On CPython <= 3.11 the enum metaclass (``EnumType``; ``EnumMeta`` on 3.10)
defines ``__getattr__``, which puts *every* class-attribute read of every
enum on the interpreter's slow ``slot_tp_getattr_hook``: ``x.state is
CoreState.RUNNING`` costs about seven times ``x.state is _RUNNING``
(118 ns against 16.5 ns under ``timeit`` on 3.11.7).  A lookup is not a
call, so no profile shows it — only this test keeps it from coming back.
Each enum therefore binds its members once, in one unpacking line beside
its definition (``(_RUNNING, _WAIT_MEM, ...) = CoreState``), and the code
the simulator runs per step, per flit or per transaction names those
constants.  Do not "tidy" them back into ``EnumClass.MEMBER``: the
constants are right on every CPython and merely free on >= 3.12.

Signature defaults, decorators, class bodies and module level are evaluated
once at import and may spell the member out; tests, reports and the other
packages (``system``, ``dse``, ``apps``, ``telemetry``) may too.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The packages and modules whose functions run per step, flit or transaction.
HOT_PACKAGES = ("kernel", "noc", "pe", "bridge", "mpmmu", "dma", "cache", "mem")
HOT_MODULES = (
    "faults.py", "empi/runtime.py", "empi/collectives.py", "empi/smsync.py",
    "empi/schedules.py",
)

_ENUM_BASES = {"Enum", "IntEnum"}


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def enum_members(root: Path = SRC) -> dict[str, set[str]]:
    """``{enum class name: its member names}`` over every module of ``root``."""
    found: dict[str, set[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_base_name(base) in _ENUM_BASES for base in node.bases):
                continue
            members = found.setdefault(node.name, set())
            for statement in node.body:
                if isinstance(statement, ast.Assign):
                    members.update(
                        target.id for target in statement.targets
                        if isinstance(target, ast.Name)
                    )
    return found


def hot_files() -> list[Path]:
    files = [SRC / name for name in HOT_MODULES]
    for package in HOT_PACKAGES:
        files.extend(sorted((SRC / package).rglob("*.py")))
    return files


def member_reads_in_bodies(
    path: Path, enums: dict[str, set[str]]
) -> list[tuple[int, str]]:
    """``(line, "Enum.MEMBER")`` for every member read a call would execute."""
    offenders = []

    def scan(node: ast.AST) -> None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr in enums.get(node.value.id, ())
        ):
            offenders.append((node.lineno, f"{node.value.id}.{node.attr}"))
        for child in ast.iter_child_nodes(node):
            scan(child)

    def visit(node: ast.AST) -> None:
        # Only the *body* of a function runs per call: its defaults,
        # decorators and annotations are evaluated once, where it is defined.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for statement in child.body:
                    scan(statement)
            elif isinstance(child, ast.Lambda):
                scan(child.body)
            else:
                visit(child)

    visit(ast.parse(path.read_text()))
    return offenders


def test_the_scan_sees_a_member_read_in_a_body_and_nothing_else(tmp_path):
    (tmp_path / "sample.py").write_text(
        "import enum\n"
        "class Colour(enum.Enum):\n"
        "    RED = 1\n"
        "    @classmethod\n"
        "    def parse(cls, value): return cls(value)\n"
        "_RED, = Colour\n"
        "DEFAULT = Colour.RED\n"
        "class Paint:\n"
        "    base = Colour.RED\n"
        "    def mix(self, other=Colour.RED):\n"
        "        def inner():\n"
        "            return Colour.RED\n"
        "        return other is _RED or Colour.parse(other) or inner()\n"
    )
    enums = enum_members(tmp_path)
    assert enums == {"Colour": {"RED"}}
    # Not the module-level, class-body or default spellings, not the
    # classmethod, not the constant: only the read a call executes.
    assert member_reads_in_bodies(tmp_path / "sample.py", enums) == [
        (12, "Colour.RED")
    ]


def test_per_step_code_names_enum_members_through_module_constants():
    enums = enum_members()
    assert {"CoreState", "PacketType", "SubType", "_MpmmuState",
            "_BridgeState", "ReduceOp", "_Token"} <= set(enums)
    offenders = [
        f"{path.relative_to(SRC.parents[1])}:{line}: {expression}"
        for path in hot_files()
        for line, expression in member_reads_in_bodies(path, enums)
    ]
    assert not offenders, (
        f"{len(offenders)} enum member reads inside per-step function bodies "
        f"(bind the member once beside its enum and import the constant; "
        f"see this module's docstring):\n" + "\n".join(offenders)
    )
