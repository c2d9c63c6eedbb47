"""The per-record code pays no Enum or frozen-dataclass constant costs.

The functions below run once per instruction, window, verdict, pointer hit
or harvest event. On Python 3.11, the version CI runs, reading an Enum
member through its class (`Mnemonic.MOV`) costs about 20 module-global
reads, and so does reading a member's `.value` or `.name`; building a
frozen dataclass costs about three times a NamedTuple. So these functions
read members from module constants and names from tables, and the records
they build are tuples.
"""

import ast
import inspect
from enum import Enum

import pytest

from ropscope import disasm, gadgets, harvest, ptrscan, quality

# Per module, the qualified names of its per-record functions.
HOT_PATHS = {
    disasm: (
        "_effects", "_unary", "_xchg_rax", "_mov_imm", "_lea", "_cl",
        "extract_chain_targets", "Instruction.render", "decode",
        "_decode_body", "PageDecodes.__missing__", "_fin", "_rel",
        "_gs_call",
    ),
    gadgets: (
        "_is_store_mov", "_insn_cores", "classify", "_classify",
        "_indirect_shapes", "stream_types", "type_counts", "population_stats",
        "labelling_counts",
    ),
    quality: (
        "_filtered", "analyze_corruption", "assess_gadgets",
        "verdict_report_csv",
    ),
    ptrscan: ("scan_pointers", "PointerScanReport.to_csv"),
    harvest: (
        "HarvestEvent.to_dict", "HarvestTrace.pages",
        "HarvestTrace.type_clocks", "HarvestTrace.convergence_clock",
        "image_gadget_report",
    ),
}


def functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """The module's functions and methods by qualified name."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    out[f"{node.name}.{item.name}"] = item
    return out


def slow_reads(node: ast.AST, namespace: dict) -> list[str]:
    """Each `<EnumClass>.<member>`, `.value` and `.name` read under node,
    as source text in line order, with the Enum classes the namespace
    binds."""
    found = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute):
            continue
        owner = sub.value
        enum_member = (
            isinstance(owner, ast.Name)
            and isinstance(namespace.get(owner.id), type)
            and issubclass(namespace[owner.id], Enum)
        )
        if enum_member or sub.attr in ("value", "name"):
            found.append((sub.lineno, sub.col_offset, ast.unparse(sub)))
    return [f"line {line}: {text}" for line, _, text in sorted(found)]


@pytest.fixture(scope="module")
def trees():
    return {module: ast.parse(inspect.getsource(module)) for module in HOT_PATHS}


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in HOT_PATHS.items() for name in names],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_hot_path_reads_no_enum_member_value_or_name(trees, module, name):
    defs = functions(trees[module])
    assert name in defs, f"{module.__name__}.{name} is gone: update HOT_PATHS"
    assert slow_reads(defs[name], vars(module)) == []


def test_walk_event_appends_read_no_enum_member_value_or_name(trees):
    """The page loop builds its events from module constants and tables."""
    loop = functions(trees[harvest])["_Walk.__init__"]
    appends = [
        node for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "append"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "events"
    ]
    # A page discovery, a type leak and a convergence.
    assert len(appends) == 3
    for call in appends:
        assert slow_reads(call, vars(harvest)) == []


def test_the_check_finds_each_kind_of_slow_read():
    source = (
        "def f(insn, v):\n"
        "    a = insn.mnemonic is Mnemonic.MOV\n"
        "    b = v.shape.value\n"
        "    return Reg.RSP, v.reg.name\n"
    )
    namespace = {"Mnemonic": disasm.Mnemonic, "Reg": disasm.Reg}
    assert slow_reads(ast.parse(source), namespace) == [
        "line 2: Mnemonic.MOV",
        "line 3: v.shape.value",
        "line 4: Reg.RSP",
        "line 4: v.reg.name",
    ]


@pytest.mark.parametrize(
    "record",
    [
        disasm.Instruction,
        gadgets.Gadget,
        harvest.HarvestEvent,
        quality.CorruptionVerdict,
        ptrscan.PointerHit,
    ],
    ids=lambda cls: cls.__name__,
)
def test_per_record_types_are_tuples(record):
    assert issubclass(record, tuple)
