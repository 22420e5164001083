"""PoC descriptor ingestion: the machine-readable description of a disclosed
vulnerability (the affected library API, the inputs and conditions that
trigger it, and the vulnerability kind).

Descriptors are UTF-8 JSON with a fixed schema; unknown keys are rejected so
typos surface immediately instead of silently weakening the analysis.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .code_model import ClassDecl, CodeModel, MethodDecl, declared_type, receiver_binding
from .errors import VulnreachError
from .java_body import Expr, Statement
from .java_lexer import PRIMITIVES, simple_type_name

VULNERABILITY_KINDS = (
    "UncaughtException",
    "WrongBehavior",
    "RemoteCodeExecution",
    "StackOverflow",
    "InfiniteLoop",
    "PathTraversal",
    "XxeInjection",
    "OutOfMemory",
    "SqlInjection",
    "CrossSiteScripting",
    "DenialOfService",
)

PREDICATES = ("equals", "contains", "matches")


class FileNotFound(VulnreachError):
    pass


class SchemaViolation(VulnreachError):
    def __init__(self, field_path: str, reason: str):
        super().__init__(f"{field_path}: {reason}")
        self.field = field_path
        self.reason = reason


class UnknownVulnerabilityKind(SchemaViolation):
    def __init__(self, value: str):
        super().__init__("report.trigger.vulnerability_kind", f"unknown kind {value!r}")
        self.value = value


@dataclass(frozen=True)
class TriggerInput:
    name: str
    semantic_type: str
    value: str


@dataclass(frozen=True)
class TriggerCondition:
    param: str
    predicate: str = field(default="contains", kw_only=True)
    value: str


@dataclass(frozen=True)
class TriggerSpec:
    inputs: tuple[TriggerInput, ...]
    conditions: tuple[TriggerCondition, ...] = field(default=(), kw_only=True)
    vulnerability_kind: str

    def wants_all_params(self) -> bool:
        return any(c.param == "*" for c in self.conditions)

    def input_names(self) -> tuple[str, ...]:
        return tuple(i.name for i in self.inputs)


@dataclass(frozen=True)
class LibraryRef:
    group: str
    artifact: str
    affected_versions: str


@dataclass(frozen=True)
class VulnerableApi:
    class_fqn: str
    method_name: str
    param_types: tuple[str, ...] = field(default=(), kw_only=True)
    snippet: str

    @property
    def class_simple_name(self) -> str:
        return self.class_fqn.rsplit(".", 1)[-1]

    def signature(self) -> str:
        return f"{self.class_fqn}#{self.method_name}({','.join(self.param_types)})"


@dataclass(frozen=True)
class VulnerabilityReport:
    cve_id: str
    library: LibraryRef
    vulnerable_api: VulnerableApi
    trigger: TriggerSpec
    notes: str = ""


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Required:
    """Schema entry for a key that must be present."""
    want: object


NON_EMPTY = "non-empty str"  # schema entry: a string other than ""


def _fits(value, want) -> bool:
    if isinstance(want, tuple):
        return value in want
    if isinstance(want, list):
        return isinstance(value, list)
    if want is NON_EMPTY:
        return isinstance(value, str) and value != ""
    if want is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return (isinstance(value, bool) == (want is bool)
            and isinstance(value, (int, float) if want is float else want))


def _expected(want) -> str:
    if isinstance(want, tuple):
        return f"one of {', '.join(want)}"
    if isinstance(want, list):
        return "list"
    return want if want is NON_EMPTY else want.__name__


def check_doc(doc, schema: dict, where: str) -> dict:
    """doc checked against schema; JSON lists come back as tuples. Raises
    SchemaViolation naming the first object that is not one, or key that is
    unknown, missing while Required, or holds a value of the wrong type.

    A schema maps each key to what its value must be: a type (float takes
    integers too; list means a list of strings), NON_EMPTY, a tuple of the
    accepted values, a section (dict) or a list of sections ([dict]).
    Required(...) wraps any of them."""
    if not isinstance(doc, dict):
        raise SchemaViolation(where, f"expected object, got {type(doc).__name__}")
    for key in doc:
        if key not in schema:
            raise SchemaViolation(f"{where}.{key}", "unknown key")
    for key, want in schema.items():
        if isinstance(want, Required) and key not in doc:
            raise SchemaViolation(f"{where}.{key}", "missing required key")
    out = {}
    for key, value in doc.items():
        path, want = f"{where}.{key}", schema[key]
        if isinstance(want, Required):
            want = want.want
        if isinstance(want, dict):
            out[key] = check_doc(value, want, path)
        elif not _fits(value, want):
            raise SchemaViolation(path, f"expected {_expected(want)}, got {value!r}")
        elif isinstance(want, list):
            out[key] = tuple(check_doc(item, want[0], f"{path}[{i}]")
                             for i, item in enumerate(value))
        else:
            out[key] = tuple(value) if isinstance(value, list) else value
    return out


_DESCRIPTOR_SCHEMA = {
    "cve_id": Required(NON_EMPTY),
    "library": Required({"group": Required(NON_EMPTY), "artifact": Required(NON_EMPTY),
                         "affected_versions": Required(str)}),
    "vulnerable_api": Required({"class_fqn": Required(NON_EMPTY),
                                "method_name": Required(NON_EMPTY),
                                "param_types": list, "snippet": Required(str)}),
    "trigger": Required({
        "inputs": Required([{"name": Required(NON_EMPTY), "semantic_type": Required(NON_EMPTY),
                             "value": Required(str)}]),
        "conditions": [{"param": Required(NON_EMPTY), "predicate": PREDICATES,
                        "value": Required(str)}],
        "vulnerability_kind": Required(NON_EMPTY),
    }),
    "notes": str,
}


def parse_report(doc) -> VulnerabilityReport:
    """Validate a decoded JSON document into a VulnerabilityReport."""
    doc = check_doc(doc, _DESCRIPTOR_SCHEMA, "report")
    api, trigger = doc["vulnerable_api"], doc["trigger"]
    if "." not in api["class_fqn"]:
        raise SchemaViolation("report.vulnerable_api.class_fqn", "must be fully qualified")
    if "" in api.get("param_types", ()):
        raise SchemaViolation("report.vulnerable_api.param_types", "contains empty string")
    if not trigger["inputs"]:
        raise SchemaViolation("report.trigger.inputs", "must be non-empty")
    names = {i["name"] for i in trigger["inputs"]}
    for i, cond in enumerate(trigger.get("conditions", ())):
        if cond["param"] != "*" and cond["param"] not in names:
            raise SchemaViolation(f"report.trigger.conditions[{i}].param",
                                  f"{cond['param']!r} names no input (use '*' for any)")
    if trigger["vulnerability_kind"] not in VULNERABILITY_KINDS:
        raise UnknownVulnerabilityKind(trigger["vulnerability_kind"])

    trigger["inputs"] = tuple(TriggerInput(**i) for i in trigger["inputs"])
    if "conditions" in trigger:
        trigger["conditions"] = tuple(TriggerCondition(**c) for c in trigger["conditions"])
    return VulnerabilityReport(**{**doc, "library": LibraryRef(**doc["library"]),
                                  "vulnerable_api": VulnerableApi(**api),
                                  "trigger": TriggerSpec(**trigger)})


def load_report(path: str | Path) -> VulnerabilityReport:
    """Load and validate a PoC descriptor file."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFound(f"PoC descriptor not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise SchemaViolation("report", f"invalid JSON: {e}") from e
    return parse_report(doc)


def serialize(report: VulnerabilityReport) -> str:
    """Render a report back to its canonical descriptor text."""
    return json.dumps(dataclasses.asdict(report), indent=2) + "\n"


# ---------------------------------------------------------------------------
# signature matching
# ---------------------------------------------------------------------------


def match_signature(report: VulnerabilityReport, call_expr: Expr, model: CodeModel,
                    context: MethodDecl, site: Statement) -> bool:
    """True when a call expression, in the statement site of the method
    context, invokes the reported vulnerable API.

    The receiver's statically declared type must equal the vulnerable class
    (or be one of its subtypes in the model), the method name must match,
    and the arity must equal the reported parameter list. Where an
    argument's type is derivable (a variable's declared type, see
    code_model.declared_type; the type a cast or construction names; String
    for a string literal) it must be one that may be passed for the
    parameter (see _may_pass).
    """
    if call_expr.kind != "Call":
        return False
    api = report.vulnerable_api
    if call_expr.name != api.method_name:
        return False
    if len(call_expr.args) != len(api.param_types):
        return False

    target = receiver_binding(model, context, call_expr, site)
    if isinstance(target, ClassDecl):
        cls_match = target.fqn == api.class_fqn or api.class_fqn in model.supertype_chain(target)
    else:
        cls_match = target == api.class_fqn
    if not cls_match and call_expr.receiver_text != api.class_simple_name:
        # Nor is the raw receiver text the class's simple name.
        return False

    # Type-level refinement where declared types are visible.
    for arg, want in zip(call_expr.args, api.param_types):
        got: str | None = None
        if arg.kind == "VarRef":
            got = declared_type(model, context, arg.name, site)
        elif arg.kind in ("Cast", "New"):
            got = arg.name
        elif arg.kind == "Literal" and arg.name.startswith('"'):
            got = "String"
        if got is not None and not _may_pass(model, context, got, want):
            return False
    return True


# Final JDK types, each with its supertypes: no other type is one of them.
_BOXED = ("Object", "Comparable", "Serializable", "Constable")
_FINAL_TYPES = {"String": (*_BOXED, "CharSequence", "ConstantDesc"), "Boolean": _BOXED,
                "Character": _BOXED, **dict.fromkeys(("Byte", "Short"), (*_BOXED, "Number")),
                **dict.fromkeys(("Integer", "Long", "Float", "Double"),
                                (*_BOXED, "Number", "ConstantDesc"))}


def _may_pass(model: CodeModel, context: MethodDecl, got: str, want: str) -> bool:
    """False only when an argument declared as type got provably cannot be
    passed for a parameter of type want, compared by simple name. A final
    JDK type has no subtype; a primitive or an array must have want's
    element type; a model class's supertypes are known up to the first one
    outside the model."""
    g, w = simple_type_name(got), simple_type_name(want)
    if g == w or w == "Object":
        return True
    if g in _FINAL_TYPES:
        return w in _FINAL_TYPES[g]
    if w in _FINAL_TYPES or g in PRIMITIVES or "[" in got:
        return False
    cls = model.resolve_type(got, model.owner_of(context))
    return not isinstance(cls, ClassDecl) or any(
        simple_type_name(s) == w or s not in model.index for s in model.supertype_chain(cls))
