"""PoC descriptor ingestion: the machine-readable description of a disclosed
vulnerability (the affected library API, the inputs and conditions that
trigger it, and the vulnerability kind).

Descriptors are UTF-8 JSON with a fixed schema; unknown keys are rejected so
typos surface immediately instead of silently weakening the analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .code_model import ClassDecl, CodeModel, Expr, MethodDecl, receiver_binding, simple_type_name
from .errors import VulnreachError

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
        super().__init__("trigger.vulnerability_kind", f"unknown kind {value!r}")
        self.value = value


@dataclass(frozen=True)
class TriggerInput:
    name: str
    semantic_type: str
    value: str


@dataclass(frozen=True)
class TriggerCondition:
    param: str
    predicate: str
    value: str


@dataclass(frozen=True)
class TriggerSpec:
    inputs: tuple[TriggerInput, ...]
    conditions: tuple[TriggerCondition, ...]
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
    param_types: tuple[str, ...]
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

_TOP_KEYS = {"cve_id", "library", "vulnerable_api", "trigger", "notes"}
_LIB_KEYS = {"group", "artifact", "affected_versions"}
_API_KEYS = {"class_fqn", "method_name", "param_types", "snippet"}
_TRIGGER_KEYS = {"inputs", "conditions", "vulnerability_kind"}
_INPUT_KEYS = {"name", "semantic_type", "value"}
_COND_KEYS = {"param", "predicate", "value"}


def _require_str(obj, key: str, path: str, allow_empty: bool = False) -> str:
    if key not in obj:
        raise SchemaViolation(f"{path}.{key}", "missing required key")
    v = obj[key]
    if not isinstance(v, str):
        raise SchemaViolation(f"{path}.{key}", f"expected string, got {type(v).__name__}")
    if not allow_empty and not v:
        raise SchemaViolation(f"{path}.{key}", "must be non-empty")
    return v


def check_keys(obj, allowed, path: str):
    """Raise SchemaViolation unless obj is a JSON object whose keys are all allowed."""
    if not isinstance(obj, dict):
        raise SchemaViolation(path, f"expected object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise SchemaViolation(f"{path}.{key}", "unknown key")


def parse_report(doc) -> VulnerabilityReport:
    """Validate a decoded JSON document into a VulnerabilityReport."""
    check_keys(doc, _TOP_KEYS, "report")
    cve_id = _require_str(doc, "cve_id", "report")

    lib_doc = doc.get("library")
    if lib_doc is None:
        raise SchemaViolation("report.library", "missing required key")
    check_keys(lib_doc, _LIB_KEYS, "library")
    library = LibraryRef(
        group=_require_str(lib_doc, "group", "library"),
        artifact=_require_str(lib_doc, "artifact", "library"),
        affected_versions=_require_str(lib_doc, "affected_versions", "library", allow_empty=True),
    )

    api_doc = doc.get("vulnerable_api")
    if api_doc is None:
        raise SchemaViolation("report.vulnerable_api", "missing required key")
    check_keys(api_doc, _API_KEYS, "vulnerable_api")
    class_fqn = _require_str(api_doc, "class_fqn", "vulnerable_api")
    if "." not in class_fqn:
        raise SchemaViolation("vulnerable_api.class_fqn", "must be fully qualified")
    raw_types = api_doc.get("param_types", [])
    if not isinstance(raw_types, list) or any(not isinstance(t, str) for t in raw_types):
        raise SchemaViolation("vulnerable_api.param_types", "expected list of strings")
    if any(t == "" for t in raw_types):
        raise SchemaViolation("vulnerable_api.param_types", "contains empty string")
    api = VulnerableApi(
        class_fqn=class_fqn,
        method_name=_require_str(api_doc, "method_name", "vulnerable_api"),
        param_types=tuple(raw_types),
        snippet=_require_str(api_doc, "snippet", "vulnerable_api", allow_empty=True),
    )

    trig_doc = doc.get("trigger")
    if trig_doc is None:
        raise SchemaViolation("report.trigger", "missing required key")
    check_keys(trig_doc, _TRIGGER_KEYS, "trigger")
    raw_inputs = trig_doc.get("inputs")
    if not isinstance(raw_inputs, list):
        raise SchemaViolation("trigger.inputs", "expected list")
    if not raw_inputs:
        raise SchemaViolation("trigger.inputs", "must be non-empty")
    inputs = []
    for i, item in enumerate(raw_inputs):
        check_keys(item, _INPUT_KEYS, f"trigger.inputs[{i}]")
        inputs.append(TriggerInput(
            name=_require_str(item, "name", f"trigger.inputs[{i}]"),
            semantic_type=_require_str(item, "semantic_type", f"trigger.inputs[{i}]"),
            value=_require_str(item, "value", f"trigger.inputs[{i}]", allow_empty=True),
        ))
    raw_conds = trig_doc.get("conditions", [])
    if not isinstance(raw_conds, list):
        raise SchemaViolation("trigger.conditions", "expected list")
    conditions = []
    input_names = {inp.name for inp in inputs}
    for i, item in enumerate(raw_conds):
        check_keys(item, _COND_KEYS, f"trigger.conditions[{i}]")
        param = _require_str(item, "param", f"trigger.conditions[{i}]")
        if param != "*" and param not in input_names:
            raise SchemaViolation(f"trigger.conditions[{i}].param",
                                  f"{param!r} names no input (use '*' for any)")
        predicate = item.get("predicate", "contains")
        if predicate not in PREDICATES:
            raise SchemaViolation(f"trigger.conditions[{i}].predicate",
                                  f"must be one of {PREDICATES}")
        conditions.append(TriggerCondition(
            param=param,
            predicate=predicate,
            value=_require_str(item, "value", f"trigger.conditions[{i}]", allow_empty=True),
        ))
    kind = _require_str(trig_doc, "vulnerability_kind", "trigger")
    if kind not in VULNERABILITY_KINDS:
        raise UnknownVulnerabilityKind(kind)
    trigger = TriggerSpec(inputs=tuple(inputs), conditions=tuple(conditions),
                          vulnerability_kind=kind)

    notes = doc.get("notes", "")
    if not isinstance(notes, str):
        raise SchemaViolation("report.notes", f"expected string, got {type(notes).__name__}")

    return VulnerabilityReport(cve_id=cve_id, library=library, vulnerable_api=api,
                               trigger=trigger, notes=notes)


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
    doc = {
        "cve_id": report.cve_id,
        "library": {
            "group": report.library.group,
            "artifact": report.library.artifact,
            "affected_versions": report.library.affected_versions,
        },
        "vulnerable_api": {
            "class_fqn": report.vulnerable_api.class_fqn,
            "method_name": report.vulnerable_api.method_name,
            "param_types": list(report.vulnerable_api.param_types),
            "snippet": report.vulnerable_api.snippet,
        },
        "trigger": {
            "inputs": [
                {"name": i.name, "semantic_type": i.semantic_type, "value": i.value}
                for i in report.trigger.inputs
            ],
            "conditions": [
                {"param": c.param, "predicate": c.predicate, "value": c.value}
                for c in report.trigger.conditions
            ],
            "vulnerability_kind": report.trigger.vulnerability_kind,
        },
        "notes": report.notes,
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# signature matching
# ---------------------------------------------------------------------------


def match_signature(report: VulnerabilityReport, call_expr: Expr, model: CodeModel,
                    context: MethodDecl | None = None) -> bool:
    """True when a call expression invokes the reported vulnerable API.

    The receiver's statically declared type must equal the vulnerable class
    (or be one of its subtypes in the model), the method name must match,
    and the arity must equal the reported parameter list. When argument
    types are resolvable a simple-name type check is applied as well.
    """
    if call_expr.kind != "Call":
        return False
    api = report.vulnerable_api
    if call_expr.name != api.method_name:
        return False
    if len(call_expr.args) != len(api.param_types):
        return False

    cls_match = False
    if context is not None:
        kind, target = receiver_binding(model, context, call_expr)
        if kind == "external":
            cls_match = target == api.class_fqn
        elif kind == "internal":
            assert isinstance(target, ClassDecl)
            cls_match = (target.fqn == api.class_fqn
                         or api.class_fqn in model.supertype_chain(target))
    if not cls_match:
        # Fall back to the raw receiver text (e.g. fully qualified call).
        text = call_expr.receiver_text
        if text is not None and (text == api.class_fqn
                                 or text == api.class_simple_name):
            cls_match = True
    if not cls_match:
        return False

    # Type-level refinement where declared types are visible.
    if context is not None and api.param_types:
        for arg, want in zip(call_expr.args, api.param_types):
            got: str | None = None
            if arg.kind == "VarRef":
                got = context.declared_type_of(arg.name)
            elif arg.kind == "Cast":
                got = arg.name
            elif arg.kind == "Literal" and arg.name.startswith('"'):
                got = "String"
            if got is not None and simple_type_name(got) != simple_type_name(want):
                return False
    return True
