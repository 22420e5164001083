"""Exploit unit-test generation.

Assembles the generation prompt for a reachable path's entry method (in
the default, zero-shot or few-shot style), obtains two test sources for it
from either a pluggable LLM client or the deterministic offline generator,
and emits the test files plus the interceptor scaffold into the target
project's test directory.

The LLM client's HTTP transport imports urllib.request at its first
request, so an offline run never loads the HTTP and TLS stack.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from . import assets
from .code_model import ClassDecl, CodeModel, MethodDecl
from .errors import VulnreachError
from .java_lexer import erase_generics, simple_type_name
from .vuln_report import VulnerabilityReport

ROLE_LINE = "I want you to act like a Java tester."
ASSERT_TRIGGERED = "assertTrue(MethodCallInterceptor.isTriggered());"
ASSERT_CONDITION = "assertTrue(MethodCallInterceptor.isConditionMet());"
FAIL_LINE = 'fail("Expected Exception");'

STYLE_DEFAULT = "default"
STYLE_ZERO_SHOT = "zero-shot"
STYLE_FEW_SHOT = "few-shot"
PROMPT_STYLES = (STYLE_DEFAULT, STYLE_ZERO_SHOT, STYLE_FEW_SHOT)

# Auxiliary parameter values for the second generated test.
ENCODING_VARIATIONS = ("UTF-8", "ISO-8859-1", "US-ASCII")

_PRIMITIVE_DEFAULTS = {
    "int": "0", "long": "0L", "short": "(short) 0", "byte": "(byte) 0",
    "double": "0.0", "float": "0.0f", "boolean": "false", "char": "'a'",
}


class LlmTransport(VulnreachError):
    def __init__(self, status):
        super().__init__(f"LLM transport failure: {status}")
        self.status = status


class LlmNoCodeBlock(VulnreachError):
    pass


class TemplateGap(VulnreachError):
    def __init__(self, parameter: str):
        super().__init__(f"offline template cannot bind entry parameter {parameter!r}")
        self.parameter = parameter


class TestDirMissing(VulnreachError):
    __test__ = False  # not a pytest class


class WouldOverwrite(VulnreachError):
    def __init__(self, path):
        super().__init__(f"refusing to overwrite differing file {path} (use force)")
        self.path = path


# ---------------------------------------------------------------------------
# prompt assembly
# ---------------------------------------------------------------------------

COMPONENT_PROMPT_HINT = "PromptHint"
COMPONENT_FOCAL_METHOD = "FocalMethod"
COMPONENT_TEST_INPUT = "TestInput"
COMPONENT_TEST_ORACLE = "TestOracle"
COMPONENT_VULNERABLE_METHOD = "VulnerableMethod"
COMPONENT_FEW_SHOT = "FewShotExamples"


@dataclass(frozen=True)
class PromptBundle:
    sections: tuple[tuple[str, str], ...]

    @property
    def rendered(self) -> str:
        return "".join(text for _, text in self.sections)

    def section(self, component: str) -> str | None:
        for name, text in self.sections:
            if name == component:
                return text
        return None


def render_method_signature(method: MethodDecl) -> str:
    mods = method.visibility if method.visibility != "package" else ""
    if method.is_static:
        mods = (mods + " static").strip()
    params = ", ".join(f"{p.declared_type} {p.name}" for p in method.params)
    head = f"{mods} {method.return_type}".strip()
    return f"{head} {method.name}({params})"


def _kind_display(kind: str) -> str:
    return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", kind)


def _reference_param_sources(entry: MethodDecl, model: CodeModel) -> str:
    owner = model.owner_of(entry)
    out = []
    for p in entry.params:
        resolved = model.resolve_type(p.declared_type, owner)
        if isinstance(resolved, ClassDecl) and resolved.source_text:
            out.append(f"The source code of {resolved.simple_name} is:\n"
                       f"{resolved.source_text.rstrip()}\n")
    return "".join(out)


def assemble_prompt(entry: MethodDecl, report: VulnerabilityReport,
                    style: str, model: CodeModel) -> PromptBundle:
    """Build the generation prompt for a reachable path whose entry (focal)
    method is entry.

    The default style carries only the hint, focal method and test input;
    the template styles add the oracle and vulnerable-method sections, and
    few-shot appends the five bundled examples.
    """
    if style not in PROMPT_STYLES:
        raise ValueError(f"unknown prompt style {style!r}")

    owner_simple = entry.owner.rsplit(".", 1)[-1]
    api = report.vulnerable_api

    prompt_hint = (
        f"Role: {ROLE_LINE}\n"
        "Hint: Generate a unit test for confirming vulnerability exploitation "
        "using the JUnit framework, with the following requirements:\n"
    )
    focal = (
        f"Hint: The focal method is {entry.name}, located in the {owner_simple} class, "
        "the method signature is:\n"
        f"Code:\n{render_method_signature(entry)}\n"
        f"{_reference_param_sources(entry, model)}"
    )
    inputs = "".join(
        f"The input variable name for this unit test is {i.name}, "
        f"and the value is: {i.value};\n"
        for i in report.trigger.inputs
    )
    oracle = (
        "Hint1: The assert statement to confirm that the vulnerability is "
        "successfully triggered is fixed as:\n"
        f"Code:\n{ASSERT_TRIGGERED}\n{ASSERT_CONDITION}\n"
        f"Hint2: The vulnerability type is {_kind_display(report.trigger.vulnerability_kind)}."
    )
    if report.trigger.vulnerability_kind == "UncaughtException":
        oracle += f" After invoking the method, proceed with:\n{FAIL_LINE}\n"
    else:
        oracle += "\n"
    vulnerable = (
        f"Hint: The vulnerable method is {api.method_name}, located in the "
        f"{api.class_simple_name} class, the method signature is:\n"
        f"Code1:\n{api.signature()}\n"
        "The vulnerable code snippet is:\n"
        f"Code2:\n{api.snippet}\n"
    )

    sections: list[tuple[str, str]] = [
        (COMPONENT_PROMPT_HINT, prompt_hint),
        (COMPONENT_FOCAL_METHOD, focal),
        (COMPONENT_TEST_INPUT, inputs),
    ]
    if style != STYLE_DEFAULT:
        sections.append((COMPONENT_TEST_ORACLE, oracle))
        sections.append((COMPONENT_VULNERABLE_METHOD, vulnerable))
    if style == STYLE_FEW_SHOT:
        examples = "Here are five real-world examples of focal methods wrapped in try-catch blocks:\n"
        for i, ex in enumerate(assets.FEW_SHOT_EXAMPLES, start=1):
            examples += f"Example {i}:\n{ex}\n"
        sections.append((COMPONENT_FEW_SHOT, examples))
    return PromptBundle(sections=tuple(sections))


# ---------------------------------------------------------------------------
# LLM client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LlmClientConfig:
    endpoint: str
    model_name: str
    api_key_env: str = "VULNREACH_API_KEY"
    timeout_s: float = 60.0


class LlmClient:
    """Single-turn chat-completion client with a swappable transport.

    transport(payload: dict) -> dict is expected to return a response whose
    text is at choices[0].message.content; the default transport speaks that
    wire format over HTTP.
    """

    def __init__(self, config: LlmClientConfig, transport=None):
        self.config = config
        self._transport = transport or self._http_transport

    def _http_transport(self, payload: dict) -> dict:
        # Imported here, so that only a run that sends a request loads the
        # HTTP and TLS stack.
        import http.client
        import urllib.error
        import urllib.request

        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        req = urllib.request.Request(self.config.endpoint, data=body, headers=headers)
        try:
            with urllib.request.urlopen(req, timeout=self.config.timeout_s) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as e:
            raise LlmTransport(e.code) from e
        except (OSError, ValueError, http.client.HTTPException) as e:
            # No connection, a reply that is not HTTP, or a body that is not
            # UTF-8 JSON.
            raise LlmTransport(str(e)) from e

    def complete(self, prompt: str) -> str:
        payload = {
            "model": self.config.model_name,
            "messages": [{"role": "user", "content": prompt}],
        }
        response = self._transport(payload)
        try:
            return response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise LlmTransport(f"malformed response: {e}") from e


_CODE_BLOCK_RE = re.compile(r"```(?:[A-Za-z]*)\n(.*?)```", re.DOTALL)


def extract_code_blocks(text: str) -> list[str]:
    return [m.group(1).strip() + "\n" for m in _CODE_BLOCK_RE.finditer(text)]


# ---------------------------------------------------------------------------
# test generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestArtifact:
    __test__ = False  # not a pytest class

    source_text: str
    file_name: str

    @property
    def class_name(self) -> str:
        return self.file_name.rsplit(".", 1)[0]


def sanitize_cve(cve_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9]", "_", cve_id)


def artifact_file_name(cve_id: str, path_number: int, test_number: int) -> str:
    return f"VulEUT_{sanitize_cve(cve_id)}_P{path_number}_T{test_number}Test.java"


def _java_string(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{out}"'


def _input_literal(semantic_type: str, value: str) -> tuple[str, str]:
    """(java type, java literal) for a trigger input."""
    base = erase_generics(semantic_type)
    if base in _PRIMITIVE_DEFAULTS:
        return base, value
    return "String", _java_string(value)


def _bind_entry_args(entry: MethodDecl, report: VulnerabilityReport,
                     model: CodeModel, variation: int) -> tuple[list[str], list[str]]:
    """Expressions for the focal call arguments plus any extra imports.

    Trigger inputs bind by name first, then by type; leftover String
    parameters receive encoding values from the variation table; primitives
    get zero values; model-local reference types are default-constructed.
    """
    inputs = list(report.trigger.inputs)
    used: set[int] = set()
    args: list[str] = []
    imports: list[str] = []
    aux_counter = 0
    owner = model.owner_of(entry)
    for p in entry.params:
        base = simple_type_name(p.declared_type)
        free = [i for i in range(len(inputs)) if i not in used]
        chosen = next((i for i in free if inputs[i].name == p.name), None)
        if chosen is None:
            chosen = next((i for i in free if simple_type_name(inputs[i].semantic_type) == base),
                          None)
        if chosen is not None:
            used.add(chosen)
            args.append(inputs[chosen].name)
            continue
        if base == "Class":
            args.append("Object.class")
            continue
        if base == "String":
            table = ENCODING_VARIATIONS
            value = table[(aux_counter + variation) % len(table)]
            aux_counter += 1
            args.append(_java_string(value))
            continue
        if p.declared_type in _PRIMITIVE_DEFAULTS:
            args.append(_PRIMITIVE_DEFAULTS[p.declared_type])
            continue
        resolved = model.resolve_type(p.declared_type, owner)
        if isinstance(resolved, ClassDecl):
            imports.append(resolved.fqn)
            args.append(f"new {resolved.simple_name}()")
            continue
        raise TemplateGap(p.name)
    return args, imports


def _offline_source(entry: MethodDecl, report: VulnerabilityReport,
                    class_name: str, model: CodeModel, variation: int) -> str:
    owner_fqn = entry.owner
    owner_simple = owner_fqn.rsplit(".", 1)[-1]
    args, extra_imports = _bind_entry_args(entry, report, model, variation)

    imports = ["static org.junit.Assert.assertTrue", "static org.junit.Assert.fail",
               "org.junit.Test"]
    if "." in owner_fqn:
        imports.append(owner_fqn)
    imports.extend(i for i in extra_imports if "." in i)

    decl_lines = []
    for inp in report.trigger.inputs:
        jtype, literal_text = _input_literal(inp.semantic_type, inp.value)
        decl_lines.append(f"        {jtype} {inp.name} = {literal_text};")

    expected = ", ".join(i.name for i in report.trigger.inputs)
    arm = (f"        MethodCallInterceptor.interceptor({report.vulnerable_api.class_fqn}.class, "
           f"\"{report.vulnerable_api.method_name}\", new Object[]{{{expected}}});")

    receiver = owner_simple if entry.is_static else f"new {owner_simple}()"
    focal_call = f"            {receiver}.{entry.name}({', '.join(args)});"

    body = ["        try {", focal_call]
    if report.trigger.vulnerability_kind == "UncaughtException":
        body.append(f"            {FAIL_LINE}")
    body += ["        } catch (Throwable expected) {", "        }"]

    lines = []
    for imp in imports:
        lines.append(f"import {imp};")
    lines.append("")
    lines.append(f"public class {class_name} {{")
    lines.append("")
    lines.append("    @Test")
    lines.append("    public void testVulnerabilityExploit() throws Exception {")
    lines.extend(decl_lines)
    lines.append(arm)
    lines.extend(body)
    lines.append(f"        {ASSERT_TRIGGERED}")
    lines.append(f"        {ASSERT_CONDITION}")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def validate_artifact(source_text: str, report: VulnerabilityReport) -> str | None:
    """Reason the source violates the artifact contract, or None when valid."""
    if source_text.count(ASSERT_TRIGGERED) != 1:
        return f"expected exactly one {ASSERT_TRIGGERED!r}"
    if source_text.count(ASSERT_CONDITION) != 1:
        return f"expected exactly one {ASSERT_CONDITION!r}"
    if report.trigger.vulnerability_kind == "UncaughtException" \
            and FAIL_LINE not in source_text:
        return "missing expected-exception fail line"
    return None


def generate_tests(bundle: PromptBundle, entry: MethodDecl, report: VulnerabilityReport,
                   model: CodeModel, *, diagnostics: list, llm: LlmClient | None = None,
                   path_number: int = 1) -> list[TestArtifact]:
    """Two test artifacts for the reachable path whose entry method is entry.

    Without a client, the offline generator instantiates the bundled
    template twice, the second time permuting encoding-like auxiliary
    parameters through a fixed variation table; with one, the rendered
    prompt goes to the LLM and the first two fenced code blocks of the reply
    are taken. What the reply lacks is noted in diagnostics.
    """
    cve = report.cve_id
    if llm is None:
        artifacts = []
        for test_number in (1, 2):
            file_name = artifact_file_name(cve, path_number, test_number)
            source = _offline_source(entry, report, file_name.rsplit(".", 1)[0],
                                     model, variation=test_number - 1)
            artifacts.append(TestArtifact(source_text=source, file_name=file_name))
        return artifacts
    reply = llm.complete(bundle.rendered)
    blocks = extract_code_blocks(reply)
    if not blocks:
        raise LlmNoCodeBlock("response carried no fenced code block")
    if len(blocks) < 2:
        diagnostics.append("LLM returned one code block; duplicating it")
        blocks.append(blocks[0])
    artifacts = []
    for test_number, block in enumerate(blocks[:2], start=1):
        problem = validate_artifact(block, report)
        if problem is not None:
            diagnostics.append(f"rejected LLM artifact {test_number}: {problem}")
            continue
        artifacts.append(TestArtifact(
            source_text=block, file_name=artifact_file_name(cve, path_number, test_number)))
    return artifacts


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def emit_tests(artifacts: list[TestArtifact], project_root: str | Path,
               test_dir: str, force: bool = False) -> list[Path]:
    """Write artifacts plus the interceptor scaffold into the project's test
    directory. Identical existing files are left untouched; differing ones
    raise WouldOverwrite unless force is set, before any file is written.
    Returns the paths written."""
    root = Path(project_root)
    target = root / test_dir
    if not target.is_dir():
        raise TestDirMissing(f"no test directory at {target}")
    payloads = [(target / a.file_name, a.source_text) for a in artifacts]
    payloads.append((target / assets.INTERCEPTOR_FILE_NAME, assets.INTERCEPTOR_SOURCE))
    pending = [(path, text) for path, text in payloads
               if not path.exists() or path.read_text(encoding="utf-8") != text]
    if not force:
        for path, _ in pending:
            if path.exists():
                raise WouldOverwrite(path)
    for path, text in pending:
        path.write_text(text, encoding="utf-8")
    return [path for path, _ in pending]
