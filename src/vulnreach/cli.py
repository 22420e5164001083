"""Command-line front end: runs the full pipeline from project parsing to
the confirmation report.

    vulnreach analyze --project <dir> --poc <file> --out <dir>
        [--mode paths-only|full] [--prompt-style default|zero-shot|few-shot]
        [--gen offline|llm] [--max-depth N] [--max-paths N]
        [--force] [--confirm] [--report <file>] [--config <file>]

Exit codes: 0 when at least one test confirmed exploitation, 2 when the
analysis ran but nothing was confirmed, 1 on operational error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .call_graph import (
    PathFilterConfig,
    build_call_graph,
    extract_call_paths,
    localize_vulnerable_methods,
)
from .code_model import parse_project
from .confirm import (
    STATUS_EMITTED,
    ConfirmationReport,
    PathRecord,
    TestRecord,
    ToolchainConfig,
    run_confirmation,
    write_report,
)
from .errors import VulnreachError
from .ptg import (
    ConversionAllowlist,
    ReachabilityResult,
    analyse_path,
    decide_reachability,
)
from .testgen import (
    LlmClient,
    LlmClientConfig,
    assemble_prompt,
    emit_tests,
    generate_tests,
)
from .vuln_report import SchemaViolation, check_keys, load_report

MODE_FULL = "Full"
MODE_PATHS_ONLY = "PathsOnly"

GEN_OFFLINE = "Offline"
GEN_LLM = "Llm"


@dataclass
class RunConfig:
    project_root: Path
    poc_file: Path
    out_dir: Path
    mode: str = MODE_FULL
    prompt_style: str = "FewShot"
    gen_mode: str = GEN_OFFLINE
    filters: PathFilterConfig = field(default_factory=PathFilterConfig)
    llm: LlmClientConfig | None = None
    toolchain: ToolchainConfig | None = None
    force_overwrite: bool = False
    confirm: bool = False
    report_path: Path | None = None
    test_dir: str = "src/test/java"
    allowlist: ConversionAllowlist = field(default_factory=ConversionAllowlist)

    def __post_init__(self):
        if self.gen_mode == GEN_LLM and self.llm is None:
            raise ValueError("gen_mode=Llm requires an LLM client configuration")


def run_pipeline(cfg: RunConfig) -> ConfirmationReport:
    """Parse, localize, extract paths, analyse, generate, emit, confirm,
    and write the report. PathsOnly mode treats every extracted path as
    reachable, skipping the parameter transfer analysis."""
    model = parse_project(cfg.project_root, exclude_dirs=(cfg.test_dir,))
    report = load_report(cfg.poc_file)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    targets = localize_vulnerable_methods(model, report)
    path_records: list[PathRecord] = []
    artifacts = []
    diagnostics: list[str] = []

    if targets:
        graph = build_call_graph(model)
        path_diags: list = []
        paths = extract_call_paths(graph, model, targets, cfg.filters, path_diags)
        diagnostics.extend(f"path budget exceeded (max_paths={d.limit})"
                           for d in path_diags)

        llm_client = None
        if cfg.gen_mode == GEN_LLM and cfg.llm is not None:
            llm_client = LlmClient(cfg.llm)

        prompts_dir = cfg.out_dir / "prompts"
        for number, path in enumerate(paths, start=1):
            if cfg.mode == MODE_PATHS_ONLY:
                result = ReachabilityResult(path=path, per_parameter={},
                                            path_reachable=True, analysis=None)
                summary: tuple[str, ...] = ()
            else:
                analysis = analyse_path(path, model, report, cfg.allowlist)
                result = decide_reachability(path, analysis, report)
                summary = analysis.kinds()
            path_records.append(PathRecord(signatures=path.signatures(),
                                           reachable=result.path_reachable,
                                           transfer_summary=summary))
            if not result.path_reachable:
                continue
            bundle = assemble_prompt(result, report, cfg.prompt_style, model)
            prompts_dir.mkdir(parents=True, exist_ok=True)
            (prompts_dir / f"P{number}.txt").write_text(bundle.rendered,
                                                        encoding="utf-8")
            gen_diags: list = []
            artifacts.extend(generate_tests(
                bundle, result, report,
                mode="llm" if cfg.gen_mode == GEN_LLM else "offline",
                llm=llm_client, model=model, path_number=number,
                diagnostics=gen_diags))
            diagnostics.extend(str(d) for d in gen_diags)

        if artifacts:
            emit_tests(artifacts, cfg.project_root, cfg.test_dir,
                       force=cfg.force_overwrite)
    else:
        diagnostics.append("project does not invoke the vulnerable API")

    if cfg.confirm and artifacts:
        toolchain = cfg.toolchain or ToolchainConfig(
            working_dir=str(cfg.project_root))
        confirmation = run_confirmation(artifacts, toolchain,
                                        project=str(cfg.project_root),
                                        cve_id=report.cve_id,
                                        paths=tuple(path_records))
        confirmation = dataclasses.replace(
            confirmation,
            diagnostics=tuple(diagnostics) + confirmation.diagnostics)
    else:
        confirmation = ConfirmationReport(
            project=str(cfg.project_root), cve_id=report.cve_id,
            paths=tuple(path_records),
            tests=tuple(TestRecord(a.file_name, STATUS_EMITTED, "")
                        for a in artifacts),
            diagnostics=tuple(diagnostics))

    out = cfg.report_path or (cfg.out_dir / "report.json")
    write_report(confirmation, out)
    return confirmation


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

_STYLE_BY_FLAG = {"default": "Default", "zero-shot": "ZeroShot", "few-shot": "FewShot"}
_MODE_BY_FLAG = {"full": MODE_FULL, "paths-only": MODE_PATHS_ONLY}
_GEN_BY_FLAG = {"offline": GEN_OFFLINE, "llm": GEN_LLM}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vulnreach",
        description="Confirm third-party library vulnerability exploitability "
                    "in Java client projects.")
    parser.add_argument("--version", action="version", version=f"vulnreach {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser("analyze", help="run the analysis pipeline on one project")
    an.add_argument("--project", help="client project root directory")
    an.add_argument("--poc", help="PoC descriptor file (JSON)")
    an.add_argument("--out", help="output directory for prompts and the report")
    an.add_argument("--mode", choices=sorted(_MODE_BY_FLAG), default=None)
    an.add_argument("--prompt-style", choices=sorted(_STYLE_BY_FLAG), default=None)
    an.add_argument("--gen", choices=sorted(_GEN_BY_FLAG), default=None)
    an.add_argument("--max-depth", type=int, default=None)
    an.add_argument("--max-paths", type=int, default=None)
    an.add_argument("--force", action="store_true", default=None,
                    help="overwrite differing previously emitted files")
    an.add_argument("--confirm", action="store_true", default=None,
                    help="compile and execute emitted tests via the toolchain")
    an.add_argument("--report", default=None, help="report file path override")
    an.add_argument("--test-dir", default=None,
                    help="test directory relative to the project root")
    an.add_argument("--config", default=None,
                    help="JSON config file mirroring the flags (flags win)")
    return parser


# Config file keys and their values: a type (float takes integers too, list
# means a list of strings), the accepted strings, or a section. A key mapped
# to None is ignored with a warning: LLM requests are sent one at a time.
_CONFIG_SCHEMA = {
    "project": str, "poc": str, "out": str, "report": str, "test_dir": str,
    "mode": tuple(_MODE_BY_FLAG), "prompt_style": tuple(_STYLE_BY_FLAG),
    "gen": tuple(_GEN_BY_FLAG), "max_depth": int, "max_paths": int,
    "force": bool, "confirm": bool,
    "exclude_annotations": list, "exclude_visibilities": list,
    "llm": {"endpoint": str, "model_name": str, "api_key_env": str,
            "timeout_s": float, "max_in_flight": None},
    "toolchain": {"compile_cmd": str, "test_cmd": str, "timeout_s": float,
                  "working_dir": str},
    "allowlist": {"method_names": list, "qualified": list},
}


def _fits(value, want) -> bool:
    if isinstance(want, tuple):
        return value in want
    if want is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return (isinstance(value, bool) == (want is bool)
            and isinstance(value, (int, float) if want is float else want))


def _checked_config(doc, schema: dict, where: str = "config") -> dict:
    """doc without the keys schema ignores. Raises SchemaViolation naming the
    first key that is unknown or holds a value of the wrong type."""
    check_keys(doc, schema.keys(), where)
    out = {}
    for key, value in doc.items():
        path, want = f"{where}.{key}", schema[key]
        if want is None:
            print(f"WARN {path} is ignored", file=sys.stderr)
        elif isinstance(want, dict):
            out[key] = _checked_config(value, want, path)
        elif _fits(value, want):
            out[key] = value
        else:
            expected = f"one of {', '.join(want)}" if isinstance(want, tuple) else want.__name__
            raise SchemaViolation(path, f"expected {expected}, got {value!r}")
    return out


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise VulnreachError(f"cannot read config file {path}: {e}") from e
    return _checked_config(doc, _CONFIG_SCHEMA)


def _merge(args: argparse.Namespace, doc: dict) -> RunConfig:
    def pick(flag_value, key, default=None):
        if flag_value is not None:
            return flag_value
        return doc.get(key, default)

    project = pick(args.project, "project")
    poc = pick(args.poc, "poc")
    out = pick(args.out, "out")
    if not project or not poc or not out:
        raise VulnreachError("--project, --poc and --out are required "
                             "(flags or config file)")
    filters = PathFilterConfig(
        max_depth=pick(args.max_depth, "max_depth", 8),
        max_paths=pick(args.max_paths, "max_paths", 64),
        exclude_annotations=frozenset(doc.get("exclude_annotations", ["Test"])),
        exclude_visibilities=frozenset(doc.get("exclude_visibilities", ["private"])),
    )
    llm = None
    if "llm" in doc:
        try:
            llm = LlmClientConfig(**doc["llm"])
        except TypeError as e:  # a required key is missing
            raise VulnreachError(f"config.llm: {e}") from e
    toolchain = None
    if "toolchain" in doc:
        toolchain = ToolchainConfig(**doc["toolchain"])
    allowlist = ConversionAllowlist(**{k: frozenset(v)
                                       for k, v in doc.get("allowlist", {}).items()})
    report = pick(args.report, "report")
    return RunConfig(
        project_root=Path(project),
        poc_file=Path(poc),
        out_dir=Path(out),
        mode=_MODE_BY_FLAG[pick(args.mode, "mode", "full")],
        prompt_style=_STYLE_BY_FLAG[pick(args.prompt_style, "prompt_style", "few-shot")],
        gen_mode=_GEN_BY_FLAG[pick(args.gen, "gen", "offline")],
        filters=filters,
        llm=llm,
        toolchain=toolchain,
        force_overwrite=pick(args.force, "force", False),
        confirm=pick(args.confirm, "confirm", False),
        report_path=Path(report) if report else None,
        test_dir=pick(args.test_dir, "test_dir", "src/test/java"),
        allowlist=allowlist,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _load_config_file(args.config)
        cfg = _merge(args, doc)
        report = run_pipeline(cfg)
    except (VulnreachError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    emitted, compiled, confirmed = report.totals
    reachable = sum(1 for p in report.paths if p.reachable)
    print(f"paths: {len(report.paths)} ({reachable} reachable)  "
          f"tests: {emitted} emitted, {compiled} compiled, {confirmed} confirmed")
    return 0 if report.project_confirmed else 2


if __name__ == "__main__":
    sys.exit(main())
