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
import functools
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
from .ptg import analyse_path, decide_reachability
from .testgen import (
    PROMPT_STYLES,
    STYLE_FEW_SHOT,
    LlmClient,
    LlmClientConfig,
    LlmNoCodeBlock,
    LlmTransport,
    TemplateGap,
    assemble_prompt,
    emit_tests,
    generate_tests,
)
from .vuln_report import Required, check_doc, load_report

MODE_PATHS_ONLY = "paths-only"


@dataclass
class RunConfig:
    project_root: Path
    poc_file: Path
    out_dir: Path
    mode: str = "full"
    prompt_style: str = STYLE_FEW_SHOT
    gen_mode: str = "offline"
    filters: PathFilterConfig = field(default_factory=PathFilterConfig)
    llm: LlmClientConfig | None = None
    toolchain: ToolchainConfig | None = None
    force_overwrite: bool = False
    confirm: bool = False
    report_path: Path | None = None
    test_dir: str = "src/test/java"

    def __post_init__(self):
        for key, name in _FIELD_BY_KEY.items():
            values = _CONFIG_SCHEMA[key]
            if isinstance(values, tuple) and getattr(self, name) not in values:
                raise ValueError(f"{name} must be one of {', '.join(values)}, "
                                 f"not {getattr(self, name)!r}")
        if self.gen_mode == "llm" and self.llm is None:
            raise ValueError("gen_mode=llm requires an LLM client configuration")


def run_pipeline(cfg: RunConfig) -> ConfirmationReport:
    """Parse, localize, extract paths, analyse, generate, emit, confirm,
    and write the report. The paths-only mode treats every extracted path
    as reachable, skipping the parameter transfer analysis."""
    model = parse_project(cfg.project_root, exclude_dirs=(cfg.test_dir,))
    report = load_report(cfg.poc_file)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    targets = localize_vulnerable_methods(model, report)
    path_records: list[PathRecord] = []
    artifacts = []
    diagnostics: list[str] = []

    if targets:
        graph = build_call_graph(model)
        path_diags: list[str] = []
        paths = extract_call_paths(graph, model, targets, cfg.filters, path_diags)
        diagnostics.extend(path_diags)

        llm_client = LlmClient(cfg.llm) if cfg.gen_mode == "llm" else None

        prompts_dir = cfg.out_dir / "prompts"
        memo: dict = {}  # the run's per-method and per-hop analyses (see analyse_path)
        for number, path in enumerate(paths, start=1):
            if cfg.mode == MODE_PATHS_ONLY:
                reachable, summary = True, ()
            else:
                analysis = analyse_path(path, model, memo)
                reachable = decide_reachability(analysis, report).path_reachable
                summary = analysis.kinds()
            path_records.append(PathRecord(signatures=path.signatures(),
                                           reachable=reachable, transfer_summary=summary))
            if not reachable:
                continue
            bundle = assemble_prompt(path.entry, report, cfg.prompt_style, model)
            prompts_dir.mkdir(parents=True, exist_ok=True)
            (prompts_dir / f"P{number}.txt").write_text(bundle.rendered,
                                                        encoding="utf-8")
            try:
                artifacts.extend(generate_tests(
                    bundle, path.entry, report, model, diagnostics=diagnostics,
                    llm=llm_client, path_number=number))
            except (TemplateGap, LlmTransport, LlmNoCodeBlock) as e:
                # This path gets no tests; the other paths keep theirs.
                diagnostics.append(f"path {number} ({path.entry.signature()}): {e}; "
                                   "no tests generated")

        if artifacts:
            emit_tests(artifacts, cfg.project_root, cfg.test_dir,
                       force=cfg.force_overwrite)
    else:
        diagnostics.append("project does not invoke the vulnerable API")

    if cfg.confirm and artifacts:
        confirmation = run_confirmation(artifacts, cfg.toolchain or ToolchainConfig(),
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

# Config file keys and their values (see vuln_report.check_doc). Every key
# sets a RunConfig field; any other key is an error.
_CONFIG_SCHEMA = {
    "project": str, "poc": str, "out": str, "report": str, "test_dir": str,
    "mode": ("full", MODE_PATHS_ONLY), "prompt_style": PROMPT_STYLES,
    "gen": ("offline", "llm"), "max_depth": int, "max_paths": int,
    "force": bool, "confirm": bool,
    "llm": {"endpoint": Required(str), "model_name": Required(str), "api_key_env": str,
            "timeout_s": float},
    "toolchain": {"compile_cmd": str, "test_cmd": str, "timeout_s": float,
                  "working_dir": str},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args only reads
    it, so every main call can share it."""
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
    an.add_argument("--mode", choices=sorted(_CONFIG_SCHEMA["mode"]))
    an.add_argument("--prompt-style", choices=sorted(PROMPT_STYLES))
    an.add_argument("--gen", choices=sorted(_CONFIG_SCHEMA["gen"]))
    an.add_argument("--max-depth", type=int)
    an.add_argument("--max-paths", type=int)
    an.add_argument("--force", action="store_true", default=None,
                    help="overwrite differing previously emitted files")
    an.add_argument("--confirm", action="store_true", default=None,
                    help="compile and execute emitted tests via the toolchain")
    an.add_argument("--report", help="report file path override")
    an.add_argument("--test-dir", help="test directory relative to the project root")
    an.add_argument("--config", help="JSON config file mirroring the flags (flags win)")
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise VulnreachError(f"cannot read config file {path}: {e}") from e
    return check_doc(doc, _CONFIG_SCHEMA, "config")


# Config keys (and flags) whose value a RunConfig field takes as it is, and
# that field's name.
_FIELD_BY_KEY = {"mode": "mode", "prompt_style": "prompt_style", "gen": "gen_mode",
                 "force": "force_overwrite", "confirm": "confirm", "test_dir": "test_dir"}
_FILTER_KEYS = ("max_depth", "max_paths")


def _merge(args: argparse.Namespace, doc: dict) -> RunConfig:
    """The run the config document and the flags describe (flags win). A
    setting that neither supplies keeps its dataclass default."""
    given = {**doc, **{key: value for key, value in vars(args).items()
                       if value is not None and key in _CONFIG_SCHEMA}}
    if not all(given.get(key) for key in ("project", "poc", "out")):
        raise VulnreachError("--project, --poc and --out are required "
                             "(flags or config file)")
    run = {_FIELD_BY_KEY[key]: value for key, value in given.items() if key in _FIELD_BY_KEY}
    if given.get("report"):
        run["report_path"] = Path(given["report"])
    run["filters"] = PathFilterConfig(**{key: given[key] for key in _FILTER_KEYS
                                         if key in given})
    if "llm" in given:
        run["llm"] = LlmClientConfig(**given["llm"])
    if "toolchain" in given:
        run["toolchain"] = ToolchainConfig(**given["toolchain"])
    return RunConfig(project_root=Path(given["project"]), poc_file=Path(given["poc"]),
                     out_dir=Path(given["out"]), **run)


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
