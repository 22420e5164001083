"""Acceptance suite: one test per criterion, each tagged so the terminal
summary prints a PASS/FAIL line per criterion at the end of the run."""

import json
import random
import shutil
import sys
import time
from pathlib import Path

import pytest

from vulnreach.call_graph import (
    PathFilterConfig,
    build_call_graph,
    extract_call_paths,
    localize_vulnerable_methods,
)
from vulnreach.cli import main
from vulnreach.code_model import parse_project
from vulnreach.confirm import (
    STATUS_COMPILE_ERROR,
    STATUS_CONFIRMED,
    STATUS_RUN_FAILED,
    ToolchainConfig,
    parse_report_doc,
    report_to_doc,
    run_confirmation,
    serialize_report,
)
from vulnreach.ptg import BENIGN, analyse_call_site, analyse_path, decide_reachability
from vulnreach.testgen import (
    ASSERT_CONDITION,
    ASSERT_TRIGGERED,
    FAIL_LINE,
    ROLE_LINE,
    TestArtifact,
    assemble_prompt,
    emit_tests,
    generate_tests,
)
from vulnreach.vuln_report import (
    SchemaViolation,
    load_report,
    parse_report,
    serialize,
)

from conftest import GOLDEN, analyse_fixture
from workloads import corpus_names, fixture_paths
from descriptor_cases import MALFORMED_CASES, VALID_DESCRIPTOR
from ptg_oracle import oracle_chains, random_method

STUB = Path(__file__).parent / "stub_tool.py"


def criterion(label):
    def mark(fn):
        fn._criterion = label
        return fn
    return mark


# ---------------------------------------------------------------------------
# 1. fixture reachability exactness
# ---------------------------------------------------------------------------


@criterion("1: fixture reachability exactness (corpus vs ground truth)")
def test_corpus_reachability_exactness():
    names = corpus_names()
    assert len(names) >= 12
    started = time.perf_counter()
    mismatches = []
    for name in names:
        _, _, targets, results, expected = analyse_fixture(name)
        got = {
            "localized": len(targets),
            "paths": [{"signatures": list(r.path.signatures()),
                       "reachable": r.path_reachable} for r in results],
        }
        if got != expected:
            mismatches.append((name, expected, got))
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert elapsed < 10.0, f"corpus run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. pruning property (paths-only vs parameter analysis)
# ---------------------------------------------------------------------------


def _end_to_end_chain_kinds(analysis):
    """Explicit enumeration of composed transfer chains for each argument of
    the vulnerable call: every per-method chain stitched caller-ward through
    the formal parameter it originates from. Returns, per argument position,
    the list of full chains as kind tuples (None origin chains included)."""
    per_method = analysis.per_method
    n = len(per_method)

    def compose(level, position):
        mt = per_method[level]
        if position >= len(mt.args):
            return []
        full = []
        for p in mt.args[position].paths:
            kinds = p.kinds()
            formals = mt.method.param_names()
            if p.origin is None or p.origin not in formals or level == n - 1:
                full.append(kinds)
                continue
            continuations = compose(level + 1, formals.index(p.origin))
            if not continuations:
                full.append(kinds)
            else:
                for cont in continuations:
                    full.append(cont + kinds)
        return full

    return {pos: compose(0, pos) for pos in range(len(per_method[0].args))} \
        if per_method else {}


@criterion("2: pruning equals blocked transfer chains; PathsOnly superset")
def test_pruning_property(tmp_path):
    total_full: set[tuple[str, str]] = set()
    total_po: set[tuple[str, str]] = set()
    for name in corpus_names():
        model, report, targets, results, _ = analyse_fixture(name)
        for r in results:
            pruned = not r.path_reachable
            kinds_by_pos = _end_to_end_chain_kinds(r.analysis)
            relevant = [pos for pos, arg
                        in enumerate(r.analysis.per_method[0].args)
                        if arg.display_name in r.per_parameter
                        or f"{arg.display_name}@{pos}" in r.per_parameter]
            blocked = []
            for pos in relevant:
                chains = kinds_by_pos.get(pos, [])
                clean = [c for c in chains if all(k in BENIGN for k in c)]
                if not clean:
                    blocked.append(pos)
            # A path is pruned exactly when some trigger-relevant argument
            # has only chains containing ValueChange/NoPropagation hops.
            assert pruned == bool(blocked), (name, r.path.signatures())

        # Emission-level superset check through the CLI.
        _, poc, _ = fixture_paths(name)
        for mode, bucket in (("full", total_full), ("paths-only", total_po)):
            root = tmp_path / f"{name}-{mode}"
            shutil.copytree(fixture_paths(name)[0], root)
            (root / "src/test/java").mkdir(parents=True)
            main(["analyze", "--project", str(root), "--poc", str(poc),
                  "--out", str(tmp_path / f"{name}-{mode}-out"),
                  "--mode", mode])
            bucket.update((name, p.name)
                          for p in (root / "src/test/java").glob("VulEUT_*"))
    assert total_full < total_po  # strict superset over the corpus


# ---------------------------------------------------------------------------
# 3. PTG brute-force oracle, 200 random methods
# ---------------------------------------------------------------------------


@criterion("3: PTG chains equal brute-force def-use oracle on 200 methods")
def test_ptg_oracle_200():
    rng = random.Random(987654321)
    discrepancies = 0
    for _ in range(200):
        method, terminal = random_method(rng, max_statements=8)
        call_stmt = method.body[-1]
        mt = analyse_call_site(method, call_stmt, next(call_stmt.calls()))
        arg = next(a for a in mt.args if terminal in a.terminal_vars)
        impl = {(tuple((h.source, h.target, h.edge.index) for h in p.hops[:-1]),
                 p.origin)
                for p in arg.paths if p.parameter == terminal}
        want = set(oracle_chains(method, terminal, call_stmt.index))
        if impl != want:
            discrepancies += 1
    assert discrepancies == 0


# ---------------------------------------------------------------------------
# 4. prompt golden files
# ---------------------------------------------------------------------------


@criterion("4: Lion prompt golden files (FewShot and Default)")
def test_prompt_goldens():
    model, report, _, results, _ = analyse_fixture("lion_reachable")
    entry = results[0].path.entry

    few = assemble_prompt(entry, report, "few-shot", model).rendered
    golden_few = (GOLDEN / "lion_prompt_fewshot.txt").read_text(encoding="utf-8")
    assert few == golden_few

    assert ROLE_LINE in golden_few
    assert "<void>" in golden_few
    assert ASSERT_TRIGGERED in golden_few and ASSERT_CONDITION in golden_few
    assert golden_few.count("Example ") == 5
    for component in ("PromptHint", "FocalMethod", "TestInput", "TestOracle",
                      "VulnerableMethod"):
        bundle = assemble_prompt(entry, report, "few-shot", model)
        assert bundle.section(component) is not None

    default = assemble_prompt(entry, report, "default", model).rendered
    golden_default = (GOLDEN / "lion_prompt_default.txt").read_text(encoding="utf-8")
    assert default == golden_default
    assert ASSERT_TRIGGERED not in golden_default
    assert "vulnerable method" not in golden_default.lower()
    assert FAIL_LINE not in golden_default


# ---------------------------------------------------------------------------
# 5. emission contract
# ---------------------------------------------------------------------------


@criterion("5: offline emission contract and idempotence")
def test_emission_contract(tmp_path):
    for name in corpus_names():
        model, report, _, results, _ = analyse_fixture(name)
        reachable = [r for r in results if r.path_reachable]
        if not reachable:
            continue
        root = tmp_path / name
        shutil.copytree(fixture_paths(name)[0], root)
        (root / "src/test/java").mkdir(parents=True)
        all_artifacts = []
        for number, r in enumerate(reachable, start=1):
            entry = r.path.entry
            bundle = assemble_prompt(entry, report, "few-shot", model)
            artifacts = generate_tests(bundle, entry, report, model, diagnostics=[],
                                       path_number=number)
            assert len(artifacts) == 2
            for a in artifacts:
                text = a.source_text
                assert text.count(ASSERT_TRIGGERED) == 1
                assert text.count(ASSERT_CONDITION) == 1
                focal_at = text.index(f".{entry.name}(") if not entry.is_static \
                    else text.index(f"{entry.owner.rsplit('.', 1)[-1]}.{entry.name}(")
                assert text.index("try {") < focal_at < text.index("} catch (")
                if report.trigger.vulnerability_kind == "UncaughtException":
                    assert FAIL_LINE in text
                else:
                    assert FAIL_LINE not in text
            all_artifacts.extend(artifacts)
        written = emit_tests(all_artifacts, root, "src/test/java")
        assert len(written) == len(all_artifacts) + 1  # + interceptor
        rewritten = emit_tests(all_artifacts, root, "src/test/java")
        assert rewritten == []


# ---------------------------------------------------------------------------
# 6. confirmation determinism with a scripted toolchain
# ---------------------------------------------------------------------------


@criterion("6: confirmation determinism over scripted toolchain outcomes")
def test_confirmation_determinism(tmp_path):
    artifacts = [TestArtifact(source_text="//\n", file_name=f"VulEUT_A_P{i}_T1Test.java")
                 for i in (1, 2, 3)]
    behavior = tmp_path / "behavior.json"
    behavior.write_text(json.dumps({
        artifacts[0].class_name: "pass",
        artifacts[1].class_name: "compile-fail",
        artifacts[2].class_name: "run-fail",
    }))
    cfg = ToolchainConfig(
        compile_cmd=f"{sys.executable} {STUB} {behavior} compile {{test_class}}",
        test_cmd=f"{sys.executable} {STUB} {behavior} run {{test_class}}",
        timeout_s=60.0, working_dir=str(tmp_path))
    report = run_confirmation(artifacts, cfg, project="p", cve_id="CVE-A")
    assert report.totals == (3, 2, 1)
    assert [t.status for t in report.tests] == [
        STATUS_CONFIRMED, STATUS_COMPILE_ERROR, STATUS_RUN_FAILED]
    assert report.project_confirmed
    repeat = run_confirmation(artifacts, cfg, project="p", cve_id="CVE-A")
    assert serialize_report(repeat) == serialize_report(report)


# ---------------------------------------------------------------------------
# 7. schema round-trips and malformed descriptors
# ---------------------------------------------------------------------------


@criterion("7: descriptor/report round-trips; 20 malformed rejections")
def test_schema_round_trips(tmp_path):
    # PoC descriptors: every corpus descriptor plus the canonical one.
    docs = [VALID_DESCRIPTOR]
    for name in corpus_names():
        _, poc, _ = fixture_paths(name)
        docs.append(json.loads(poc.read_text(encoding="utf-8")))
    for doc in docs:
        report = parse_report(doc)
        text1 = serialize(report)
        report2 = parse_report(json.loads(text1))
        assert serialize(report2) == text1
        assert report2 == report

    # Confirmation report round-trip through its document form.
    model, vreport, _, results, _ = analyse_fixture("lion_reachable")
    from vulnreach.confirm import ConfirmationReport, PathRecord, TestRecord
    creport = ConfirmationReport(
        project="p", cve_id=vreport.cve_id,
        paths=(PathRecord(results[0].path.signatures(), True, ("DirectPropagation",)),),
        tests=(TestRecord("a.java", "Emitted", ""),))
    text1 = serialize_report(creport)
    back = parse_report_doc(json.loads(text1))
    assert serialize_report(back) == text1

    assert len(MALFORMED_CASES) == 20
    for case_name, doc, field in MALFORMED_CASES:
        with pytest.raises(SchemaViolation) as exc:
            parse_report(doc)
        assert field in exc.value.field, case_name


# ---------------------------------------------------------------------------
# 8. end-to-end reproducibility
# ---------------------------------------------------------------------------


@criterion("8: two offline Full runs are byte-identical end to end")
def test_end_to_end_reproducibility(tmp_path):
    for name in corpus_names():
        root = tmp_path / name
        shutil.copytree(fixture_paths(name)[0], root)
        (root / "src/test/java").mkdir(parents=True)
        _, poc, _ = fixture_paths(name)
        out = tmp_path / f"{name}-out"

        def run_and_snapshot():
            code = main(["analyze", "--project", str(root), "--poc", str(poc),
                         "--out", str(out)])
            assert code in (0, 2)
            files = sorted((root / "src/test/java").glob("*.java"))
            files += sorted(out.rglob("*.txt"))
            files += [out / "report.json"]
            return {str(f.relative_to(tmp_path)): f.read_bytes() for f in files}

        first = run_and_snapshot()
        second = run_and_snapshot()
        assert first == second, name
