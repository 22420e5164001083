"""The benchmark's own tests: the generator's ground truth against small
shapes computed by hand, and the stand-in toolchain's verdicts.

    python3 -m pytest bench
"""

import subprocess
from pathlib import Path

import gen
import run

def layer_of(pair: gen.Pair, cls: str) -> str:
    return next(text for rel, text in pair.files.items() if rel.endswith(f"/{cls}.java"))


def test_fanout_rank_order():
    assert gen.fanout_rank_paths(3, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(gen.fanout_rank_paths(6, 5)) == 3125


def test_fanout_changers_by_hand():
    # 6 layers x 5 wide: path 63 is (0,0,2,2,3) in base 5. The kept paths
    # vary in layers 2, 3 and 4, so ranks below 2, 2 and 3 there change the
    # value, and only (0,0,2,2,3) stays reachable.
    kept = gen.fanout_rank_paths(6, 5)[:64]
    assert kept[-1] == (0, 0, 2, 2, 3)
    assert gen.fanout_changers(kept) == {(2, 0), (2, 1), (3, 0), (3, 1),
                                         (4, 0), (4, 1), (4, 2)}
    # 6 x 6: path 63 is (0,0,1,4,3) in base 6.
    kept = gen.fanout_rank_paths(6, 6)[:64]
    assert kept[-1] == (0, 0, 1, 4, 3)
    assert gen.fanout_changers(kept) == {(2, 0), (3, 0), (3, 1), (3, 2), (3, 3),
                                         (4, 0), (4, 1), (4, 2)}


def test_deep_fanout_small_shape():
    # 3 layers x 2 wide, budget 3: paths (a0, a1, target) for a0, a1 in {0, 1};
    # the first three are kept and the fourth is cut. Kept paths vary in
    # layers 0 and 1 and the last kept is (1, 0), so layer-0 rank 0 changes
    # the value: (0,0) and (0,1) are blocked, (1,0) is reachable.
    (pair,) = gen.deep_fanout(7, shapes=((3, 2),), max_paths=3)
    assert pair.truncated
    assert (pair.classes, pair.methods) == (6, 6)
    assert [p.reachable for p in pair.paths] == [False, False, True]
    sigs = [p.signatures for p in pair.paths]
    assert sigs == sorted(sigs)
    assert all(len(s) == 3 and s[2] == sigs[0][2] for s in sigs)
    assert sigs[0][0] == sigs[1][0] != sigs[2][0]
    assert sigs[0][1] == sigs[2][1] != sigs[1][1]
    blocked_cls = sigs[0][0].split("#")[0].rsplit(".", 1)[-1]
    assert "String t = s;" not in layer_of(pair, blocked_cls)
    reachable_cls = sigs[2][0].split("#")[0].rsplit(".", 1)[-1]
    assert "String t = s;" in layer_of(pair, reachable_cls)
    target_cls = sigs[0][2].split("#")[0].rsplit(".", 1)[-1]
    assert gen.SINK_CALL in layer_of(pair, target_cls)
    assert sum(gen.SINK_CALL in text for text in pair.files.values()) == 1


def test_deep_fanout_untruncated():
    (pair,) = gen.deep_fanout(3, shapes=((3, 3),))
    assert not pair.truncated
    assert len(pair.paths) == 9
    assert [p.reachable for p in pair.paths] == [False] * 8 + [True]


def test_file_order_puts_looked_up_methods_last():
    # Path search looks up callers by a linear scan in file order: layer 0
    # of deep_fanout and the features of wide_project must sort last.
    (pair,) = gen.deep_fanout(4, shapes=((4, 3),))
    entries = {p.signatures[0].split("#")[0].rsplit(".", 1)[-1] for p in pair.paths}
    assert [rel.rsplit("/", 1)[-1][:-5] in entries for rel in sorted(pair.files)] \
        == [False] * 9 + [True] * 3
    (pair,) = gen.wide_project(11, n_classes=4, n_interfaces=4, n_methods=1)
    feature = pair.paths[0].signatures[0].rsplit(".", 1)[0].replace(".", "/")
    assert [feature in rel for rel in sorted(pair.files)] == [False] * 8 + [True] * 16


def test_sanitizer_small():
    pairs = gen.sanitizer_chains(5, k=2, mix=((2, True), (3, False)))
    reachable, blocked = pairs
    assert [len(p.paths) for p in pairs] == [1, 1]
    assert reachable.paths[0].reachable and not blocked.paths[0].reachable
    assert len(reachable.paths[0].signatures) == 2 == reachable.classes == reachable.methods
    assert len(blocked.paths[0].signatures) == 3 == blocked.classes == blocked.methods
    texts = list(reachable.files.values())
    assert all(t.count("if (") == 2 and t.count("v = v.") == 2 for t in texts)
    assert sum("String v = xml;" in t for t in texts) == 1
    firsts = [line.strip() for t in blocked.files.values() for line in t.splitlines()
              if line.strip().startswith("String v = ")]
    changed = [f for f in firsts if "." in f.split("=", 1)[1]]
    assert len(firsts) == 3 and len(changed) == 1


def test_wide_project_counts():
    # 4 interfaces (1 method each), 4 filler classes with 1 method plus
    # constructor, describe and log (4 each), all 4 carrying a static helper
    # (the first 8 classes do), and 4 features of 4 classes with 1 method each.
    (pair,) = gen.wide_project(11, n_classes=4, n_interfaces=4, n_methods=1)
    assert pair.classes == 4 + 4 + 16
    assert pair.methods == 4 + 4 * 4 + 4 + 16
    assert len(pair.files) == pair.classes
    assert [p.reachable for p in pair.paths].count(True) == 2
    assert len(pair.paths) == 4
    assert [p.signatures for p in pair.paths] == sorted(p.signatures for p in pair.paths)
    assert sum(gen.SINK_CALL in t for t in pair.files.values()) == 4


def test_seeded():
    for make in gen.GENERATORS.values():
        assert [p.files for p in make(1)] == [p.files for p in make(1)]
        assert [p.files for p in make(1)] != [p.files for p in make(2)]


def test_toolchain(tmp_path):
    tests = tmp_path / "src/test/java"
    tests.mkdir(parents=True)
    log, map_file = tmp_path / "calls.log", tmp_path / "tests.map"
    map_file.write_text("T1Test Relay pass\nT2Test Relay pass\n")
    asserts = ("        assertTrue(MethodCallInterceptor.isTriggered());\n"
               "        assertTrue(MethodCallInterceptor.isConditionMet());\n")
    (tests / "T1Test.java").write_text("new Relay().pass(xml);\n" + asserts)
    (tests / "T2Test.java").write_text("new Relay().other(xml);\n" + asserts)
    tool = ["sh", str(Path(run.__file__).parent / "toolchain.sh"), str(log)]

    def call(*args):
        return subprocess.run(tool + list(args), cwd=tmp_path).returncode

    assert call("compile") == 0
    assert call("run", str(map_file), "T1Test") == 0
    assert call("run", str(map_file), "T2Test") == 1   # no focal call
    assert call("run", str(map_file), "T3Test") == 1   # no such file
    (tests / "T1Test.java").write_text("new Relay().pass(xml);\n" + asserts.splitlines()[0])
    assert call("run", str(map_file), "T1Test") == 1   # one assert missing
    assert len(log.read_text().splitlines()) == 5
