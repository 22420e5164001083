"""Seeded generator for the synthetic benchmark workloads.

Each generator returns the (project, PoC) pairs of one batch together with
their ground truth: the verdict of every kept call path, the kept path list
in `extract_call_paths`' documented order (lexicographic by signature
sequence) cut at `MAX_PATHS`, whether the truncation diagnostic appears,
and how many classes and methods the project declares. The truth is derived
from how the generator built each project; nothing here imports vulnreach.

The seed draws identifiers, packages, guard expressions, value-changing
operations and filler bodies. Shapes, path counts and the reachable/blocked
mix are fixed per workload, so figures from different seeds compare.

Inputs avoid one known fault: a formal parameter is never reassigned before
its use, because chain enumeration then loses the formal's entry value (see
the FOUND entry on `ptg._enumerate_chains` in CHANGES.md). Every method
copies its formal into a local first.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

MAX_PATHS = 64  # vulnreach's default --max-paths

POC = {
    "cve_id": "CVE-2017-7957",
    "library": {"group": "com.thoughtworks.xstream", "artifact": "xstream",
                "affected_versions": "<=1.4.9"},
    "vulnerable_api": {"class_fqn": "com.thoughtworks.xstream.XStream",
                       "method_name": "fromXML", "param_types": ["String"],
                       "snippet": "Object object = xStream.fromXML(xml);"},
    "trigger": {
        "inputs": [{"name": "xml", "semantic_type": "String", "value": "<void>"}],
        "conditions": [{"param": "xml", "predicate": "contains", "value": "<void>"}],
        "vulnerability_kind": "UncaughtException",
    },
    "notes": "",
}
SINK_IMPORT = "import com.thoughtworks.xstream.XStream;"
SINK_CALL = "new XStream().fromXML"

# Calls outside vulnreach's conversion allowlist: each one changes the value.
VALUE_CHANGES = ("trim()", "strip()", "toLowerCase()", "toUpperCase()",
                 "intern()", "concat(\"/\")", "replace('a', 'b')",
                 "substring(1)")


@dataclass(frozen=True)
class PathTruth:
    signatures: tuple[str, ...]
    reachable: bool


@dataclass
class Pair:
    """One (project, PoC) pair and what vulnreach must report for it."""

    name: str
    files: dict[str, str]            # project-relative path -> source text
    poc: dict
    paths: list[PathTruth]           # kept paths, in documented order
    truncated: bool = False
    classes: int | None = None       # None: not known for this input
    methods: int | None = None

    def reachable_numbers(self) -> list[int]:
        """1-based numbers of the reachable kept paths (the P<n> of test names)."""
        return [n for n, p in enumerate(self.paths, start=1) if p.reachable]


def entry_of(signature: str) -> tuple[str, str]:
    """(owner simple name, method name) of a 'pkg.Cls#m(T)' signature."""
    owner, rest = signature.split("#", 1)
    return owner.rsplit(".", 1)[-1], rest.split("(", 1)[0]


def _ident(rng: random.Random, taken: set[str], first: str, width: int) -> str:
    while True:
        name = first + "".join(rng.choice(string.ascii_lowercase) for _ in range(width))
        if name not in taken:
            taken.add(name)
            return name


def _class_names(rng: random.Random, taken: set[str], n: int) -> list[str]:
    return [_ident(rng, taken, rng.choice(string.ascii_uppercase), 6) for _ in range(n)]


def _package(rng: random.Random) -> str:
    taken: set[str] = set()
    return "com." + _ident(rng, taken, "", 5) + "." + _ident(rng, taken, "", 4)


def java_file(package: str, imports: list[str], body: list[str]) -> str:
    head = [f"package {package};", ""]
    if imports:
        head += imports + [""]
    return "\n".join(head + body) + "\n"


def _path_of(package: str, cls: str) -> str:
    return "src/main/java/" + package.replace(".", "/") + f"/{cls}.java"


def _sig(package: str, cls: str, method: str, params: str) -> str:
    return f"{package}.{cls}#{method}({params})"


# ---------------------------------------------------------------------------
# sanitizer_chains
# ---------------------------------------------------------------------------

SANITIZER_K = 10  # guarded value-changing reassignments per method
# (hops on the path, reachable) for each pair of a batch.
SANITIZER_MIX = ((2, True), (2, False), (3, True), (3, False))


def sanitizer_method(rng: random.Random, name: str, param: str, k: int,
                     changes_first: bool, tail: list[str],
                     visibility: str = "public") -> list[str]:
    """A method that copies its formal, then applies k guarded reassignments.

    The copy is benign unless changes_first, in which case the first
    definition of the local already changes the value.
    """
    local = "v"
    first = f"{param}.{rng.choice(VALUE_CHANGES)}" if changes_first else param
    mods = f"{visibility} " if visibility else ""
    lines = [f"    {mods}Object {name}(String {param}, int mode) {{",
             f"        String {local} = {first};"]
    for i in range(1, k + 1):
        guard = rng.choice(("mode > {i}", "mode == {i}", "mode % {i} == 0",
                            "(mode & {i}) != 0")).format(i=i)
        lines.append(f"        if ({guard}) {{")
        lines.append(f"            {local} = {local}.{rng.choice(VALUE_CHANGES)};")
        lines.append("        }")
    lines += [f"        {t}" for t in tail]
    lines.append("    }")
    return lines


def sanitizer_chains(seed: int, k: int = SANITIZER_K,
                     mix: tuple[tuple[int, bool], ...] = SANITIZER_MIX) -> list[Pair]:
    rng = random.Random(f"sanitizer_chains:{seed}")
    pairs = []
    for number, (hops, reachable) in enumerate(mix):
        package = _package(rng)
        taken: set[str] = set()
        names = _class_names(rng, taken, hops)
        methods = [_ident(rng, taken, "h", 5) for _ in range(hops)]
        params = ["xml"] + [_ident(rng, taken, "p", 3) for _ in range(hops - 1)]
        blocked_at = None if reachable else hops - 1  # the method calling the API
        files = {}
        for i, (cls, method) in enumerate(zip(names, methods)):
            if i + 1 < hops:
                tail = [f"return new {names[i + 1]}().{methods[i + 1]}(v, mode);"]
                imports = []
            else:
                tail = [f"return {SINK_CALL}(v);"]
                imports = [SINK_IMPORT]
            body = [f"public class {cls} {{"]
            body += sanitizer_method(rng, method, params[i], k, i == blocked_at, tail,
                                     visibility="public" if i == 0 else "")
            body.append("}")
            files[_path_of(package, cls)] = java_file(package, imports, body)
        signatures = tuple(_sig(package, c, m, "String,int") for c, m in zip(names, methods))
        pairs.append(Pair(name=f"p{number:02d}", files=files, poc=POC,
                          paths=[PathTruth(signatures, reachable)],
                          classes=hops, methods=hops))
    return pairs


# ---------------------------------------------------------------------------
# deep_fanout
# ---------------------------------------------------------------------------

# (layers L, width W): every method calls all W methods of the next layer;
# one method of the last layer calls the vulnerable API, so W^(L-1) maximal
# paths reach it.
FANOUT_SHAPES = ((6, 6), (3, 3))


def fanout_rank_paths(layers: int, width: int) -> list[tuple[int, ...]]:
    """Every maximal path as its per-layer rank tuple (layers 0..L-2), in
    lexicographic order, which is the signature order for equal-width names."""
    paths: list[tuple[int, ...]] = [()]
    for _ in range(layers - 1):
        paths = [p + (r,) for p in paths for r in range(width)]
    return paths


def fanout_changers(kept: list[tuple[int, ...]]) -> set[tuple[int, int]]:
    """(layer, rank) of the classes whose copy changes the value.

    In every layer where the kept paths vary, the classes ranked below the
    last kept path's class change the value. A kept path that avoids them
    is at or above the last one in every varying layer, so exactly one kept
    path, the last, stays reachable whatever the seed.
    """
    last = kept[-1]
    varying = [j for j in range(len(last)) if len({p[j] for p in kept}) > 1]
    return {(j, r) for j in varying for r in range(last[j])}


def deep_fanout(seed: int, shapes: tuple[tuple[int, int], ...] = FANOUT_SHAPES,
                max_paths: int = MAX_PATHS) -> list[Pair]:
    rng = random.Random(f"deep_fanout:{seed}")
    pairs = []
    for number, (layers, width) in enumerate(shapes):
        package = _package(rng)
        taken: set[str] = set()
        # names[j] sorted, so index = rank in signature order. The first
        # letter names the layer, so source files sort by layer whatever the
        # seed: the model's method lookup is a linear scan in file order,
        # and a seed must not change how much work that scan does. Layer 0,
        # whose methods most lookups of the backward path search ask for,
        # sorts last, so those scans pass the whole model; the cheapest
        # order would hide much of that cost.
        names = [sorted(_ident(rng, taken, string.ascii_uppercase[layers - 1 - j], 6)
                        for _ in range(width))
                 for j in range(layers)]
        target_rank = rng.randrange(width)
        all_paths = fanout_rank_paths(layers, width)
        kept = all_paths[:max_paths]
        changers = fanout_changers(kept)
        files = {}
        for j in range(layers):
            for r, cls in enumerate(names[j]):
                first = f"s.{rng.choice(VALUE_CHANGES)}" if (j, r) in changers else "s"
                lines = [f"public class {cls} {{",
                         "    public Object step(String s) {",
                         f"        String t = {first};"]
                imports = []
                if j + 1 < layers:
                    lines.append("        Object r = null;")
                    order = list(names[j + 1])
                    rng.shuffle(order)  # call order in the body must not matter
                    lines += [f"        r = new {callee}().step(t);" for callee in order]
                    lines.append("        return r;")
                elif r == target_rank:
                    imports = [SINK_IMPORT]
                    lines.append(f"        return {SINK_CALL}(t);")
                else:
                    lines.append("        return t.isEmpty() ? null : t;")
                lines += ["    }", "}"]
                files[_path_of(package, cls)] = java_file(package, imports, lines)
        sig = [[_sig(package, c, "step", "String") for c in layer] for layer in names]
        target = sig[layers - 1][target_rank]
        truth = [PathTruth(tuple(sig[j][r] for j, r in enumerate(p)) + (target,),
                           not any((j, r) in changers for j, r in enumerate(p)))
                 for p in kept]
        pairs.append(Pair(name=f"p{number:02d}", files=files, poc=POC, paths=truth,
                          truncated=len(all_paths) > max_paths,
                          classes=layers * width, methods=layers * width))
    return pairs


# ---------------------------------------------------------------------------
# wide_project
# ---------------------------------------------------------------------------

WIDE_CLASSES = 160     # filler classes per project
WIDE_INTERFACES = 24   # filler interfaces; each filler class implements one
WIDE_METHODS = 5       # filler methods per class besides constructor, describe and log

_WORDS = ("order", "ledger", "account", "batch", "cursor", "record", "entry",
          "ticket", "region", "vendor", "policy", "bucket", "quota", "stage",
          "report", "schema", "layout", "metric", "window", "signal")


def _filler_method(rng: random.Random, name: str, iface: str, util: str,
                   util_method: str) -> list[str]:
    """One realistic method body; the templates are of similar size."""
    w1, w2 = rng.sample(_WORDS, 2)
    n = rng.randint(2, 9)
    kind = rng.randrange(6)
    if kind == 0:
        return [f"    public int {name}(String key, int delta) {{",
                "        int total = 0;",
                "        for (String e : entries) {",
                "            if (e.startsWith(key)) {",
                "                total += delta;",
                "            } else if (e.length() > LIMIT) {",
                f"                total -= {n};",
                "            }",
                "        }",
                "        counts.put(key, total);",
                f"        log(\"{w1} \" + key + \" -> \" + total);",
                "        return total;",
                "    }"]
    if kind == 1:
        return [f"    public String {name}(List<String> parts, boolean quoted) {{",
                "        StringBuilder sb = new StringBuilder();",
                "        for (int i = 0; i < parts.size(); i++) {",
                "            String p = parts.get(i);",
                f"            sb.append(quoted ? \"'\" + p + \"'\" : p).append(\"{w1[:3]}\");",
                "            if (sb.length() > LIMIT * " + str(n) + ") {",
                "                break;",
                "            }",
                "        }",
                f"        String out = sb.toString().replace(\"{w2[:2]}\", \"\");",
                "        entries.add(out);",
                "        return out;",
                "    }"]
    if kind == 2:
        return [f"    protected long {name}(String raw, long fallback) {{",
                "        long value = fallback;",
                "        try {",
                "            value = Long.parseLong(raw.trim());",
                f"            value = value * {n} + counts.getOrDefault(raw, 0);",
                "        } catch (NumberFormatException ex) {",
                f"            log(\"bad {w1}: \" + raw);",
                "            value = -1L;",
                "        } finally {",
                "            entries.remove(raw);",
                "        }",
                "        return value;",
                "    }"]
    if kind == 3:
        return [f"    public String {name}(String label) {{",
                f"        {iface} other = peer;",
                "        if (other == null) {",
                f"            return label + \"-{w1}\";",
                "        }",
                f"        String tag = {util}.{util_method}(label, {n});",
                "        String result = other.describe(tag);",
                "        counts.merge(result, 1, Integer::sum);",
                "        return result;",
                "    }"]
    if kind == 4:
        return [f"    public Map<String, Integer> {name}(int limit) {{",
                "        Map<String, Integer> view = new HashMap<>();",
                "        int i = 0;",
                "        while (i < limit && i < entries.size()) {",
                "            String key = entries.get(i);",
                "            view.put(key, counts.getOrDefault(key, 0) + i);",
                "            i++;",
                "        }",
                f"        entries.removeIf(e -> e.contains(\"{w2}\"));",
                "        return view;",
                "    }"]
    return [f"    public boolean {name}(String a, String b) {{",
            "        if (a == null || b == null) {",
            "            return false;",
            "        }",
            "        switch (a.length() % 3) {",
            "            case 0:",
            f"                log(\"{w1}\");",
            "                break;",
            "            default:",
            f"                counts.put(a, {n});",
            "        }",
            "        return a.equalsIgnoreCase(b) || entries.contains(a + b);",
            "    }"]


def _filler_class(rng: random.Random, cls: str, iface: str, method_names: list[str],
                  peer_iface: str, util: str, util_method: str) -> list[str]:
    w = rng.choice(_WORDS)
    lines = ["/**", f" * Keeps the {w} state of one tenant.", " */",
             f"public class {cls} implements {iface} {{",
             f"    private static final int LIMIT = {rng.randint(8, 64)};",
             "    private final List<String> entries = new ArrayList<>();",
             "    private final Map<String, Integer> counts = new HashMap<>();",
             f"    private {peer_iface} peer;",
             "",
             f"    public {cls}() {{",
             "        this.peer = null;",
             "    }",
             "",
             "    @Override",
             "    public String describe(String label) {",
             f"        return \"{w}:\" + label + entries.size();",
             "    }",
             "",
             "    private void log(String message) {",
             "        entries.add(message);",
             "    }"]
    for name in method_names:
        lines.append("")
        lines += _filler_method(rng, name, peer_iface, util, util_method)
    lines.append("}")
    return lines


# Entry-method lines that make `doc` from `payload`: benign ones (direct,
# conversion, widening and cast) keep the path reachable, the others block it.
_FEATURES_REACHABLE = (
    "String doc = payload;",
    "String doc = String.valueOf(payload);",
    "Object doc0 = payload; String doc = (String) doc0;",
)
_FEATURES_BLOCKED = (
    "String doc = \"<\" + payload + \">\";",
    "String doc = \"<config/>\";",
    "String doc = payload.trim();",
)


def wide_project(seed: int, n_classes: int = WIDE_CLASSES,
                 n_interfaces: int = WIDE_INTERFACES,
                 n_methods: int = WIDE_METHODS) -> list[Pair]:
    """One project of realistic filler classes behind an interface
    hierarchy, plus four short paths to the vulnerable API: two reachable,
    two blocked, each through an interface with two implementations."""
    rng = random.Random(f"wide_project:{seed}")
    base = _package(rng)
    # Filler subpackages start with a-y and the features' package with z,
    # so the features' files come last in file order whatever the seed: the
    # model's method lookup is a linear scan in that order, and the path
    # search looks up feature methods only.
    subpackages = [f"{base}.{_ident(rng, set(), rng.choice(string.ascii_lowercase[:-1]), 3)}"
                   for _ in range(6)]
    taken: set[str] = set()
    files: dict[str, str] = {}
    std_imports = ["import java.util.ArrayList;", "import java.util.HashMap;",
                   "import java.util.List;", "import java.util.Map;"]

    # Interface hierarchy: the first quarter are roots; the rest extend one.
    ifaces = _class_names(rng, taken, n_interfaces)
    iface_pkg = {i: rng.choice(subpackages) for i in ifaces}
    for n, iface in enumerate(ifaces):
        parent = ifaces[rng.randrange(n)] if n >= n_interfaces // 4 else None
        ext = f" extends {parent}" if parent else ""
        imports = [f"import {iface_pkg[parent]}.{parent};"] if parent else []
        body = [f"public interface {iface}{ext} {{",
                "    String describe(String label);", "}"]
        files[_path_of(iface_pkg[iface], iface)] = java_file(iface_pkg[iface], imports, body)

    classes = _class_names(rng, taken, n_classes)
    cls_pkg = {c: rng.choice(subpackages) for c in classes}
    utils = classes[:8]  # filler classes that also carry a static helper
    util_methods = {u: _ident(rng, taken, "fmt", 3) for u in utils}
    for cls in classes:
        iface = rng.choice(ifaces)
        peer = rng.choice(ifaces)
        util = rng.choice(utils)
        own = {"describe", "log"}
        names = [_ident(rng, own, rng.choice("acdeghmprstuv"), 5) for _ in range(n_methods)]
        body = _filler_class(rng, cls, iface, names, peer, util, util_methods[util])
        if cls in util_methods:
            body[-1:] = ["", f"    public static String {util_methods[cls]}(String s, int width) {{",
                         "        String out = s;",
                         "        while (out.length() < width) {",
                         "            out = out + \".\";",
                         "        }",
                         "        return out;",
                         "    }", "}"]
        imports = list(std_imports)
        for other, pkg in ((iface, iface_pkg[iface]), (peer, iface_pkg[peer]),
                           (util, cls_pkg[util])):
            if pkg != cls_pkg[cls]:
                imports.append(f"import {pkg}.{other};")
        files[_path_of(cls_pkg[cls], cls)] = java_file(cls_pkg[cls], sorted(set(imports)), body)
    filler_methods = n_classes * (n_methods + 3) + len(utils)  # + ctor, describe, log

    # Four features: entry -> interface -> (sinking impl | quiet impl).
    feature_pkg = f"{base}.{_ident(rng, set(), 'z', 3)}"
    verdicts = [True, True, False, False]
    rng.shuffle(verdicts)
    reach = rng.sample(_FEATURES_REACHABLE, 2)
    block = rng.sample(_FEATURES_BLOCKED, 2)
    paths: list[PathTruth] = []
    for reachable in verdicts:
        line = (reach if reachable else block).pop()
        entry_cls, api, sink_cls, quiet_cls = _class_names(rng, taken, 4)
        entry_m, api_m = _ident(rng, taken, "on", 4), _ident(rng, taken, "read", 3)
        files[_path_of(feature_pkg, api)] = java_file(feature_pkg, [], [
            f"public interface {api} {{", f"    Object {api_m}(String doc);", "}"])
        files[_path_of(feature_pkg, sink_cls)] = java_file(feature_pkg, [SINK_IMPORT], [
            f"public class {sink_cls} implements {api} {{",
            "    @Override",
            f"    public Object {api_m}(String doc) {{",
            "        String body = doc;",
            f"        return {SINK_CALL}(body);",
            "    }", "}"])
        files[_path_of(feature_pkg, quiet_cls)] = java_file(feature_pkg, [], [
            f"public class {quiet_cls} implements {api} {{",
            "    @Override",
            f"    public Object {api_m}(String doc) {{",
            "        return doc.length();",
            "    }", "}"])
        files[_path_of(feature_pkg, entry_cls)] = java_file(feature_pkg, [], [
            f"public class {entry_cls} {{",
            f"    private final {api} reader = new {sink_cls}();",
            "",
            f"    public Object {entry_m}(String payload) {{",
            f"        {line}",
            f"        return reader.{api_m}(doc);",
            "    }", "}"])
        paths.append(PathTruth((_sig(feature_pkg, entry_cls, entry_m, "String"),
                                _sig(feature_pkg, sink_cls, api_m, "String")), reachable))
    paths.sort(key=lambda p: p.signatures)
    return [Pair(name="p00", files=files, poc=POC, paths=paths,
                 classes=n_interfaces + n_classes + 4 * 4,
                 methods=n_interfaces + filler_methods + 4 * 4)]


GENERATORS = {
    "sanitizer_chains": sanitizer_chains,
    "deep_fanout": deep_fanout,
    "wide_project": wide_project,
}
