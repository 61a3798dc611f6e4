"""Documentation drift checker: paths and symbols named by the docs must resolve.

``README.md`` and the files under ``docs/`` name modules, tests, benchmarks
and other repo files.  Stale references in documentation are worse than no
docs, so this suite extracts every file-looking reference — markdown link
targets and backticked inline paths — and asserts it exists in the working
tree, resolves every backticked dotted ``repro.*`` symbol (class,
function, constant or attribute) against the installed package, and every
backticked ``Name.attr`` token whose ``Name`` the package or one of its
subpackages exports (``APANConfig.seed``, ``Mailbox.share_memory()``), so
the documented API surface — fields and methods included — cannot silently
drift from the code.  Every backticked class-like ``CamelCase`` token must
also name a class defined under ``src/repro`` (or a builtin, a repo file or
an allowlisted outside class), so a deleted class cannot linger in prose.
CI runs this as a dedicated step (see ``.github/workflows/ci.yml``).
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
    if (REPO_ROOT / "docs").is_dir()
    else [REPO_ROOT / "README.md"]
)

# Markdown link targets: [text](target)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Backticked tokens that look like repo file paths.
_CODE = re.compile(r"`([^`\n]+)`")
_PATHLIKE = re.compile(r"^[\w./-]+\.(?:py|md|json|yml|yaml|toml|txt|cfg)$")
_EXTERNAL = ("http://", "https://", "mailto:")


def _resolves(target: str, doc: Path) -> bool:
    target = target.split("#", 1)[0]
    if not target:
        return True  # pure anchor
    return (doc.parent / target).exists() or (REPO_ROOT / target).exists()


def extract_references(doc: Path) -> list[str]:
    """Every file-looking reference in one markdown document."""
    text = doc.read_text()
    references: list[str] = []
    for target in _LINK.findall(text):
        if not target.startswith(_EXTERNAL):
            references.append(target)
    for code in _CODE.findall(text):
        for token in code.split():
            # Only treat tokens with a directory component (or repo-root
            # markdown/config files) as path claims — bare module names like
            # ``encoder.py`` inside prose are resolved by their section.
            if _PATHLIKE.match(token) and ("/" in token or
                                           (REPO_ROOT / token).exists() or
                                           token.endswith(".md")):
                references.append(token)
    return references


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_documents_exist(doc):
    assert doc.exists(), f"expected documentation file {doc} is missing"


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_all_referenced_paths_resolve(doc):
    broken = [ref for ref in extract_references(doc)
              if not _resolves(ref, doc)]
    assert not broken, (
        f"{doc.relative_to(REPO_ROOT)} references paths that do not exist: "
        f"{sorted(set(broken))}"
    )


# Backticked dotted symbols rooted at the package: ``repro.analytics.TopKView``,
# ``repro.serving.FeatureProvider.lookup``, ``repro.obs`` — with an optional
# trailing call ``()``.  Wildcards like ``repro.*`` never match.
_SYMBOL = re.compile(r"^repro(?:\.\w+)+(?:\(\))?$")


def extract_symbols(doc: Path) -> list[str]:
    """Every backticked ``repro.*`` dotted symbol in one markdown document."""
    symbols: list[str] = []
    for code in _CODE.findall(doc.read_text()):
        for token in code.split():
            if _SYMBOL.match(token):
                symbols.append(token.removesuffix("()"))
    return symbols


def _symbol_resolves(symbol: str) -> bool:
    """Import the longest module prefix, then walk the rest with getattr."""
    parts = symbol.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_all_documented_symbols_resolve(doc):
    """Backticked ``repro.*`` names must exist in the package (drift audit)."""
    broken = [symbol for symbol in extract_symbols(doc)
              if not _symbol_resolves(symbol)]
    assert not broken, (
        f"{doc.relative_to(REPO_ROOT)} documents repro.* symbols that do not "
        f"resolve against the package: {sorted(set(broken))}"
    )


# Backticked ``Name.attr[.attr]`` tokens, optional trailing call ``()``; only
# those whose ``Name`` is exported are claims about the package.
_MEMBER = re.compile(r"^(\w+)((?:\.\w+)+)(?:\(\))?$")


def _exported_names() -> dict[str, list]:
    """Every name in the ``__all__`` of ``repro`` and of its subpackages."""
    import repro

    packages = [repro] + [importlib.import_module(f"repro.{info.name}")
                          for info in pkgutil.iter_modules(repro.__path__)
                          if info.ispkg]
    exported: dict[str, list] = {}
    for package in packages:
        for name in getattr(package, "__all__", ()):
            exported.setdefault(name, []).append(getattr(package, name))
    return exported


def extract_members(doc: Path, exported) -> list[str]:
    """Every backticked ``Name.attr`` token naming an exported ``Name``."""
    members: list[str] = []
    for code in _CODE.findall(doc.read_text()):
        for token in code.split():
            match = _MEMBER.match(token)
            if match and match.group(1) in exported:
                members.append(token.removesuffix("()"))
    return members


def _member_resolves(owner, attrs: list[str]) -> bool:
    """Walk ``attrs`` with getattr; a dataclass field counts as an attribute."""
    for attr in attrs:
        if hasattr(owner, attr):
            owner = getattr(owner, attr)
        elif (dataclasses.is_dataclass(owner)
              and attr in {field.name for field in dataclasses.fields(owner)}):
            owner = None  # a field without a class-level default: a leaf
        else:
            return False
    return True


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_all_documented_members_resolve(doc):
    """Backticked ``Name.attr`` of exported names must exist (drift audit)."""
    exported = _exported_names()
    broken = []
    for member in extract_members(doc, exported):
        name, *attrs = member.split(".")
        if not any(_member_resolves(owner, attrs) for owner in exported[name]):
            broken.append(member)
    assert not broken, (
        f"{doc.relative_to(REPO_ROOT)} documents fields or methods that do "
        f"not exist: {sorted(set(broken))}"
    )


# Backticked class-like tokens: a capitalised identifier with a lower-case
# letter (``GraphView``, ``APANConfig``, ``Makefile``), optionally followed
# by ``.attr`` and/or a call (``EventStore(n,`` splits off ``d)``).
_CLASS_LIKE = re.compile(r"^([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:\.\w+)*(?:\(.*)?$")
# Classes of other projects the docs name on purpose.
_OUTSIDE_CLASSES = {"TimeDeltaDG"}  # openDG's time-granularity type


def _package_classes() -> set[str]:
    """Names of every class defined anywhere under ``src/repro``."""
    classes: set[str] = set()
    for source in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.ClassDef):
                classes.add(node.name)
    return classes


def extract_class_names(doc: Path) -> list[str]:
    """The leading name of every backticked class-like token in one document."""
    names: list[str] = []
    for code in _CODE.findall(doc.read_text()):
        for token in code.split():
            match = _CLASS_LIKE.match(token)
            if match:
                names.append(match.group(1))
    return names


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_all_documented_classes_exist(doc):
    """Backticked class names must be package classes (drift audit)."""
    classes = _package_classes()
    broken = [name for name in extract_class_names(doc)
              if name not in classes and name not in _OUTSIDE_CLASSES
              and not hasattr(builtins, name) and not (REPO_ROOT / name).exists()]
    assert not broken, (
        f"{doc.relative_to(REPO_ROOT)} names classes that are not defined "
        f"under src/repro: {sorted(set(broken))}"
    )


def test_required_docs_present():
    """The documentation set the repo promises (README + architecture + API)."""
    for required in ("README.md", "docs/ARCHITECTURE.md", "docs/API.md"):
        assert (REPO_ROOT / required).exists(), f"{required} is missing"
