"""Facade contract: the exported surface of ``repro.api`` is pinned.

API 2.0 restructured the facade into namespaced sub-facades
(``api.study``, ``api.corpus``, ``api.trace``, ``api.analysis``,
``api.serve``) and kept every pre-2.0 flat name as a deprecated alias;
API 3.0 removed those aliases.  Each former flat name now raises
``AttributeError``, usually with its namespaced home as the suggestion.

Anything pinned here is a compatibility promise: removing or renaming an
entry is a breaking change (major bump of ``API_VERSION``), adding one
is a compatible change (minor bump).  When one of these tests fails,
either revert the facade change or bump ``API_VERSION`` *and* update the
pinned lists here in the same commit.
"""

from __future__ import annotations

import ast
import re
import warnings
from pathlib import Path

import pytest

from repro import api

PINNED_VERSION = "3.0"

PINNED_ALL = [
    "API_VERSION",
    "analysis",
    "corpus",
    "serve",
    "study",
    "trace",
]

PINNED_FACETS = {
    "study": [
        "StudyRun",
        "crawl_figures_legs",
        "golden_digests",
        "list_experiments",
        "list_mechanisms",
        "mechanism_digests",
        "new_study",
        "render_report",
        "run_experiments",
        "run_one",
        "run_study",
    ],
    "corpus": ["build", "info", "list", "verify"],
    "trace": ["TraceDiff", "diff", "load", "render", "render_diff"],
    "analysis": ["run"],
    "serve": [
        "FleetConfig",
        "build_service",
        "render_serving_report",
        "run_fleet",
        "serving_digests",
    ],
}

#: every 1.x flat name API 2.0 deprecated and 3.0 removed -> its
#: namespaced home.  None of them may come back as a flat attribute.
PINNED_ALIASES = {
    "StudyRun": ("study", "StudyRun"),
    "TraceDiff": ("trace", "TraceDiff"),
    "build_corpus": ("corpus", "build"),
    "corpus_info": ("corpus", "info"),
    "crawl_figures_legs": ("study", "crawl_figures_legs"),
    "diff_traces": ("trace", "diff"),
    "golden_digests": ("study", "golden_digests"),
    "list_corpora": ("corpus", "list"),
    "list_experiments": ("study", "list_experiments"),
    "list_mechanisms": ("study", "list_mechanisms"),
    "load_trace": ("trace", "load"),
    "mechanism_digests": ("study", "mechanism_digests"),
    "new_study": ("study", "new_study"),
    "render_diff": ("trace", "render_diff"),
    "render_report": ("study", "render_report"),
    "render_trace": ("trace", "render"),
    "run_analysis": ("analysis", "run"),
    "run_experiments": ("study", "run_experiments"),
    "run_one": ("study", "run_one"),
    "run_study": ("study", "run_study"),
    "verify_corpus": ("corpus", "verify"),
}

#: former flat names whose ``AttributeError`` suggests their exact home
#: (difflib at the facade's cutoff; the other six are too far from it).
SUGGESTS_HOME = [
    "StudyRun",
    "TraceDiff",
    "corpus_info",
    "crawl_figures_legs",
    "golden_digests",
    "list_experiments",
    "list_mechanisms",
    "mechanism_digests",
    "new_study",
    "render_diff",
    "render_report",
    "run_analysis",
    "run_experiments",
    "run_one",
    "run_study",
]

ROOT = Path(__file__).resolve().parent.parent

PINNED_COMPONENTS = [
    "AndroidBrowser",
    "BloomFilter",
    "BrowserTestHarness",
    "Calibration",
    "Certificate",
    "CertificateBuilder",
    "CertificateRevocationList",
    "ChainContext",
    "CheckCost",
    "Chrome",
    "CrlPublisher",
    "CrlSetBuilder",
    "Delivery",
    "Ed25519Backend",
    "Firefox",
    "GolombCompressedSet",
    "InternetExplorer",
    "KeyPair",
    "LINK_PROFILES",
    "LinkProfile",
    "MobileSafari",
    "MultiStapleServer",
    "Name",
    "OcspRequest",
    "Opera12",
    "Opera31",
    "RevocationMechanism",
    "RevocationRegime",
    "RevokedEntry",
    "Safari",
    "ServeModel",
    "SessionCostModel",
    "SessionState",
    "SimBackend",
    "StrictClient",
    "TestPki",
    "UpdateModel",
    "all_browsers",
    "analyze_coverage",
    "attack_window_study",
    "blast_radius",
    "build_onecrl",
    "chain_check_cost",
    "format_bytes",
    "format_table",
    "generate_test_suite",
    "is_crlset_eligible",
    "traffic_report",
]


class TestVersion:
    def test_version_is_pinned(self):
        assert api.API_VERSION == PINNED_VERSION

    def test_version_shape(self):
        major, minor = api.API_VERSION.split(".")
        assert major.isdigit() and minor.isdigit()


class TestNamespacedSurface:
    def test_all_is_exactly_the_pinned_list(self):
        assert list(api.__all__) == PINNED_ALL

    def test_all_is_sorted(self):
        assert list(api.__all__) == sorted(api.__all__)

    @pytest.mark.parametrize("facet", sorted(PINNED_FACETS))
    def test_facet_members_are_pinned(self, facet):
        assert list(getattr(api, facet).members) == PINNED_FACETS[facet]

    @pytest.mark.parametrize("facet", sorted(PINNED_FACETS))
    def test_every_facet_member_resolves(self, facet):
        namespace = getattr(api, facet)
        for member in PINNED_FACETS[facet]:
            assert getattr(namespace, member) is not None, member

    @pytest.mark.parametrize("facet", sorted(PINNED_FACETS))
    def test_facet_repr_and_dir(self, facet):
        namespace = getattr(api, facet)
        assert f"repro.api.{facet}" in repr(namespace)
        assert sorted(dir(namespace)) == sorted(PINNED_FACETS[facet])


class TestDeprecatedAliases:
    """The 1.x flat names are gone from the 3.0 facade."""

    def test_alias_table_is_pinned(self):
        assert len(PINNED_ALIASES) == 21
        surface = set(dir(api)) | set(api.__all__)
        assert not surface & set(PINNED_ALIASES)

    def test_every_alias_targets_a_pinned_member(self):
        for facet, attribute in PINNED_ALIASES.values():
            assert attribute in PINNED_FACETS[facet], (facet, attribute)

    @pytest.mark.parametrize("alias", sorted(PINNED_ALIASES))
    def test_former_alias_raises(self, alias):
        with pytest.raises(AttributeError, match=f"has no attribute '{alias}'"):
            getattr(api, alias)

    def test_error_names_the_namespaced_home(self):
        for alias in PINNED_ALIASES:
            facet, attribute = PINNED_ALIASES[alias]
            with pytest.raises(AttributeError) as excinfo:
                getattr(api, alias)
            suggests = f"{facet}.{attribute}" in str(excinfo.value)
            assert suggests == (alias in SUGGESTS_HOME), alias

    def test_aliases_are_not_module_globals(self):
        for alias in PINNED_ALIASES:
            assert alias not in vars(api), alias


class TestComponentReExports:
    def test_component_exports_are_exactly_the_pinned_list(self):
        assert sorted(api._COMPONENT_EXPORTS) == PINNED_COMPONENTS

    def test_every_component_resolves_lazily(self):
        for name in PINNED_COMPONENTS:
            attr = getattr(api, name)
            assert attr is not None, name
            # The re-export is the implementing object itself, not a copy.
            module = __import__(
                api._COMPONENT_EXPORTS[name], fromlist=[name]
            )
            assert attr is getattr(module, name), name

    def test_component_exports_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.LinkProfile  # noqa: B018
            api.LINK_PROFILES  # noqa: B018
            api.ServeModel  # noqa: B018

    def test_link_profiles_canonical(self):
        """The broadband/mobile profiles have one home: the facade and
        the serving fleet share the same objects."""
        profiles = api.LINK_PROFILES
        assert set(profiles) == {"broadband", "mobile"}
        assert profiles["broadband"] == api.LinkProfile()
        assert profiles["mobile"] == api.LinkProfile.mobile()


class TestErrorPath:
    def test_dir_covers_the_whole_surface(self):
        names = dir(api)
        for name in PINNED_ALL + PINNED_COMPONENTS:
            assert name in names

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            api.NoSuchExport  # noqa: B018

    def test_unknown_attribute_suggests_near_misses(self):
        with pytest.raises(AttributeError, match="did you mean"):
            api.run_studdy  # noqa: B018
        with pytest.raises(AttributeError) as excinfo:
            api.lst_mechanisms  # noqa: B018
        assert "list_mechanisms" in str(excinfo.value)

    def test_unknown_attribute_without_a_near_miss_is_plain(self):
        with pytest.raises(AttributeError) as excinfo:
            api.zzqx_not_even_close  # noqa: B018
        assert "did you mean" not in str(excinfo.value)


def _facade_references(path: Path) -> list[str]:
    """``api.<name>`` and ``api.<facet>.<member>`` uses plus
    ``from repro.api import <name>`` names in one file."""
    refs = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "repro.api":
            refs.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "api":
                refs.append(node.attr)
            elif (
                isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "api"
            ):
                refs.append(f"{owner.attr}.{node.attr}")
    return refs


class TestBenchmarkDiscipline:
    def test_benchmarks_only_import_the_facade(self):
        """The micro-benches ride on the facade: no ``repro.*`` internals
        (the RPR012 lint rule enforces the pool side of this)."""
        bench_dir = ROOT / "benchmarks"
        pattern = re.compile(
            r"^\s*(?:from|import)\s+(repro[.\w]*)", re.MULTILINE
        )
        for path in sorted(bench_dir.glob("*.py")):
            for module in pattern.findall(path.read_text()):
                assert module in ("repro", "repro.api"), (
                    f"{path.name} imports {module}; benchmarks must go "
                    "through repro.api"
                )

    def test_benchmarks_never_use_flat_aliases(self):
        """Every facade name the benchmarks and scripts use resolves on
        the 3.0 facade, so none of them still spells a removed 1.x flat
        alias."""
        paths = [
            *sorted((ROOT / "benchmarks").glob("*.py")),
            *sorted((ROOT / "scripts").glob("*.py")),
        ]
        refs = [(path, ref) for path in paths for ref in _facade_references(path)]
        assert refs
        for path, ref in refs:
            head, _, member = ref.partition(".")
            assert hasattr(api, head), f"{path.name}: api.{ref}"
            if member and head in PINNED_FACETS:
                assert hasattr(getattr(api, head), member), f"{path.name}: api.{ref}"
