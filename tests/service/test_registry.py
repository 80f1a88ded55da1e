"""Registry behavior: unknown keys list the menu, late registration
works, and the pre-service import path still resolves to the registry."""

import pytest

from repro.core import REMI as CoreREMI
from repro.core.batch import BatchMiner
from repro.core.parallel import PREMI
from repro.core.remi import REMI
from repro.registry import (
    ESTIMATORS,
    KB_BACKENDS,
    MINERS,
    PROMINENCE,
    Registry,
    RegistryError,
)
from repro.kb.namespaces import EX
from repro.kb.store import KnowledgeBase
from repro.kb.interned import InternedKnowledgeBase


class TestBuiltins:
    def test_all_four_axes_have_their_builtins(self):
        assert {"hash", "interned"} <= set(KB_BACKENDS.names())
        assert {"remi", "premi", "full-brevity", "incremental"} <= set(MINERS.names())
        assert {"fr", "pr"} <= set(PROMINENCE.names())
        assert {"exact", "powerlaw"} <= set(ESTIMATORS.names())

    def test_lazy_specs_resolve_to_the_real_classes(self):
        assert KB_BACKENDS.get("hash") is KnowledgeBase
        assert KB_BACKENDS.get("interned") is InternedKnowledgeBase
        assert MINERS.get("remi") is REMI
        assert MINERS.get("premi") is PREMI


class TestErrors:
    def test_unknown_key_lists_available_plugins(self):
        with pytest.raises(RegistryError) as excinfo:
            KB_BACKENDS.get("sqlite")
        message = str(excinfo.value)
        assert "'hash'" in message and "'interned'" in message
        assert "sqlite" in message

    def test_registry_error_is_both_keyerror_and_valueerror(self):
        with pytest.raises(KeyError):
            MINERS.get("nope")
        with pytest.raises(ValueError):
            MINERS.get("nope")

    def test_unknown_prominence_through_miner_lists_menu(self, rennes_kb):
        with pytest.raises(ValueError) as excinfo:
            REMI(rennes_kb, prominence="wiki")
        assert "'fr'" in str(excinfo.value) and "'pr'" in str(excinfo.value)

    def test_duplicate_registration_rejected_without_replace(self):
        registry = Registry("toy")
        registry.register("a", dict)
        with pytest.raises(ValueError):
            registry.register("a", list)
        registry.register("a", list, replace=True)
        assert registry.get("a") is list


class TestLateRegistration:
    def test_late_plugin_is_visible_and_usable(self, rennes_kb):
        from repro.complexity.ranking import FrequencyProminence

        class LoudProminence(FrequencyProminence):
            pass

        PROMINENCE.register("loud-test", LoudProminence)
        try:
            assert "loud-test" in PROMINENCE
            miner = REMI(rennes_kb, prominence="loud-test")
            assert isinstance(miner.prominence, LoudProminence)
            assert miner.mine([EX.Rennes]).found
        finally:
            PROMINENCE.unregister("loud-test")
        assert "loud-test" not in PROMINENCE

    def test_decorator_form(self):
        registry = Registry("toy")

        @registry.register("thing")
        class Thing:
            pass

        assert registry.create("thing").__class__ is Thing

    def test_unregister_unknown_raises_with_menu(self):
        registry = Registry("toy")
        with pytest.raises(RegistryError):
            registry.unregister("ghost")


class TestDeprecationShims:
    """The pre-service import path still works and agrees with the registry."""

    def test_core_remi_import_path_unchanged(self):
        assert CoreREMI is REMI
        assert MINERS.get("remi") is CoreREMI


class TestBaselineMiners:
    def test_baselines_serve_through_batchminer(self, rennes_kb):
        for name in ("full-brevity", "incremental"):
            miner = BatchMiner(rennes_kb, miner=name)
            outcome = miner.mine_many([[EX.Rennes, EX.Nantes]])[0]
            assert outcome.error is None
            summary = miner.summary()
            assert summary["miner"] == name
            assert summary["requests_served"] == 1

    def test_baseline_adapters_follow_live_updates(self, rennes_kb):
        """The wrapped baseline's build-time snapshots (e.g. the
        Incremental preference order) must not go stale when the KB
        mutates under a resident miner."""
        from repro.kb.triples import Triple

        for name in ("incremental", "full-brevity"):
            miner = BatchMiner(rennes_kb, miner=name)
            miner.mine_many([[EX.Rennes]])  # build against the initial KB
            # A brand-new entity distinguishable only via a brand-new
            # predicate, added AFTER the adapter was built.
            miner.apply_update(
                "add", Triple(EX.Plouzane, EX.freshPredicate, EX.Bretagne)
            )
            outcome = miner.mine_many([[EX.Plouzane]])[0]
            assert outcome.error is None, (name, outcome.error)
            assert outcome.found, f"{name} missed the post-update predicate"
            assert "freshPredicate" in repr(outcome.result.expression)
