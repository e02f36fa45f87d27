"""Guard against documentation rot: files the docs reference must exist."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def referenced(pattern: str, *docs: str) -> set[str]:
    found = set()
    for doc in docs:
        text = (ROOT / doc).read_text()
        found.update(re.findall(pattern, text))
    return found


def protocol_section(number: int) -> str:
    """PROTOCOL.md's section ``number``, heading to the next heading."""
    text = (ROOT / "docs" / "PROTOCOL.md").read_text()
    return text.split(f"\n## {number}. ")[1].split("\n## ")[0]


class TestDocsConsistency:
    def test_every_referenced_bench_exists(self):
        names = referenced(r"bench_\w+\.py", "DESIGN.md", "EXPERIMENTS.md")
        assert names, "docs should reference benchmark modules"
        for name in names:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_bench_is_documented(self):
        documented = referenced(r"bench_\w+\.py", "DESIGN.md",
                                "EXPERIMENTS.md")
        on_disk = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
        assert on_disk <= documented, (
            f"undocumented benches: {sorted(on_disk - documented)}")

    def test_every_referenced_example_exists(self):
        names = referenced(r"(\w+\.py)", "README.md")
        for name in names:
            if (ROOT / "examples" / name).exists():
                continue
            # README also mentions non-example .py names; only enforce
            # the ones written as examples/<name>
        explicit = referenced(r"`(\w+\.py)`", "README.md")
        for name in explicit:
            assert (ROOT / "examples" / name).exists(), name

    def test_every_example_runs_are_listed_in_readme(self):
        readme = (ROOT / "README.md").read_text()
        for example in (ROOT / "examples").glob("*.py"):
            assert example.name in readme or "quickstart" in example.name, \
                f"{example.name} missing from README"

    def test_design_module_inventory_resolves(self):
        import importlib

        text = (ROOT / "DESIGN.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
        for dotted in sorted(modules):
            root = dotted.split(".")[:2]
            importlib.import_module(".".join(root))

    def test_experiments_md_covers_all_figures(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for exp in ("F1", "F2", "F3", "F4/F5", "F6/F7", "F8", "F9",
                    "F10", "F11", "T-FT", "T-PERF", "T-RT", "T-CHK"):
            assert exp in text, f"missing experiment {exp}"

    def test_the_documented_histogram_sub_series_are_the_stored_ones(self):
        from repro.observatory.tsdb import HISTOGRAM_STATS

        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        [documented] = re.findall(
            r"histograms become `stat=` sub-series:\s+([\w/]+)\)", text)
        assert tuple(documented.split("/")) == HISTOGRAM_STATS

    def test_the_documented_subscription_table_is_the_coded_one(self):
        """ARCHITECTURE's example refusal, the probe it names as the
        reason no reaper is armed, and "schedules nothing" are real."""
        from repro.net import Network
        from repro.ogsi import SubscriptionTable
        from repro.sim import Kernel
        from repro.util.errors import ProtocolError

        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        [(path, probe)] = re.findall(
            r"`(benchmarks/[\w/.]+)::(\w+)`\s+subscribes", text)
        body = (ROOT / path).read_text().split(f"def {probe}(")[1]
        body = body.split("\ndef ")[0]
        assert '"lifetime": 1e9' in body and "kernel.run()\n" in body
        [message] = re.findall(r"`ProtocolError` \(`([^`]+)`\)", text)
        kernel = Kernel()
        table = SubscriptionTable(Network(kernel, seed=0), "h", lambda: "id")
        with pytest.raises(ProtocolError) as refusal:
            table.subscribe(None, "h", "p", float("inf"))
        assert str(refusal.value) == message
        table.subscribe(None, "h", "p", 1e9)
        kernel.run()
        assert kernel.now == 0.0 and len(table) == 1

    def test_the_documented_checkpoint_merge_is_the_coded_one(self):
        """ARCHITECTURE's "Store." paragraph: the merge and the fold it
        names exist, the merge lives on the base alone and its docstring
        states the same rule, and a lost tail does shorten the history
        instead of leaving a hole in it."""
        from test_checkpoint_resume import make_tail_doc, run_store

        from repro.repository import checkpoint

        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        [paragraph] = re.findall(r"\* \*\*Store\.\*\*(.*?)\n\* \*\*", text,
                                 re.S)
        [rule] = re.findall(r"answers\s+with the (longest complete prefix)",
                            paragraph)
        dotted = re.findall(r"`(_?[A-Z]\w+)\.(\w+)`", paragraph)
        assert dotted == [("CheckpointStoreBase", "load_history"),
                          ("_History", "fold")]
        for owner, attr in dotted:
            assert hasattr(getattr(checkpoint, owner), attr)
        merge = checkpoint.CheckpointStoreBase.load_history
        assert rule in " ".join(merge.__doc__.split())
        stores = re.findall(r"`(\w+CheckpointStore)`", paragraph)
        assert len(stores) == 2
        for store in stores:
            assert "load_history" not in vars(getattr(checkpoint, store))

        store = checkpoint.InMemoryCheckpointStore()
        for seq, steps in enumerate([(1, 2), (3, 4), (5, 6)], start=1):
            run_store(store.save(make_tail_doc(seq, steps=steps)))
        store._runs["run"][2] = "{truncated"
        latest, records = run_store(store.load_history("run"))
        assert latest["seq"] == 1
        assert [r["step"] for r in records] == [1, 2]

    def test_the_documented_rule_table_is_the_shipped_one(self):
        """ARCHITECTURE's RPR table: the live codes, each row naming the
        tier-1 pins that carry it and each pin a test that exists; the
        known retired rows; RPR010's row naming exactly its staged
        subsystems."""
        import importlib

        from test_analysis import STAGED

        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        section = text.split("## Static analysis & invariants")[1]
        rows = dict(re.findall(r"^\| (RPR[\d–]+) \| (.*)$",
                               section.split("\n## ")[0], re.M))
        retired = {code for code, row in rows.items()
                   if row.startswith("*(retired)*")}
        assert retired == {"RPR000", "RPR002", "RPR005", "RPR006", "RPR007",
                           "RPR008"}
        assert set(rows) - retired == {"RPR001", "RPR003", "RPR004",
                                       "RPR009", "RPR010", "RPR100–104"}
        for code in set(rows) - retired:
            pins = re.findall(r"`tests/(\w+)\.py::([\w:]+)`", rows[code])
            assert pins, code
            for module, name in pins:
                test = importlib.import_module(module)
                for part in name.split("::"):
                    test = getattr(test, part)
                assert callable(test) and part.startswith("test_"), name
        staged = rows["RPR010"].split("(currently ")[1].split(")")[0]
        assert tuple(re.findall(r"`(repro\.\w+)`", staged)) == STAGED

    def test_the_documented_invariants_are_the_predicates(self):
        """PROTOCOL.md §10 lists exactly `repro.invariants`' predicates,
        in their order."""
        from repro.invariants import PREDICATES

        assert re.findall(r"^\* \*\*([a-z-]+)\*\* — ", protocol_section(10),
                          re.M) == list(PREDICATES)

    def test_the_documented_counter_table_replays_live(self):
        """PROTOCOL.md §10's counter table, the one statement of the
        depth-0 single faults' server counters, generation and
        reconcile actions: every row replayed live on the verifier's
        rig matches it."""
        from repro.verify.explorer import replay as _replay
        from repro.verify.explorer import (
            SEQUENTIAL_KINDS,
            VerifyConfig,
            enumerate_schedules,
        )

        config = VerifyConfig(max_faults=1)
        keys = ("proposed", "executed", "cancelled", "duplicate_proposals",
                "duplicate_executes")
        rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", protocol_section(10),
                          re.M)
        assert sorted(kind for kind, _ in rows) == sorted(SEQUENTIAL_KINDS)
        for kind, cells in rows:
            uiuc, cu, surrogate, generation, reconcile = cells.split(" | ")
            [schedule] = [s for s in enumerate_schedules(config) if s and (
                s[0].kind, s[0].step, s[0].site) == (kind, 2, "uiuc")]
            evidence, coordinator = _replay(config, schedule)
            served = evidence.surrogates.get("uiuc")
            for cell, server in ((uiuc, evidence.servers["uiuc"]),
                                 (cu, evidence.servers["cu"]),
                                 (surrogate, served)):
                if cell == "—":
                    assert server is None, kind
                    continue
                counts = server.metrics()
                assert [want == "–" or int(want) == counts[key] for want, key
                        in zip(cell.split("/"), keys)] == [True] * 5, kind
            assert coordinator.state.generation == int(generation), kind
            report = coordinator.last_reconciliation
            assert (", ".join(f"{a.site} {a.action}" for a in report.actions)
                    if report else "—") == reconcile, kind

    @pytest.mark.parametrize("doc", ["docs/PROTOCOL.md",
                                     "docs/ARCHITECTURE.md"])
    def test_the_verifier_is_documented_as_one_pass(self, doc):
        """`python -m repro.verify` takes no options and writes no
        document: the docs name no switch, report or shortened target."""
        text = (ROOT / doc).read_text()
        for gone in ("verify/v1", "--mutate", "--smoke", "verify-smoke"):
            assert gone not in text, gone

    def test_the_t_wall_row_quotes_the_pinned_work_per_step(self):
        """EXPERIMENTS.md's T-WALL row states the simulation-only run's
        kernel entries and messages per step, and the data-plane run's,
        as ``tests/test_work_budget.py`` measures and pins them, so the
        row cannot go stale while the pins move."""
        from test_work_budget import MOST_BARE_PER_STEP, MOST_FULL_PER_STEP

        [row] = [line for line in
                 (ROOT / "EXPERIMENTS.md").read_text().splitlines()
                 if line.startswith("| T-WALL |")]
        for pattern, pinned in (
                (r"is ([\d.]+) kernel entries and ([\d.]+) messages per "
                 r"committed step", MOST_BARE_PER_STEP),
                (r"([\d.]+) / ([\d.]+) with the data plane",
                 MOST_FULL_PER_STEP)):
            quoted = re.search(pattern, row)
            assert quoted, f"the T-WALL row names no {pattern!r} figures"
            assert {"entries": float(quoted[1]),
                    "messages": float(quoted[2])} == pinned
