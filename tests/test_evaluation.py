import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmsieve.corpus import AssemblyFunction, FunctionPair
from asmsieve.errors import (
    ConfigurationError,
    FixtureMissError,
    MissingEmbeddingError,
    MissingFeatureError,
)
from asmsieve.evaluation import (
    EvalPool,
    ablation_grid,
    evaluate_pool,
    grid_cells,
    sample_pool,
)
from asmsieve.fixtures import FixtureStore, prompt_sha256
from asmsieve.prompts import PromptConfig, build_prompt, load_example_bank
from asmsieve.schema import canonicalize
from asmsieve.similarity import EmbeddingStore, cosine, hybrid, jaccard
from helpers import brute_force_metrics, random_feature_set, random_token_set


def pairs_of(*items):
    return tuple(FunctionPair(left=l, right=r, pairing="cross_optimization") for l, r in items)


def token_map(raw):
    return {fid: frozenset(tokens) for fid, tokens in raw.items()}


class TestEvalPool:
    def test_duplicate_rights_rejected(self):
        with pytest.raises(ConfigurationError, match="distinct"):
            EvalPool(pairs=pairs_of(("l1", "r"), ("l2", "r")))
        with pytest.raises(ConfigurationError) as err:
            EvalPool(pairs=pairs_of(("l1", "s"), ("l2", "r"), ("l3", "s"), ("l4", "t"), ("l5", "r")))
        assert str(err.value) == "pool right-side ids must be distinct, repeated: ['r', 's']"

    def test_unknown_scorer(self):
        with pytest.raises(ConfigurationError, match="scorer"):
            EvalPool(pairs=pairs_of(("l", "r")), scorer="euclidean")

    def test_pool_size(self):
        assert EvalPool(pairs=pairs_of(("a", "b"), ("c", "d"))).pool_size == 2


class TestEvaluatePool:
    def test_hand_built_ranks(self):
        # engineered so the true matches rank 1, 2, 4, 1
        features = token_map(
            {
                "l1": {"a"},
                "l2": {"b", "c"},
                "l3": {"a", "b", "d"},
                "l4": {"d"},
                "r1": {"a"},
                "r2": {"b", "b2"},
                "r3": {"c"},
                "r4": {"d"},
            }
        )
        pool = EvalPool(pairs=pairs_of(("l1", "r1"), ("l2", "r2"), ("l3", "r3"), ("l4", "r4")))
        report = evaluate_pool(pool, features)
        assert report.per_pair_ranks == (1, 2, 4, 1)
        assert report.mrr == (1 + 0.5 + 0.25 + 1) / 4 == 0.6875
        assert report.recall_at_1 == 0.5

    def test_perfect_retrieval(self):
        features = token_map(
            {name: {name[-1] * 3} for name in ("l1", "l2", "r1", "r2")} |
            {"l1": {"x"}, "r1": {"x"}, "l2": {"y"}, "r2": {"y"}}
        )
        pool = EvalPool(pairs=pairs_of(("l1", "r1"), ("l2", "r2")))
        report = evaluate_pool(pool, features)
        assert report.mrr == report.recall_at_1 == 1.0

    def test_missing_feature_named(self):
        pool = EvalPool(pairs=pairs_of(("l1", "r1")))
        with pytest.raises(MissingFeatureError, match="r1"):
            evaluate_pool(pool, token_map({"l1": {"a"}}))

    def test_missing_embedding_named(self):
        pool = EvalPool(pairs=pairs_of(("l1", "r1")), scorer="hybrid")
        features = token_map({"l1": {"a"}, "r1": {"a"}})
        store = EmbeddingStore()
        store.add("l1", [1.0])
        with pytest.raises(MissingEmbeddingError, match="r1"):
            evaluate_pool(pool, features, embeddings=store)

    def test_tie_ranks_and_pessimistic_bound(self):
        features = token_map({"l": {"a"}, "l2": {"z"}, "r1": {"a"}, "r2": {"a"}})
        pool = EvalPool(pairs=pairs_of(("l", "r2"), ("l2", "r1")))
        report = evaluate_pool(pool, features)
        # both rights tie at 1.0 for l; ascending id puts r1 first
        assert report.per_pair_ranks[0] == 2
        assert report.per_pair_pessimistic_ranks[0] == 2
        swapped = EvalPool(pairs=pairs_of(("l", "r1"), ("l2", "r2")))
        report1 = evaluate_pool(swapped, features)
        assert report1.per_pair_ranks[0] == 1  # deterministic tie order
        assert report1.per_pair_pessimistic_ranks[0] == 2  # ties counted as worse

    def test_mrr_at_least_recall(self):
        rng = random.Random(17)
        vocab = [f"t{i}" for i in range(40)]
        for _ in range(25):
            n = rng.randint(1, 20)
            raw = {}
            pairs = []
            for i in range(n):
                raw[f"l{i:02d}"] = random_token_set(rng, vocab, 15)
                raw[f"r{i:02d}"] = random_token_set(rng, vocab, 15)
                pairs.append((f"l{i:02d}", f"r{i:02d}"))
            report = evaluate_pool(EvalPool(pairs=pairs_of(*pairs)), token_map(raw))
            assert 0.0 <= report.recall_at_1 <= report.mrr <= 1.0

    def test_matches_brute_force_oracle_jaccard(self):
        rng = random.Random(23)
        vocab = [f"t{i}" for i in range(50)]
        for _ in range(20):
            n = rng.randint(2, 30)
            raw, pairs = {}, []
            for i in range(n):
                raw[f"l{i:02d}"] = random_token_set(rng, vocab, 20)
                raw[f"r{i:02d}"] = random_token_set(rng, vocab, 20)
                pairs.append((f"l{i:02d}", f"r{i:02d}"))
            features = token_map(raw)

            def score(a, b):
                sa, sb = features[a], features[b]
                return len(sa & sb) / len(sa | sb)

            mrr, recall, ranks = brute_force_metrics(pairs, score)
            report = evaluate_pool(EvalPool(pairs=pairs_of(*pairs)), features)
            assert abs(report.mrr - mrr) <= 1e-12
            assert abs(report.recall_at_1 - recall) <= 1e-12
            assert report.per_pair_ranks == tuple(ranks)

    def test_matches_brute_force_oracle_hybrid(self):
        rng = random.Random(29)
        vocab = [f"t{i}" for i in range(30)]
        n = 12
        raw, pairs = {}, []
        store = EmbeddingStore()
        vectors = {}
        for i in range(n):
            for side in ("l", "r"):
                fid = f"{side}{i:02d}"
                raw[fid] = random_token_set(rng, vocab, 12)
                vectors[fid] = np.array([rng.uniform(-1, 1) + 0.01 for _ in range(6)])
                store.add(fid, vectors[fid])
            pairs.append((f"l{i:02d}", f"r{i:02d}"))
        features = token_map(raw)

        def score(a, b):
            sa, sb = features[a], features[b]
            s_a = len(sa & sb) / len(sa | sb)
            u, v = vectors[a], vectors[b]
            s_e = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
            return (s_e + s_a) / 2

        mrr, recall, ranks = brute_force_metrics(pairs, score)
        pool = EvalPool(pairs=pairs_of(*pairs), scorer="hybrid")
        report = evaluate_pool(pool, features, embeddings=store)
        assert abs(report.mrr - mrr) <= 1e-12
        assert report.per_pair_ranks == tuple(ranks)

    def test_pair_order_changes_no_number(self):
        rng = random.Random(31)
        vocab = [f"t{i}" for i in range(30)]
        raw, pairs = {}, []
        for i in range(10):
            raw[f"l{i}"] = random_token_set(rng, vocab, 10)
            raw[f"r{i}"] = random_token_set(rng, vocab, 10)
            pairs.append((f"l{i}", f"r{i}"))
        features = token_map(raw)
        base = evaluate_pool(EvalPool(pairs=pairs_of(*pairs)), features)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        other = evaluate_pool(EvalPool(pairs=pairs_of(*shuffled)), features)
        assert (base.mrr, base.recall_at_1) == (other.mrr, other.recall_at_1)
        assert sorted(base.per_pair_ranks) == sorted(other.per_pair_ranks)

    def test_distractor_never_improves_rank(self):
        rng = random.Random(37)
        vocab = [f"t{i}" for i in range(30)]
        raw = {f"{s}{i}": random_token_set(rng, vocab, 10) for i in range(8) for s in "lr"}
        pairs = [(f"l{i}", f"r{i}") for i in range(7)]
        features = token_map(raw)
        before = evaluate_pool(EvalPool(pairs=pairs_of(*pairs)), features)
        extended = pairs + [("l7", "r7")]
        after = evaluate_pool(EvalPool(pairs=pairs_of(*extended)), features)
        for i in range(7):
            assert after.per_pair_ranks[i] >= before.per_pair_ranks[i]


# small vectors whose cosines repeat, so that hybrid and cosine rows tie often
_TIE_VECTORS = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 2.0, 0.0],
                [1.0, -1.0, 0.0], [0.0, 0.0, 3.0])


@st.composite
def _tie_heavy_pool(draw):
    vocab = [f"t{i}" for i in range(draw(st.integers(3, 6)))]
    n = draw(st.integers(1, 8))
    ids = [f"{side}{i}" for i in range(n) for side in "lr"]
    tokens = {fid: draw(st.frozensets(st.sampled_from(vocab))) for fid in ids}
    vectors = {fid: draw(st.sampled_from(_TIE_VECTORS)) for fid in ids}
    pairs = draw(st.permutations([(f"l{i}", f"r{i}") for i in range(n)]))
    return tokens, vectors, pairs


def _scalar_score(scorer, features, store):
    if scorer == "jaccard":
        return lambda a, b: jaccard(features[a], features[b])
    if scorer == "cosine":
        return lambda a, b: cosine(store[a], store[b])
    return lambda a, b: hybrid(jaccard(features[a], features[b]), cosine(store[a], store[b])).S


def _brute_force_ranks(pairs, score):
    """Both ranks of each true match, counted pair by pair with the scalar
    score: ties before it by id for the optimistic rank, all other ties for
    the pessimistic one."""
    rights = sorted(r for _, r in pairs)
    ranks, pess_ranks = [], []
    for left, right in pairs:
        s_true = score(left, right)
        scores = [(score(left, cand), cand) for cand in rights]
        better = sum(1 for s, _ in scores if s > s_true)
        ranks.append(1 + better + sum(1 for s, c in scores if s == s_true and c < right))
        pess_ranks.append(1 + better + sum(1 for s, c in scores if s == s_true and c != right))
    return tuple(ranks), tuple(pess_ranks)


class TestRowScoringOracle:
    @given(_tie_heavy_pool(), st.sampled_from(("jaccard", "hybrid", "cosine")))
    @settings(max_examples=300, deadline=None)
    def test_both_ranks_equal_the_scalar_count(self, case, scorer):
        tokens, vectors, pairs = case
        features = dict(tokens)
        store = EmbeddingStore()
        for fid, values in vectors.items():
            store.add(fid, values)
        ranks, pess_ranks = _brute_force_ranks(pairs, _scalar_score(scorer, features, store))
        report = evaluate_pool(EvalPool(pairs=pairs_of(*pairs), scorer=scorer), features, store)
        assert report.per_pair_ranks == ranks
        assert report.per_pair_pessimistic_ranks == pess_ranks
        assert report.mrr == sum(1.0 / r for r in ranks) / len(ranks)

    def test_self_cosine_over_one_keeps_the_scalar_fault(self):
        rows = np.random.default_rng(0).standard_normal((5, 64))
        # l1 and r1 are both the first row, where cosine(v, v) > 1; r0, seven
        # times that row, has a cosine of exactly 1.0 with it
        lefts = [rows[1] + rows[2], rows[0], rows[2] + rows[3], rows[3] + rows[4], rows[4] + rows[1]]
        rights = [7.0 * rows[0], rows[0], rows[2], rows[3], rows[4]]
        store, features = EmbeddingStore(), {}
        for i in range(5):
            for fid, values in ((f"l{i}", lefts[i]), (f"r{i}", rights[i])):
                store.add(fid, values)
                features[fid] = frozenset({"t"})
        pairs = [(f"l{i}", f"r{i}") for i in range(5)]
        assert cosine(store["l1"], store["r1"]) > 1.0 == cosine(store["l1"], store["r0"])
        with pytest.raises(ValueError, match=r"s_e must lie in \[-1, 1\]") as scalar:
            _brute_force_ranks(pairs, _scalar_score("hybrid", features, store))
        with pytest.raises(ValueError) as err:
            evaluate_pool(EvalPool(pairs=pairs_of(*pairs), scorer="hybrid"), features, store)
        assert str(err.value) == str(scalar.value)
        report = evaluate_pool(EvalPool(pairs=pairs_of(*pairs), scorer="cosine"), features, store)
        ranks = _brute_force_ranks(pairs, _scalar_score("cosine", features, store))
        assert (report.per_pair_ranks, report.per_pair_pessimistic_ranks) == ranks
        assert ranks[0][1] == 1  # not tied with r0


class TestSamplePool:
    def test_deterministic_for_seed(self):
        pairs = pairs_of(*[(f"l{i}", f"r{i}") for i in range(20)])
        assert sample_pool(pairs, 5, seed=42) == sample_pool(pairs, 5, seed=42)
        assert sample_pool(pairs, 5, seed=42) != sample_pool(pairs, 5, seed=43)

    def test_size_validated(self):
        pairs = pairs_of(("l", "r"))
        with pytest.raises(ConfigurationError):
            sample_pool(pairs, 2, seed=1)


class TestGridCells:
    def test_drop_one_section_has_five_cells(self):
        cells = grid_cells(PromptConfig(), "drop_one_section")
        assert len(cells) == 5
        assert all(len(c.config.sections) == 4 for c in cells)

    def test_num_examples_axis_is_zero_to_four(self):
        cells = grid_cells(PromptConfig(), "num_examples")
        assert [c.config.num_examples for c in cells] == [0, 1, 2, 3, 4]

    def test_toggle_axes(self):
        assert len(grid_cells(PromptConfig(), "system_prompt")) == 2
        assert len(grid_cells(PromptConfig(), "schema_in_prompt")) == 2

    def test_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            grid_cells(PromptConfig(), "moon_phase")


def _ablation_setup(tmp_path, n_pairs=2):
    bank = load_example_bank()
    functions = {}
    pairs = []
    rng = random.Random(5)
    for i in range(n_pairs):
        for opt in ("O0", "O3"):
            fid = f"lib/f{i}@x86-64/{opt}"
            functions[fid] = AssemblyFunction(
                id=fid, library="lib", source_symbol=f"f{i}", arch="x86-64",
                opt_level=opt,
                instructions=(f"401000: mov eax, {i + 2}", "401005: ret"),
            )
        pairs.append((f"lib/f{i}@x86-64/O0", f"lib/f{i}@x86-64/O3"))
    pool = EvalPool(pairs=pairs_of(*pairs), name="mini")
    store = FixtureStore(tmp_path / "fixtures", create=True)
    cells = grid_cells(PromptConfig(), "system_prompt")
    for cell in cells:
        for fid, fn in functions.items():
            prompt = build_prompt(fn, cell.config, bank)
            doc_rng = random.Random(fn.source_symbol + fn.opt_level)
            doc = canonicalize(random_feature_set(doc_rng))
            store.put(prompt_sha256(prompt.system, prompt.user), 0.2, 0, doc)
    return bank, functions, pool, store


class TestAblationGrid:
    def test_two_cells_one_pool_two_reports(self, tmp_path):
        bank, functions, pool, store = _ablation_setup(tmp_path)
        table = ablation_grid(
            PromptConfig(), "system_prompt", [pool], functions, store, bank=bank
        )
        assert len(table.rows) == 2
        labels = [row[0] for row in table.rows]
        assert labels == ["system_prompt=on", "system_prompt=off"]

    def test_fixture_miss_names_cell(self, tmp_path):
        bank, functions, pool, store = _ablation_setup(tmp_path)
        victim = build_prompt(
            next(iter(functions.values())),
            grid_cells(PromptConfig(), "system_prompt")[1].config,
            bank,
        )
        (store.root / f"{prompt_sha256(victim.system, victim.user)}.json").unlink()
        with pytest.raises(FixtureMissError, match="system_prompt=off"):
            ablation_grid(PromptConfig(), "system_prompt", [pool], functions, store, bank=bank)

    def test_table_renders(self, tmp_path):
        bank, functions, pool, store = _ablation_setup(tmp_path)
        table = ablation_grid(
            PromptConfig(), "system_prompt", [pool], functions, store, bank=bank
        )
        text = table.render_table()
        assert "system_prompt=on" in text and "MRR" in text
        assert len(table.as_dict()) == 2
