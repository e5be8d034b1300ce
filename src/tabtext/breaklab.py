"""Synthetic text-injection scenarios that probe where each embedder breaks."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import (
    Column,
    ColumnRole,
    FoldAssignment,
    Table,
    TabTextError,
    TaskKind,
    k_fold_split,
    subsample_rows,
)
from .embed import EmbedderKind, ExternalEmbedding, assemble_features
from .evaluate import format_csv, metric_accuracy
from .models import Gbdt, Logistic, ModelKind, fit
from .select import NotBinary

BREAK_COLUMN = "break_text"

SYNONYMS_TRAIN = {
    "good": [
        "positive", "great", "excellent", "favorable", "pleasant",
        "admirable", "beneficial", "wonderful", "commendable", "worthy",
    ],
    "number": [
        "one", "three", "four", "five", "six",
        "seven", "eight", "nine", "ten", "eleven",
    ],
}

SYNONYMS_TEST = {
    "good": ["nice"],
    "number": ["two"],
}

RANDOM_WORDS = [
    "breeze", "crystal", "jungle", "sunset", "clock",
    "river", "pencil", "butterfly", "cloud", "guitar", "forest",
    "echo", "mirror", "flame", "galaxy", "shadow", "storm", "pearl",
    "ember", "whisper", "velvet", "feather", "lantern", "cherry", "fog",
    "nutmeg", "rocket", "canyon", "harbor", "planet", "sketch", "compass",
    "dream", "saddle", "maple", "python", "quartz", "cactus", "ladder",
    "amber", "panther", "blanket", "marble", "candle", "helmet",
    "anchor", "sand", "ocean", "lemon", "boulder", "ink", "ribbon",
    "nest", "basket", "flute", "meadow", "thunder", "vine", "shell",
    "drift", "carpet", "sapphire", "tiger", "honey", "blossom", "stream",
    "mountain", "lighthouse", "cliff", "pebble", "tunnel", "bubble",
    "apple", "silver", "chalk", "frost", "comet", "antler", "bramble",
    "ripple", "beacon", "groove", "hazel", "dune", "harvest",
    "twig", "cobweb", "glider", "ivory", "petal", "plume",
    "island", "whistle", "puzzle", "snowflake", "cradle",
    "nail", "window", "tassel",
]

SENTIMENT_POSITIVE = [
    "favorable", "happy", "joyful", "pleased", "delighted", "cheerful", "content",
    "grateful", "optimistic", "upbeat", "ecstatic",
    "radiant", "thrilled", "hopeful", "enthusiastic", "elated", "blissful",
    "satisfied", "charming", "agreeable", "nice",
    "awesome", "fabulous", "fantastic", "glorious", "marvelous", "splendid",
    "superb", "terrific", "admirable", "commendable",
    "noble", "excellent", "great", "incredible", "lively", "lovely",
    "magnificent", "outstanding", "peaceful",
    "kind", "rejoicing", "serene", "soothing", "supportive", "sympathetic",
    "tender", "vibrant", "warmhearted", "winsome",
]

SENTIMENT_NEGATIVE = [
    "harsh", "sad", "angry", "upset", "depressed", "bitter", "gloomy", "anxious",
    "worried", "hostile", "resentful",
    "unhappy", "irritable", "moody", "pessimistic", "fearful", "dismal",
    "horrible", "awful", "nasty", "unpleasant",
    "terrible", "mean", "cruel", "hurtful", "jealous", "malicious", "miserable",
    "regretful", "scornful",
    "troubled", "spiteful", "tense", "vindictive", "vulgar", "wicked", "wretched",
    "abrasive", "agonizing",
    "evil", "brutal", "callous", "coldhearted", "disrespectful", "frustrated",
    "hateful", "hostile", "intolerant", "nervous",
    "repulsive",
]


@dataclass(frozen=True)
class NoText:
    name = "no_text"
    display = "No Text"


@dataclass(frozen=True)
class CompleteLeak:
    name = "complete_leak"
    display = "Complete Leak"


@dataclass(frozen=True)
class SynonymOod:
    name = "synonym_ood"
    display = "Synonym OOD Break"


@dataclass(frozen=True)
class NoiseDilution:
    m_noise: int = 3
    name = "noise_dilution"
    display = "Noise Dilution Break"

    def __post_init__(self):
        if self.m_noise < 1:
            raise ValueError("m_noise must be at least 1")


@dataclass(frozen=True)
class AmbiguityDilution:
    m_words: int = 3
    name = "ambiguity_dilution"
    display = "Ambiguity Dilution Break"

    def __post_init__(self):
        if self.m_words < 1:
            raise ValueError("m_words must be at least 1")


BreakScenario = NoText | CompleteLeak | SynonymOod | NoiseDilution | AmbiguityDilution

_SCENARIO_CODE = {
    "no_text": 0,
    "complete_leak": 1,
    "synonym_ood": 2,
    "noise_dilution": 3,
    "ambiguity_dilution": 4,
}


def inject(table: Table, scenario: BreakScenario, split: str, seed: int) -> Table:
    """Append the synthetic 'break_text' column for one side of a split.

    The synonym scenario draws from disjoint train/test synonym sets so the
    test side only ever sees out-of-vocabulary replacements.
    """
    if table.task is not TaskKind.BINARY:
        raise NotBinary("break scenarios need a binary classification table")
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")
    if isinstance(scenario, NoText):
        return table
    labels = table.class_labels()
    y = table.target_column.values
    rng = np.random.default_rng(
        [seed, _SCENARIO_CODE[scenario.name], 0 if split == "train" else 1]
    )
    cells: list[str] = []
    if isinstance(scenario, CompleteLeak):
        cells = [str(v) for v in y]
    elif isinstance(scenario, SynonymOod):
        banks = SYNONYMS_TRAIN if split == "train" else SYNONYMS_TEST
        group_of = {labels[0]: banks["good"], labels[1]: banks["number"]}
        for v in y:
            words = group_of[v]
            cells.append(words[int(rng.integers(len(words)))])
    else:
        label_word = {labels[0]: "negative", labels[1]: "positive"}
        if isinstance(scenario, NoiseDilution):
            pool, m = RANDOM_WORDS, scenario.m_noise
        else:
            pool = SENTIMENT_POSITIVE + SENTIMENT_NEGATIVE
            m = scenario.m_words
        for v in y:
            extra = [pool[int(i)] for i in rng.choice(len(pool), size=m, replace=False)]
            words = [label_word[v]] + extra
            rng.shuffle(words)
            cells.append(" ".join(words))
    columns = list(table.columns) + [Column(BREAK_COLUMN, ColumnRole.TEXTUAL, cells)]
    return Table(table.name, columns, table.target, table.task, dict(table.meta))


def make_break_table(n_rows: int = 200, seed: int = 0, name: str = "synthetic-binary") -> Table:
    """Bundled binary table with deliberately weak non-text signal, used as
    the base for the break scenarios."""
    rng = np.random.default_rng([seed, 0xB1])
    half = n_rows // 2
    y = ["positive"] * half + ["negative"] * (n_rows - half)
    order = rng.permutation(n_rows)
    y = [y[i] for i in order]
    shift = np.array([0.25 if v == "positive" else -0.25 for v in y])
    sensor_a = shift + rng.standard_normal(n_rows)
    sensor_b = rng.standard_normal(n_rows)
    sites = [["north", "south", "east"][int(i)] for i in rng.integers(0, 3, n_rows)]
    columns = [
        Column("sensor_a", ColumnRole.NUMERICAL, [float(v) for v in sensor_a]),
        Column("sensor_b", ColumnRole.NUMERICAL, [float(v) for v in sensor_b]),
        Column("site", ColumnRole.CATEGORICAL, sites),
        Column("outcome", None, y),
    ]
    return Table(name, columns, "outcome", TaskKind.BINARY).validate()


def default_scenarios() -> list[BreakScenario]:
    return [NoText(), CompleteLeak(), SynonymOod(), NoiseDilution(), AmbiguityDilution()]


@dataclass
class BreakMatrix:
    scenarios: list[str]
    scenario_display: dict[str, str]
    tables: list[str]
    embedders: list[str]
    values: dict[tuple[str, str, str], float] = field(default_factory=dict)

    def average(self, scenario: str, embedder: str) -> float:
        vals = [self.values[(scenario, t, embedder)] for t in self.tables]
        return float(np.mean(vals))

    def to_text(self) -> str:
        width = max(len(t) for t in self.tables + ["Average"]) + 2
        out = []
        for sc in self.scenarios:
            out.append(f"== {self.scenario_display[sc]} ==")
            out.append("".ljust(width) + "  ".join(e.rjust(8) for e in self.embedders))
            for t in self.tables:
                cells = [f"{self.values[(sc, t, e)]:8.1f}" for e in self.embedders]
                out.append(t.ljust(width) + "  ".join(cells))
            cells = [f"{self.average(sc, e):8.1f}" for e in self.embedders]
            out.append("Average".ljust(width) + "  ".join(cells))
            out.append("")
        if "ambiguity_dilution" in self.scenarios:
            out.append("note: ambiguity scores come from non-LLM surrogate embedders"
                       " unless an external embedding file was supplied")
        return "\n".join(out).rstrip() + "\n"

    def to_csv(self) -> str:
        rows = [["scenario", "table", *self.embedders]]
        for sc in self.scenarios:
            for t in self.tables:
                rows.append([sc, t] + [repr(self.values[(sc, t, e)]) for e in self.embedders])
            rows.append([sc, "Average"] + [repr(self.average(sc, e)) for e in self.embedders])
        return format_csv(rows)


def _concat(a: Table, b: Table) -> Table:
    columns = [
        Column(ca.name, ca.role, list(ca.values) + list(cb.values))
        for ca, cb in zip(a.columns, b.columns)
    ]
    return Table(a.name, columns, a.target, a.task, dict(a.meta))


SUBSAMPLE_ROWS = 100
TEST_FOLD_COUNT = 5  # fold 0 of a stratified 5-fold split is the 20% test side


def check_break_model(model: ModelKind) -> None:
    """The break suite fits its model with `fit`, so it must be a logistic
    or gbdt classifier."""
    if not isinstance(model, (Logistic, Gbdt)):
        raise TabTextError(
            f"the break suite needs a logistic or gbdt classifier; got model kind {model.tag!r}"
        )


def run_break_suite(
    base_tables: list[Table],
    embedders: list[EmbedderKind],
    model: ModelKind,
    seed: int,
    scenarios: list[BreakScenario] | None = None,
) -> BreakMatrix:
    """Score every (scenario, embedder, table) cell on a single stratified
    80/20 split of a 100-row subsample; accuracies are reported x100. The
    model must pass `check_break_model`."""
    check_break_model(model)
    scenarios = scenarios if scenarios is not None else default_scenarios()
    matrix = BreakMatrix(
        [s.name for s in scenarios],
        {s.name: s.display for s in scenarios},
        [t.name for t in base_tables],
        [e.tag for e in embedders],
    )
    for base in base_tables:
        sub = subsample_rows(base, SUBSAMPLE_ROWS, seed)
        split = k_fold_split(sub, TEST_FOLD_COUNT, seed)
        train_rows = split.train_rows(0)
        test_rows = split.fold_rows(0)
        for scenario in scenarios:
            tr = inject(sub.subset(train_rows), scenario, "train", seed)
            te = inject(sub.subset(test_rows), scenario, "test", seed)
            combined = _concat(tr, te)
            fold = FoldAssignment([1] * tr.n_rows + [0] * te.n_rows)
            has_text = any(c.role is ColumnRole.TEXTUAL for c in combined.feature_columns)
            scored: dict = {}
            for embedder in embedders:
                # with no text column, every embedder but an external file
                # assembles the same features, so one fit scores them all
                embeds = has_text or isinstance(embedder, ExternalEmbedding)
                key = id(embedder) if embeds else None
                if key not in scored:
                    train_fm, test_fm = assemble_features(combined, embedder, True, fold, 0)
                    fitted = fit(model, train_fm.X, train_fm.y, TaskKind.BINARY)
                    scored[key] = 100.0 * metric_accuracy(test_fm.y, fitted.predict(test_fm.X))
                matrix.values[(scenario.name, base.name, embedder.tag)] = scored[key]
    return matrix


def toy_vector_file() -> Path:
    """The tiny bundled word-vector file used by tests and demo runs."""
    return Path(__file__).parent / "data" / "toy_vectors.txt"
