"""Dictionary construction (Sections IV-B and IV-C of the paper)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    ".analysis": [
        "DictionaryAnalysis", "EntryUsage", "analyse_dictionary",
        "compare_dictionaries",
    ],
    ".codec_table": ["CodecTable", "DictionaryEntry"],
    ".generator": [
        "DictionaryConfig", "DictionaryGenerator", "TrainingReport", "train_dictionary",
    ],
    ".prepopulation": [
        "PrePopulation", "available_symbols", "capacity", "seed_entries",
        "seeded_characters",
    ],
    ".ranking": [
        "RankTable", "RankedPattern", "count_substrings", "pattern_overlap",
        "rank_value",
    ],
    ".serialization": ["dumps", "load", "loads", "save"],
    ".trie": ["Trie", "TrieNode"],
})
