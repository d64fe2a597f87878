"""Bigram badness scoring: training rules, the threshold-5 classifier,
persistence, and the shipped English table."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webmal.dga import (DEFAULT_ALPHABET, FreqTable, classify_dga,
                        default_wordlist, load_default_table, name_badness,
                        read_freq_table, registrable_label, score_pld_name,
                        train_freq_table, write_freq_table)
from webmal.errors import EmptyCorpus, InputError, UntrainedTable
from webmal.synthlab import default_spec, plant_crawl

from oracles import oracle_name_badness


def idx(c):
    return DEFAULT_ALPHABET.index(c)


# ---------------------------------------------------------------------------
# training

def test_train_single_pair():
    t = train_freq_table(["aa"])
    assert t.counts[idx("a"), idx("a")] == 1
    assert t.counts.sum() == 1


def test_train_separator_breaks_adjacency():
    with pytest.raises(EmptyCorpus):
        train_freq_table(["a-b"])   # no pairs at all


def test_train_counts_repeated_words():
    t = train_freq_table(["the the"])
    assert t.counts[idx("t"), idx("h")] == 2
    assert t.counts[idx("h"), idx("e")] == 2
    assert t.counts.sum() == 4      # space separates the two words


def test_train_lowercases():
    t = train_freq_table(["AbAb"])
    assert t.counts[idx("a"), idx("b")] == 2
    assert t.counts[idx("b"), idx("a")] == 1


def test_train_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train_freq_table([])
    with pytest.raises(EmptyCorpus):
        train_freq_table(["-", "  ", "!"])


def test_bad_alphabet_rejected():
    with pytest.raises(InputError):
        FreqTable(alphabet="")
    with pytest.raises(InputError):
        FreqTable(alphabet="aab")


# ---------------------------------------------------------------------------
# scoring

def test_score_single_pair_table_near_100():
    t = train_freq_table(["qq"], smoothing=0.001)
    # P(q|q) = (1 + s) / (1 + 36 s)
    expect = 100.0 * (1 + 0.001) / (1 + 36 * 0.001)
    assert name_badness("qq", t) == pytest.approx(expect, rel=1e-12)
    assert expect > 90


def test_score_short_names_zero():
    t = train_freq_table(["the"])
    assert name_badness("a", t) == 0.0
    assert name_badness("", t) == 0.0
    assert name_badness("a-b", t) == 0.0   # two chars but no adjacent pair


def test_score_case_invariant():
    t = load_default_table()
    assert name_badness("Example", t) == name_badness("eXAMPLE", t)


def test_score_untrained_table_rejected():
    t = FreqTable()
    with pytest.raises(UntrainedTable):
        name_badness("example", t)


def test_score_positive_with_smoothing():
    t = train_freq_table(["the"], smoothing=0.001)
    # a pair never seen in training still gets smoothed mass
    assert name_badness("zx", t) > 0.0


def test_score_formula_recomputation():
    t = train_freq_table(["banana", "bandana"], smoothing=0.5)
    name = "banda"
    pairs = [("b", "a"), ("a", "n"), ("n", "d"), ("d", "a")]
    i = t.alphabet.index
    m = len(t.alphabet)
    expect = 100.0 * np.mean([(t.counts[i(a), i(b)] + 0.5)
                              / (t.counts[i(a)].sum() + 0.5 * m) for a, b in pairs])
    assert name_badness(name, t) == pytest.approx(expect, rel=1e-12)


def test_score_is_the_pair_formula_bit_for_bit():
    t = load_default_table()
    planted = plant_crawl(default_spec(seed=7, n_plds=2000)).plds
    names = list(default_wordlist()) + [registrable_label(p) for p in planted]
    for name in names:
        assert name_badness(name, t) == oracle_name_badness(name, t), name
    # no smoothing: the row of "b" is empty, so P(a | b) has a zero denominator
    bare = train_freq_table(["ab"], smoothing=0.0)
    for name in ("ab", "ba", "b-a", "aba"):
        assert name_badness(name, bare) == oracle_name_badness(name, bare), name


# ---------------------------------------------------------------------------
# classification

def test_classify_threshold():
    assert classify_dga(4.99) == "likely_dga"
    assert classify_dga(5.0) == "likely_regular"
    assert classify_dga(19.2) == "likely_regular"
    assert classify_dga(0.0) == "likely_dga"


def test_registrable_label():
    assert registrable_label("example.com") == "example"
    assert registrable_label("Example.CO.UK") == "example"
    assert registrable_label("single") == "single"


def test_score_pld_name_strips_suffix():
    t = load_default_table()
    assert score_pld_name("example.co.uk", t) == name_badness("example", t)


# ---------------------------------------------------------------------------
# shipped table

def test_default_table_reproduces_from_shipped_corpus():
    shipped = load_default_table()
    retrained = train_freq_table(default_wordlist(), smoothing=shipped.smoothing)
    assert shipped.alphabet == retrained.alphabet
    assert np.array_equal(shipped.counts, retrained.counts)


def test_default_table_separates_at_threshold_5():
    t = load_default_table()
    words = default_wordlist()
    rng = np.random.default_rng(5150)
    dict_names = rng.choice(words, size=1000)
    dict_frac = np.mean([name_badness(w, t) > 5 for w in dict_names])
    rand_names = ["".join(rng.choice(list(DEFAULT_ALPHABET), size=12))
                  for _ in range(1000)]
    rand_frac = np.mean([name_badness(w, t) < 5 for w in rand_names])
    assert dict_frac >= 0.95
    assert rand_frac >= 0.95


def test_every_shipped_word_scores_regular():
    t = load_default_table()
    scores = [name_badness(w, t) for w in default_wordlist()]
    assert min(scores) > 5.0


def test_permutation_sensitivity():
    t = load_default_table()
    words = [w for w in default_wordlist() if len(w) >= 4]
    rng = random.Random(99)
    sample = rng.sample(words, 600)
    orig = np.mean([name_badness(w, t) for w in sample])
    shuffled = []
    for w in sample:
        chars = list(w)
        rng.shuffle(chars)
        shuffled.append("".join(chars))
    assert orig > np.mean([name_badness(w, t) for w in shuffled])


# ---------------------------------------------------------------------------
# persistence

def test_table_roundtrip(tmp_path):
    t = train_freq_table(["hello world", "banana"], smoothing=2.5)
    path = str(tmp_path / "table.json")
    write_freq_table(t, path)
    back = read_freq_table(path)
    assert back.alphabet == t.alphabet
    assert back.smoothing == t.smoothing
    assert np.array_equal(back.counts, t.counts)


def test_table_json_shape(tmp_path):
    t = train_freq_table(["abc"])
    path = str(tmp_path / "table.json")
    write_freq_table(t, path)
    payload = json.load(open(path))
    assert set(payload) == {"alphabet", "counts", "smoothing"}
    assert len(payload["counts"]) == 36 * 36


def test_table_bad_counts_length_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": "ab", "counts": [1, 2, 3],
                                "smoothing": 0.001}))
    with pytest.raises(InputError):
        read_freq_table(str(path))


# ---------------------------------------------------------------------------
# properties

@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-.", max_size=20))
@settings(max_examples=150)
def test_score_nonnegative_and_case_stable(name):
    t = load_default_table()
    s = name_badness(name, t)
    assert s >= 0.0
    assert s == name_badness(name.upper(), t)


@given(st.lists(st.sampled_from(["alpha", "bravo", "charlie", "delta", "echo"]),
                min_size=1, max_size=30))
@settings(max_examples=50)
def test_training_is_order_invariant(corpus):
    a = train_freq_table(corpus)
    b = train_freq_table(sorted(corpus))
    assert np.array_equal(a.counts, b.counts)
