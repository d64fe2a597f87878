"""File/PLD maliciousness scoring: exact hand values, invariants, file I/O."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webmal.errors import (EmptyProfile, EmptyVector, InputError,
                           InvalidParams, MissingVerdict)
from webmal.reputation import (REPUTATION_HEADER, PldFileProfile,
                               VerdictMatrix, file_diversity_entropy,
                               file_score_binary, file_score_ratio,
                               malicious_file_sets, pld_dichotomy,
                               pld_ratio_score, read_observations,
                               read_reputation, read_verdicts, score_plds,
                               write_observations, write_reputation,
                               write_verdicts)
from webmal.synthlab import default_spec, plant_crawl


def matrix(d, **masks):
    return VerdictMatrix(d=d, masks=masks)


def profile(pld, **files):
    return PldFileProfile(pld=pld, files=files)


def _columns(rep):
    """A reputation table's columns as lists of Python values."""
    return (rep.plds, rep.malicious.tolist(), rep.r_bar.tolist(),
            rep.n_unique.tolist(), rep.total.tolist(), rep.entropy.tolist())


def _row(rep, i):
    """Row i of a reputation table as Python values, its dichotomy as text."""
    return (rep.plds[i], "malicious" if rep.malicious[i] else "clean",
            *(col[i].item() for col in (rep.r_bar, rep.n_unique, rep.total, rep.entropy)))


# ---------------------------------------------------------------------------
# file scores

def test_binary_all_zero_is_clean():
    assert file_score_binary([0] * 56, tau=0.0) == 0


def test_binary_single_detection_crosses_zero_tau():
    v = [0] * 56
    v[17] = 1
    assert file_score_binary(v, tau=0.0) == 1


def test_binary_five_of_56_below_tau_point_one():
    v = [1] * 5 + [0] * 51
    assert file_score_binary(v, tau=0.1) == 0   # 5/56 ~ 0.089


def test_ratio_all_zero_and_all_one():
    assert file_score_ratio([0] * 8) == 0.0
    assert file_score_ratio([1] * 8) == 1.0


def test_ratio_14_of_56():
    v = [1] * 14 + [0] * 42
    assert file_score_ratio(v) == 0.25


def test_empty_vector_rejected():
    with pytest.raises(EmptyVector):
        file_score_ratio([])
    with pytest.raises(EmptyVector):
        file_score_binary([], tau=0.0)


def test_bad_tau_rejected():
    with pytest.raises(InvalidParams):
        file_score_binary([0, 1], tau=1.0)
    with pytest.raises(InvalidParams):
        file_score_binary([0, 1], tau=-0.1)


# ---------------------------------------------------------------------------
# PLD dichotomy and ratio score

def test_dichotomy_all_clean_files():
    m = matrix(56, a=0, b=0, c=0)
    p = profile("example.com", a=1, b=2, c=1)
    assert pld_dichotomy(p, m, tau=0.0) == "clean"


def test_dichotomy_one_flagged_file():
    m = matrix(56, a=1)   # engine 0 flags
    p = profile("example.com", a=1)
    assert pld_dichotomy(p, m, tau=0.0) == "malicious"


def test_dichotomy_missing_verdict_is_hard_error():
    m = matrix(56, a=0)
    p = profile("example.com", a=1, zzz=1)
    with pytest.raises(MissingVerdict):
        pld_dichotomy(p, m)


def test_ratio_score_two_files_once_each():
    # ratios 0 and 0.5 -> mean 0.25
    m = matrix(2, a=0x0, b=0x1)
    p = profile("example.com", a=1, b=1)
    assert pld_ratio_score(p, m) == 0.25


def test_ratio_score_copies_of_one_file():
    # 9 of 10 engines flag -> 0.9 regardless of copy count
    m = matrix(10, a=0x1FF)
    p = profile("example.com", a=3)
    assert pld_ratio_score(p, m) == pytest.approx(0.9, abs=1e-15)


def test_ratio_score_all_clean_is_zero():
    m = matrix(56, a=0, b=0)
    p = profile("example.com", a=4, b=9)
    assert pld_ratio_score(p, m) == 0.0


def test_ratio_score_occurrence_weighting():
    # file a (ratio 1.0) x3, file b (ratio 0.0) x1 -> 0.75
    m = matrix(4, a=0xF, b=0x0)
    p = profile("example.com", a=3, b=1)
    assert pld_ratio_score(p, m) == 0.75


def test_empty_profile_rejected():
    p = PldFileProfile(pld="example.com", files={})
    with pytest.raises(EmptyProfile):
        pld_ratio_score(p, matrix(4, a=0))
    with pytest.raises(EmptyProfile):
        file_diversity_entropy(p)


# ---------------------------------------------------------------------------
# entropy

def test_entropy_single_file_any_count():
    assert file_diversity_entropy(profile("x.com", a=1)) == 0.0
    assert file_diversity_entropy(profile("x.com", a=17)) == 0.0


def test_entropy_uniform_four_files():
    p = profile("x.com", a=1, b=1, c=1, d=1)
    assert file_diversity_entropy(p) == pytest.approx(2.0, abs=1e-15)


def test_entropy_counts_three_one():
    # -(0.75 log2 0.75 + 0.25 log2 0.25)
    p = profile("x.com", a=3, b=1)
    assert file_diversity_entropy(p) == pytest.approx(0.8112781244591328, abs=1e-12)


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30))
def test_entropy_bounded_by_log2_n(counts):
    files = {f"f{i}": k for i, k in enumerate(counts)}
    h = file_diversity_entropy(PldFileProfile("x.com", files))
    assert -1e-12 <= h <= math.log2(len(counts)) + 1e-12


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=40))
def test_entropy_uniform_hits_log2_bound(n, k):
    files = {f"f{i}": k for i in range(n)}
    h = file_diversity_entropy(PldFileProfile("x.com", files))
    assert abs(h - math.log2(n)) <= 1e-12


# ---------------------------------------------------------------------------
# monotonicity invariants

@st.composite
def _profile_and_masks(draw):
    d = draw(st.integers(min_value=1, max_value=16))
    n = draw(st.integers(min_value=1, max_value=6))
    masks = {f"f{i}": draw(st.integers(min_value=0, max_value=2**d - 1))
             for i in range(n)}
    counts = {h: draw(st.integers(min_value=1, max_value=4)) for h in masks}
    return d, masks, counts


@given(_profile_and_masks(), st.data())
@settings(max_examples=200)
def test_adding_a_detection_never_decreases_scores(case, data):
    d, masks, counts = case
    m = VerdictMatrix(d=d, masks=masks)
    p = PldFileProfile("x.com", counts)
    target = data.draw(st.sampled_from(sorted(masks)))
    bit = data.draw(st.integers(min_value=0, max_value=d - 1))
    bumped_masks = dict(masks)
    bumped_masks[target] = masks[target] | (1 << bit)
    m2 = VerdictMatrix(d=d, masks=bumped_masks)
    assert m2.ratio(target) >= m.ratio(target)
    assert m2.binary(target) >= m.binary(target)
    assert pld_ratio_score(p, m2) >= pld_ratio_score(p, m) - 1e-15
    # dichotomy can only move clean -> malicious
    if pld_dichotomy(p, m) == "malicious":
        assert pld_dichotomy(p, m2) == "malicious"


@given(_profile_and_masks(), st.data())
@settings(max_examples=200)
def test_raising_tau_never_flips_clean_to_malicious(case, data):
    d, masks, counts = case
    m = VerdictMatrix(d=d, masks=masks)
    p = PldFileProfile("x.com", counts)
    lo = data.draw(st.floats(min_value=0.0, max_value=0.98))
    hi = data.draw(st.floats(min_value=lo, max_value=0.99))
    if pld_dichotomy(p, m, tau=lo) == "clean":
        assert pld_dichotomy(p, m, tau=hi) == "clean"


@given(_profile_and_masks())
@settings(max_examples=200)
def test_ratio_score_in_unit_interval_and_zero_iff_all_clean(case):
    d, masks, counts = case
    m = VerdictMatrix(d=d, masks=masks)
    p = PldFileProfile("x.com", counts)
    r = pld_ratio_score(p, m)
    assert 0.0 <= r <= 1.0
    all_clean = all(masks[h] == 0 for h in counts)
    assert (r == 0.0) == all_clean


def test_clean_dichotomy_implies_zero_ratio_at_zero_tau():
    # tau=0: clean <=> every file ratio 0 <=> r_bar = 0
    m = matrix(8, a=0, b=0)
    p = profile("x.com", a=2, b=5)
    assert pld_dichotomy(p, m, tau=0.0) == "clean"
    assert pld_ratio_score(p, m) == 0.0


# ---------------------------------------------------------------------------
# batch scoring and planted recovery

def test_score_plds_sorted_and_complete():
    m = matrix(4, a=0x1, b=0x0)
    profs = [profile("zeta.org", b=2), profile("alpha.org", a=1, b=1)]
    rep = score_plds(profs, m)
    assert rep.plds == ["alpha.org", "zeta.org"]
    assert _row(rep, 0)[1] == "malicious"
    assert _row(rep, 1)[1] == "clean"
    assert rep.n_unique[0] == 2 and rep.total[0] == 2
    assert rep.r_bar[1] == 0.0 and rep.entropy[1] == 0.0


def test_planted_labels_recovered_exactly():
    rng = np.random.default_rng(11)
    d = 56
    masks, profs, truth = {}, [], {}
    for i in range(200):
        pld = f"pld{i:03d}.com"
        bad = i % 20 == 0   # 5% planted malicious
        files = {}
        for j in range(rng.integers(1, 5)):
            h = f"h{i:03d}x{j}"
            # malicious PLDs get exactly one flagged file (their file 0)
            masks[h] = 0x1 if (bad and j == 0) else 0x0
            files[h] = int(rng.integers(1, 4))
        profs.append(PldFileProfile(pld, files))
        truth[pld] = "malicious" if bad else "clean"
    rep = score_plds(profs, VerdictMatrix(d=d, masks=masks), tau=0.0)
    assert dict(zip(rep.plds,
                    np.where(rep.malicious, "malicious", "clean").tolist())) == truth
    frac = int(rep.malicious.sum()) / len(rep.plds)
    assert frac == 0.05


def test_malicious_file_sets_drops_clean_plds():
    m = matrix(4, a=0x1, b=0x0, c=0x3)
    profs = [profile("bad.com", a=1, b=2), profile("clean.com", b=1),
             profile("worse.com", a=1, c=1)]
    sets = malicious_file_sets(profs, m)
    assert sets == {"bad.com": {"a"}, "worse.com": {"a", "c"}}


# ---------------------------------------------------------------------------
# score_plds against the scalar definitions, bit for bit

def _assert_rows_are_the_scalar_scores(profs, m, tau=0.0):
    rep = score_plds(profs, m, tau=tau)
    assert rep.plds == sorted(p.pld for p in profs)
    for i, prof in enumerate(sorted(profs, key=lambda p: p.pld)):
        row = _row(rep, i)
        want = (prof.pld, pld_dichotomy(prof, m, tau), pld_ratio_score(prof, m),
                prof.n_unique, prof.total, file_diversity_entropy(prof))
        assert row == want
        # == does not tell 0.0 from -0.0; repr does
        assert repr(row[2]) == repr(want[2])
        assert repr(row[5]) == repr(want[5])


@pytest.mark.parametrize("tau", [0.0, 0.1])
def test_score_plds_is_the_scalar_scores_on_a_planted_corpus(tau):
    c = plant_crawl(default_spec(seed=31, n_plds=800, malicious_fraction=0.2,
                                 components=(6, 4, 4, 3)))
    _assert_rows_are_the_scalar_scores(c.profiles, c.verdicts, tau)


def test_score_plds_single_file_entropy_is_positive_zero():
    rep = score_plds([profile("x.com", a=5)], matrix(8, a=0x3))
    assert math.copysign(1.0, rep.entropy[0]) == 1.0
    _assert_rows_are_the_scalar_scores([profile("x.com", a=5)], matrix(8, a=0x3))


def test_score_plds_uses_the_scalar_log2():
    # p = 28/31 is one of the fractions where np.log2 and math.log2 can
    # differ in the last bit; the scalar definition uses math.log2
    profs = [profile("x.com", a=28, b=3), profile("y.com", a=43, b=7)]
    _assert_rows_are_the_scalar_scores(profs, matrix(56, a=0x1, b=0x0))


def test_score_plds_accumulates_repeated_rows(tmp_path):
    path = tmp_path / "obs.tsv"
    path.write_text("x.com\tb\t2\nx.com\ta\t1\nx.com\tb\t5\ny.com\ta\t3\n")
    m = matrix(4, a=0x1, b=0x7)
    got = score_plds(read_observations(str(path)), m)
    assert _columns(got) == _columns(
        score_plds([profile("x.com", a=1, b=7), profile("y.com", a=3)], m))
    _assert_rows_are_the_scalar_scores(
        [profile("x.com", a=1, b=7), profile("y.com", a=3)], m)


def test_score_plds_with_80_engines(tmp_path):
    m = matrix(80, a=(1 << 79) | 1, b=(1 << 80) - 1, c=0)
    profs = [profile("x.com", a=2, c=1), profile("y.com", b=1, c=4)]
    _assert_rows_are_the_scalar_scores(profs, m)
    path = str(tmp_path / "v.tsv")
    write_verdicts(m, path)
    back = read_verdicts(path)
    assert back.d == 80 and dict(back.masks) == dict(m.masks)
    assert _columns(score_plds(profs, back)) == _columns(score_plds(profs, m))


def test_score_plds_names_the_file_with_no_verdict():
    with pytest.raises(MissingVerdict, match="no verdict row for file 'zz'"):
        score_plds([profile("x.com", a=1), profile("y.com", zz=1)], matrix(4, a=1))
    with pytest.raises(MissingVerdict, match="no verdict row for file 'zz'"):
        malicious_file_sets([profile("y.com", zz=1)], matrix(4, a=1))


def test_score_plds_rejects_an_empty_profile():
    with pytest.raises(EmptyProfile):
        score_plds([profile("x.com", a=1), profile("y.com")], matrix(4, a=1))


# ---------------------------------------------------------------------------
# file formats

def test_verdict_roundtrip(tmp_path):
    m = matrix(56, **{"deadbeef": 0x1F, "cafe": 0x0})
    path = str(tmp_path / "verdicts.tsv")
    write_verdicts(m, path)
    back = read_verdicts(path)
    assert back.d == 56 and dict(back.masks) == dict(m.masks)


def test_verdict_ragged_d_rejected(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_text("aa\t56\t1f\nbb\t40\t0\n")
    with pytest.raises(InputError):
        read_verdicts(str(path))


def test_verdict_bitmask_beyond_d_rejected(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_text("aa\t4\t1f\n")   # bit 4 set but engines are 0..3
    with pytest.raises(InputError):
        read_verdicts(str(path))


def test_verdict_conflicting_duplicate_rejected(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_text("aa\t8\t01\naa\t8\t03\n")
    with pytest.raises(InputError):
        read_verdicts(str(path))


@pytest.mark.parametrize("text, message", [
    ("aa\t8\t1f\nbb\t8\tzz\n", "2: not a hexadecimal bitmask: 'zz'"),
    ("aa\t8\t1f\nbb\t4\tzz\n", "2: not a hexadecimal bitmask: 'zz'"),
    ("aa\t8\t1f\nbb\t4\t0\ncc\t8\tzz\n", "2: d=4 differs from corpus d=8"),
    ("aa\t8\t1\nbb\t8\tq\ncc\t9\t0\n", "2: not a hexadecimal bitmask: 'q'"),
    ("aa\t8\t1f\n\nbb\t8\t0\ncc\t4\t0\n", "4: d=4 differs from corpus d=8"),
    ("aa\t8\t1f\nbb\t8\t100\n", "2: bitmask has bits beyond engine 7"),
    ("aa\t8\t1f\nbb\t8\t-1\n", "2: bitmask has bits beyond engine 7"),
    ("aa\t8\t1\nbb\t8\t2\naa\t8\t1\naa\t8\t3\nbb\t8\t1\n",
     "4: conflicting rows for 'aa'"),
    ("aa\t0\t0\n", "1: d must be >= 1"),
    ("aa\t8\t0\nbb\t0\t0\n", "2: d must be >= 1"),
], ids=["hex", "hex-first-in-its-row", "d-before-hex", "hex-before-d", "d-after-blank", "bits",
        "negative", "conflict", "d-zero-first", "d-zero"])
def test_verdict_first_bad_row_names_its_line(tmp_path, text, message):
    path = tmp_path / "v.tsv"
    path.write_text(text)
    with pytest.raises(InputError) as exc:
        read_verdicts(str(path))
    assert str(exc.value) == f"{path}:{message}"


def test_verdict_empty_file_rejected(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_text("")
    with pytest.raises(InputError):
        read_verdicts(str(path))


def test_observations_roundtrip_and_accumulation(tmp_path):
    path = tmp_path / "obs.tsv"
    path.write_text("b.com\tf1\t2\na.com\tf2\t1\nb.com\tf1\t3\n")
    obs = read_observations(str(path))
    assert obs.sets == {"a.com": {"f2"}, "b.com": {"f1"}}
    assert obs.count.tolist() == [1, 5]
    out = str(tmp_path / "obs2.tsv")
    write_observations([profile("b.com", f1=5), profile("a.com", f2=1)], out)
    back = read_observations(out)
    assert back.sets == obs.sets and back.count.tolist() == [1, 5]


def test_observations_bad_count_rejected(tmp_path):
    path = tmp_path / "obs.tsv"
    path.write_text("a.com\tf1\t0\n")
    with pytest.raises(InputError):
        read_observations(str(path))


def test_reputation_roundtrip(tmp_path):
    m = matrix(8, a=0x3, b=0x0)
    rep = score_plds([profile("x.com", a=1, b=3)], m)
    path = str(tmp_path / "rep.tsv")
    write_reputation(rep, path)
    back = read_reputation(path)
    assert _columns(back) == _columns(rep)


def _new_tracked_objects(fn, *args):
    """fn(*args) and how many more objects the garbage collector tracks
    after the call than before it, with collection switched off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = fn(*args)
        return result, len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()


def test_reputation_table_is_not_an_object_per_pld(tmp_path):
    c = plant_crawl(default_spec(3, n_plds=2000))
    rep, scored = _new_tracked_objects(score_plds, c.profiles, c.verdicts)
    assert scored < 50
    path = str(tmp_path / "rep.tsv")
    write_reputation(rep, path)
    back, read = _new_tracked_objects(read_reputation, path)
    assert read < 50
    assert len(rep.plds) == 2000 and _columns(back) == _columns(rep)


def test_reputation_bad_dichotomy_names_its_line(tmp_path):
    path = tmp_path / "rep.tsv"
    path.write_text("\t".join(REPUTATION_HEADER) + "\n"
                    "a.com\tclean\t0.0\t1\t1\t0.0\n\n"
                    "b.com\tevil\t0.5\t1\t2\t0.0\n")
    with pytest.raises(InputError) as exc:
        read_reputation(str(path))
    assert str(exc.value) == f"{path}:4: bad dichotomy 'evil'"
