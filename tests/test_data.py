import re

import numpy as np
import pytest

from duvlg import data as d
from duvlg.codec import VisualCodebook, tokenize_image
from duvlg.data import BlockSpec, TextVocab, bleu4, decode_text, encode_text


@pytest.fixture(scope="module")
def cb():
    return VisualCodebook.build(K=64, d_code=16, patch_size=4)


@pytest.fixture(scope="module")
def vocab():
    return TextVocab()


def test_vocab_bijective(vocab):
    assert vocab.size == 17
    assert len(set(vocab.id_of.values())) == vocab.size
    assert min(vocab.id_of.values()) == 8  # specials reserved below


def test_encode_decode_roundtrip(vocab):
    s = "a red block at top left and a blue block at center"
    assert decode_text(encode_text(s, vocab), vocab) == s
    assert encode_text("", vocab).tolist() == []
    assert decode_text([], vocab) == ""


def test_encode_unknown_word_names_offender(vocab):
    with pytest.raises(ValueError, match="banana"):
        encode_text("a banana block", vocab)


def test_gen_dataset_deterministic(cb, vocab):
    a = d.gen_dataset(20, 9, cb, (8, 8), vocab)
    b = d.gen_dataset(20, 9, cb, (8, 8), vocab)
    for ea, eb in zip(a, b):
        assert np.array_equal(ea.image.pixels, eb.image.pixels)
        assert np.array_equal(ea.caption, eb.caption)
        assert ea.meta == eb.meta


def test_generated_images_roundtrip_quantizer(cb, vocab):
    for ex in d.gen_dataset(30, 3, cb, (8, 8), vocab):
        toks = tokenize_image(ex.image, cb)
        assert np.array_equal(toks, d.spec_token_grid(ex.meta, (8, 8)))


def test_caption_vocabulary_closed(cb, vocab):
    for ex in d.gen_dataset(50, 4, cb, (8, 8), vocab):
        decode_text(ex.caption, vocab)  # every id is a word id
        assert len(ex.caption) <= 24


def test_distinct_positions_per_example(cb, vocab):
    for ex in d.gen_dataset(100, 5, cb, (8, 8), vocab):
        positions = [b.position for b in ex.meta]
        assert len(set(positions)) == len(positions)
        assert 1 <= len(positions) <= 3


def test_blocks_render_at_expected_patches(cb, vocab):
    ex = d.render_example((BlockSpec(color=2, position="top left"),), cb, (8, 8), vocab)
    grid = d.spec_token_grid(ex.meta, (8, 8)).reshape(8, 8)
    assert (grid[1:3, 1:3] == 3).all()  # token 1 + color 2
    assert grid.sum() == 3 * 4  # nothing else is set
    assert decode_text(ex.caption, vocab) == "a blue block at top left"


def test_dataset_file_roundtrip(tmp_path, cb, vocab):
    examples = d.gen_dataset(25, 6, cb, (8, 8), vocab)
    path = tmp_path / "pairs.tsv"
    d.save_dataset(examples, path, vocab)
    loaded = d.load_dataset(path, cb, (8, 8), vocab, 24)
    assert len(loaded) == len(examples)
    for ea, eb in zip(examples, loaded):
        assert np.array_equal(ea.image.pixels, eb.image.pixels)
        assert np.array_equal(ea.caption, eb.caption)
    first = open(path).readline()
    assert "\t" in first and "block at" in first


def test_dataset_file_rejects_bad_lines(tmp_path, cb, vocab):
    path = tmp_path / "bad.tsv"
    path.write_text("a red block at top left\n")
    with pytest.raises(ValueError):
        d.load_dataset(path, cb, (8, 8), vocab, 24)
    path.write_text("a red block at top left\tmauve@top-left\n")
    with pytest.raises(ValueError):
        d.load_dataset(path, cb, (8, 8), vocab, 24)


def test_dataset_file_errors_name_the_line(tmp_path, cb, vocab):
    path = tmp_path / "bad.tsv"
    good = "a red block at center\tred@center\n"
    path.write_text(good + "a red block at center\tred@nowhere\n")
    message = f"{path}:2: bad block spec 'red@nowhere'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        d.load_dataset(path, cb, (8, 8), vocab, 24)
    path.write_text(good + good + "a red block at center\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: expected"):
        d.load_dataset(path, cb, (8, 8), vocab, 24)
    # a caption that cannot describe its image: a block painted over, a second
    # caption for one image, and more words than the model reads
    four = ("a red block at top left and a green block at top right and a blue block at "
            "bottom left and a black block at bottom right\t"
            "red@top-left;green@top-right;blue@bottom-left;black@bottom-right")
    order = "blocks must sit at distinct positions in the order top-left, top-right"
    for line, error in (
            ("a red block at center and a blue block at center\tred@center;blue@center", order),
            ("a red block at center and a blue block at top left\tred@center;blue@top-left",
             order),
            (four, "27 text tokens exceeds max_text_len 24$")):
        path.write_text(good + line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: {error}"):
            d.load_dataset(path, cb, (8, 8), vocab, 24)
    # the same blocks in the order gen_dataset writes load
    path.write_text(good + "a blue block at top left and a red block at center\t"
                    "blue@top-left;red@center\n")
    assert len(d.load_dataset(path, cb, (8, 8), vocab, 24)) == 2


def test_split_disjoint_and_deterministic(cb, vocab):
    examples = d.gen_dataset(200, 7, cb, (8, 8), vocab)
    train, val = d.split_dataset(examples, 0.1)
    train2, val2 = d.split_dataset(examples, 0.1)
    assert len(train) + len(val) == 200
    assert len(val) > 0
    assert [id(e) for e in train] == [id(e) for e in train2]
    assert [id(e) for e in val] == [id(e) for e in val2]
    assert set(map(id, train)).isdisjoint(set(map(id, val)))


def test_bleu_perfect_match():
    assert bleu4([1, 2, 3, 4, 5], [[1, 2, 3, 4, 5]]) == 1.0


def test_bleu_empty_candidate():
    assert bleu4([], [[1, 2, 3]]) == 0.0


def test_bleu_requires_references():
    with pytest.raises(ValueError):
        bleu4([1, 2], [])


def test_bleu_hand_oracle():
    # "a b c d e" vs "a b c d f": precisions 4/5, (3+1)/(4+1), (2+1)/(3+1),
    # (1+1)/(2+1); BP=1 -> (8/25)^(1/4), hand-derived before implementation
    score = bleu4([1, 2, 3, 4, 5], [[1, 2, 3, 4, 6]])
    assert score == pytest.approx(0.752120618617, abs=1e-9)


def test_bleu_reference_permutation_invariant():
    refs = [[1, 2, 3, 4], [2, 3, 4, 5], [1, 1, 2, 2]]
    cand = [1, 2, 3, 5]
    assert bleu4(cand, refs) == bleu4(cand, refs[::-1])


def test_bleu_drops_when_shared_ngrams_removed():
    ref = [[1, 2, 3, 4, 5]]
    full = bleu4([1, 2, 3, 4, 5], ref)
    fewer = bleu4([1, 2, 3, 9, 9], ref)
    none = bleu4([7, 8, 9, 6, 6], ref)
    assert full > fewer > none == 0.0
