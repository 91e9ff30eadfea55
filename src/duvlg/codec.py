"""Image-side plumbing: patches, a frozen featurizer, and a fixed-codebook
visual tokenizer/decoder pair.

The tokenizer projects each patch into code space and snaps to the nearest
codebook row; the decoder renders rows back to pixels.  Codewords live in a
ball of radius < 0.5 and the render map has orthonormal rows centered at
pixel value 0.5, so rendering never clips and projection inverts it exactly:
token grids round-trip losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class VocabularyError(ValueError):
    """A visual token id falls outside the codebook."""


def named_rng(name: str) -> np.random.Generator:
    """Deterministic generator derived from a string label."""
    return np.random.default_rng(np.random.SeedSequence(list(name.encode("utf-8"))))


@dataclass
class ImageGrid:
    """An H x W x 3 float pixel grid; values clamped to [0, 1] on build.
    Non-finite pixels are rejected: clamping would pass NaN through."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 3 or px.shape[2] != 3 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"image must be [H x W x 3] with H, W >= 1, got {px.shape}")
        if not np.isfinite(px).all():
            raise ValueError(f"image has {int((~np.isfinite(px)).sum())} non-finite pixel values")
        self.pixels = np.clip(px, 0.0, 1.0)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def extract_patches(img: ImageGrid, p: int) -> np.ndarray:
    """Flatten an image into [n_patches x p*p*3] row-major patch vectors."""
    rows, cols = patch_grid_dims(img, p)
    px = img.pixels.reshape(rows, p, cols, p, 3)
    return np.ascontiguousarray(px.transpose(0, 2, 1, 3, 4)).reshape(rows * cols, p * p * 3)


def patch_grid_dims(img: ImageGrid, p: int) -> tuple[int, int]:
    if img.height % p or img.width % p:
        raise ValueError(f"image {img.height}x{img.width} not divisible by patch size {p}")
    return img.height // p, img.width // p


def assemble_patches(patches: np.ndarray, grid_dims: tuple[int, int], p: int) -> ImageGrid:
    """Inverse of extract_patches (with clamping on construction)."""
    rows, cols = grid_dims
    if patches.shape != (rows * cols, p * p * 3):
        raise ValueError(f"expected {(rows * cols, p * p * 3)} patch block, got {patches.shape}")
    px = patches.reshape(rows, cols, p, p, 3).transpose(0, 2, 1, 3, 4)
    return ImageGrid(px.reshape(rows * p, cols * p, 3))


class PatchFeaturizer:
    """Frozen stand-in for a pretrained patch encoder: fixed linear + tanh.

    Weights come from a named seed and never train.  Features are plain
    [n_patches x d_feat] arrays in row-major patch order; the encoder wraps
    them as graph constants, so they never receive gradient.
    """

    def __init__(self, patch_size: int, d_feat: int):
        self.patch_size = patch_size
        self.d_feat = d_feat
        rng = named_rng(f"featurizer/{patch_size}/{d_feat}")
        d_in = patch_size * patch_size * 3
        self.weight = rng.uniform(-1.0, 1.0, (d_in, d_feat)) / np.sqrt(d_in)
        self.bias = rng.uniform(-0.5, 0.5, d_feat)

    def featurize(self, patches: np.ndarray) -> np.ndarray:
        return np.tanh(patches @ self.weight + self.bias)

    def featurize_image(self, img: ImageGrid) -> np.ndarray:
        return self.featurize(extract_patches(img, self.patch_size))


# Codeword radii: inf-norm of a rendered patch offset is bounded by the
# 2-norm of its codeword, so staying under 0.5 keeps pixels inside [0, 1].
_CODE_RADIUS_LO = 0.15
_CODE_RADIUS_HI = 0.45


@dataclass
class VisualCodebook:
    """K frozen codewords plus the fixed render/project linear pair."""

    K: int
    d_code: int
    patch_size: int
    embed: np.ndarray = field(repr=False)  # [K x d_code]
    render_map: np.ndarray = field(repr=False)  # [d_code x p*p*3], orthonormal rows

    @classmethod
    def build(cls, K: int, d_code: int, patch_size: int, min_dist: float = 1e-2) -> "VisualCodebook":
        d_patch = patch_size * patch_size * 3
        if d_code > d_patch:
            raise ValueError(f"d_code {d_code} exceeds patch dimension {d_patch}")
        rng = named_rng(f"codebook/{K}/{d_code}/{patch_size}")
        q, _ = np.linalg.qr(rng.normal(size=(d_patch, d_code)))
        render_map = q.T.copy()

        rows = np.empty((K, d_code))
        count = 0
        while count < K:
            v = rng.normal(size=d_code)
            v *= rng.uniform(_CODE_RADIUS_LO, _CODE_RADIUS_HI) / np.linalg.norm(v)
            if count and np.min(np.linalg.norm(rows[:count] - v, axis=1)) < min_dist:
                continue  # rejection keeps rows pairwise separated
            rows[count] = v
            count += 1
        return cls(K=K, d_code=d_code, patch_size=patch_size,
                   embed=rows, render_map=render_map)

    def render(self, ids: np.ndarray) -> np.ndarray:
        """Codeword ids -> raw [n x p*p*3] pixel patches."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.K):
            raise VocabularyError(f"token id out of range for codebook of size {self.K}")
        return 0.5 + self.embed[ids] @ self.render_map

    def project(self, patches: np.ndarray) -> np.ndarray:
        """Raw pixel patches -> code-space vectors."""
        return (patches - 0.5) @ self.render_map.T


def tokenize_image(img: ImageGrid, cb: VisualCodebook) -> np.ndarray:
    """Nearest-codeword id per patch; ties break toward the lowest id."""
    codes = cb.project(extract_patches(img, cb.patch_size))
    d2 = (codes * codes).sum(axis=1, keepdims=True) \
        - 2.0 * codes @ cb.embed.T \
        + (cb.embed * cb.embed).sum(axis=1)
    return d2.argmin(axis=1).astype(np.int64)


def decode_tokens(seq: np.ndarray, cb: VisualCodebook, grid_dims: tuple[int, int]) -> ImageGrid:
    seq = np.asarray(seq, dtype=np.int64)
    rows, cols = grid_dims
    if seq.shape != (rows * cols,):
        raise ValueError(f"{seq.shape[0] if seq.ndim == 1 else seq.shape} tokens for a {rows}x{cols} grid")
    patches = np.clip(cb.render(seq), 0.0, 1.0)
    return assemble_patches(patches, grid_dims, cb.patch_size)


# ---------------------------------------------------------------------------
# portable text image format

_IMG_MAGIC = "DUVLG-IMG"
_IMG_VERSION = "v1"


def save_image(img: ImageGrid, path):
    lines = [f"{_IMG_MAGIC} {_IMG_VERSION} {img.height} {img.width}"]
    for row in img.pixels:
        lines.append(" ".join(f"{v:.17g}" for v in row.reshape(-1)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_image(path) -> ImageGrid:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != _IMG_MAGIC or header[1] != _IMG_VERSION:
            raise ValueError(f"{path}: not a {_IMG_MAGIC} {_IMG_VERSION} file")
        if not all(s.isdecimal() and int(s) >= 1 for s in header[2:]):
            raise ValueError(f"{path}: header needs integer H, W >= 1, got {' '.join(header[2:])}")
        h, w = int(header[2]), int(header[3])
        flat = np.array(fh.read().split(), dtype=np.float64)
    if flat.size != h * w * 3:
        raise ValueError(f"{path}: expected {h * w * 3} floats, found {flat.size}")
    return ImageGrid(flat.reshape(h, w, 3))
