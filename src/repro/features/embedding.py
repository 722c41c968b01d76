"""Deterministic text embeddings for filing methodologies (S-BERT analog).

The paper embeds each provider's free-text BDC methodology with S-BERT
(384-dim) so the model can exploit two observations: blocks of small ISPs
file *word-for-word identical* consultant-written text, and some
methodologies describe practices the FCC disallows (census-block
reporting).  Both signals are lexical: what matters is that similar texts
land near each other.

S-BERT itself is a 400 MB pretrained network unavailable offline, so this
module uses signed feature hashing of word and character n-grams into a
fixed-dimension space with L2 normalization — a classical technique whose
cosine similarity tracks n-gram overlap.  Identical texts embed
identically; texts sharing phrasing embed nearby; that is the entire
property the downstream model consumes.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

__all__ = ["TextEmbedder"]


def _stable_hash(token: str) -> int:
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big")


class TextEmbedder:
    """Hashed n-gram sentence embedder.

    Parameters
    ----------
    dim:
        Embedding dimension (the paper's S-BERT uses 384).
    word_ngrams:
        Word n-gram orders to hash.
    char_ngrams:
        Character n-gram orders to hash (robust to small edits).
    """

    def __init__(
        self,
        dim: int = 384,
        word_ngrams: tuple[int, ...] = (1, 2),
        char_ngrams: tuple[int, ...] = (3, 4),
    ):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self.dim = dim
        self.word_ngrams = word_ngrams
        self.char_ngrams = char_ngrams

    def spec(self) -> dict:
        """JSON-safe constructor arguments (hashing is deterministic, so
        the spec fully determines every embedding this instance produces)."""
        return {
            "dim": self.dim,
            "word_ngrams": list(self.word_ngrams),
            "char_ngrams": list(self.char_ngrams),
        }

    def _tokens(self, text: str) -> list[str]:
        words = re.findall(r"[a-z0-9]+", text.lower())
        out: list[str] = []
        for n in self.word_ngrams:
            for i in range(len(words) - n + 1):
                out.append("w:" + " ".join(words[i : i + n]))
        compact = " ".join(words)
        for n in self.char_ngrams:
            for i in range(len(compact) - n + 1):
                out.append("c:" + compact[i : i + n])
        return out

    def embed(self, text: str) -> np.ndarray:
        """Embed one text into a unit-norm ``dim``-vector (zeros if empty)."""
        vec = np.zeros(self.dim)
        for token in self._tokens(text):
            h = _stable_hash(token)
            index = h % self.dim
            sign = 1.0 if (h >> 63) & 1 else -1.0
            vec[index] += sign
        norm = float(np.linalg.norm(vec))
        if norm > 0:
            vec /= norm
        return vec

    def embed_corpus(self, texts: list[str]) -> np.ndarray:
        """Embed a list of texts into an (n, dim) matrix."""
        return np.vstack([self.embed(t) for t in texts]) if texts else np.empty((0, self.dim))

    @staticmethod
    def cosine(a: np.ndarray, b: np.ndarray) -> float:
        """Cosine similarity between two embeddings."""
        na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        if na == 0 or nb == 0:
            return 0.0
        return float(a @ b / (na * nb))
