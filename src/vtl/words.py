"""Generator symbols and words.

Grammar: a word is whitespace-separated tokens, each one of

    e<k>       cup-cap generator at site k
    v<k>       virtual crossing at site k
    r<k>       braid element rho_k = a + b e_k + c v_k
    r<k>^-1    its inverse

with 1 <= k <= n-1.  rho is never a primitive of the algebra: it only exists
as the parameterised combination above, resolved at evaluation time.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass

from .errors import WordParseError

E, V, RHO, RHO_INV = "e", "v", "r", "r_inv"

_TOKEN = re.compile(r"^([evr])([0-9]+)(\^-1)?$")


class GeneratorSymbol(namedtuple("GeneratorSymbol", "kind index")):
    """A generator letter: `kind` (e, v, r or r_inv) at site `index`.

    A tuple of (kind, index), so hashing, equality and ordering run in C:
    symbols are hashed with every word used as a dict key.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return render_symbol(self)


@dataclass(frozen=True)
class GeneratorWord:
    n: int
    symbols: tuple[GeneratorSymbol, ...]

    def __len__(self) -> int:
        return len(self.symbols)


def symbol(kind: str, index: int) -> GeneratorSymbol:
    if kind not in (E, V, RHO, RHO_INV):
        raise ValueError(f"unknown generator kind {kind!r}")
    return GeneratorSymbol(kind, index)


def render_symbol(sym: GeneratorSymbol) -> str:
    if sym.kind == RHO_INV:
        return f"r{sym.index}^-1"
    return f"{sym.kind}{sym.index}"


def render_word(word: GeneratorWord) -> str:
    return " ".join(render_symbol(s) for s in word.symbols)


def parse_word(text: str, n: int) -> GeneratorWord:
    if n < 1:
        raise ValueError("need at least one strand")
    symbols = []
    for pos, token in enumerate(text.split(), start=1):
        m = _TOKEN.match(token)
        if m is None:
            raise WordParseError(f"malformed token {token!r}", pos)
        kind, idx, inverse = m.group(1), int(m.group(2)), m.group(3)
        if inverse and kind != RHO:
            raise WordParseError(f"{token!r}: only r<k> may carry ^-1", pos)
        if not 1 <= idx <= n - 1:
            raise WordParseError(
                f"site {idx} out of range 1..{n - 1} for n={n}", pos
            )
        symbols.append(GeneratorSymbol(RHO_INV if inverse else kind, idx))
    return GeneratorWord(n, tuple(symbols))
