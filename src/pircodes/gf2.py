"""Bit-packed binary words, codes, and matrices over GF(2).

Positions are 1-based in the public API.  A length-m vector is backed by a
Python int with position 1 as the most significant bit, so words of equal
length order exactly like the integers they spell.  All types are immutable
values; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import FileFormatError, UsageError

__all__ = [
    "Word",
    "Code",
    "BitMatrix",
    "LinearCode",
    "UnitSolution",
    "positions_to_mask",
    "mask_to_positions",
    "gray_span",
    "xor_basis_add",
    "hamming_distance",
    "min_distance",
    "extend_even_parity",
    "puncture",
    "solve_unit",
    "read_code",
    "write_code",
    "read_matrix",
    "write_matrix",
]

# Span enumeration cap for linear min-distance; 2^24 words is the point where
# a full weight scan stops being interactive.
SPAN_ENUM_MAX_K = 24


def gray_span(base: int, vectors: Sequence[int]) -> Iterator[int]:
    """Yield `base`, then `base` XOR each nonempty combination of `vectors`,
    in Gray-code order: 2^len(vectors) values, one XOR apiece."""
    x = base
    yield x
    for m in range(1, 1 << len(vectors)):
        x ^= vectors[(m & -m).bit_length() - 1]
        yield x


def xor_basis_add(basis: dict[int, int], v: int) -> bool:
    """Reduce `v` by `basis` (vectors keyed by their leading bit) and add the
    remainder; return False when `v` reduces to zero, i.e. lies in the span."""
    while v:
        lead = v.bit_length()
        b = basis.get(lead)
        if b is None:
            basis[lead] = v
            return True
        v ^= b
    return False


def positions_to_mask(m: int, positions: Iterable[int]) -> int:
    """Pack 1-based positions from [m] into the backing-int convention."""
    mask = 0
    for p in positions:
        if not 1 <= p <= m:
            raise UsageError(f"position {p} out of range 1..{m}")
        bit = 1 << (m - p)
        if mask & bit:
            raise UsageError(f"position {p} repeated")
        mask |= bit
    return mask


def mask_to_positions(m: int, mask: int) -> tuple[int, ...]:
    """Unpack a backing-int mask into ascending 1-based positions."""
    return tuple(p for p in range(1, m + 1) if (mask >> (m - p)) & 1)


@dataclass(frozen=True, order=True)
class Word:
    """A fixed-length binary word; orders like its integer value."""

    n: int
    value: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise UsageError("word length must be >= 1")
        if not 0 <= self.value < (1 << self.n):
            raise UsageError(f"value {self.value} does not fit in {self.n} bits")

    @classmethod
    def from_string(cls, bits: str) -> "Word":
        if not bits or set(bits) - {"0", "1"}:
            raise UsageError(f"not a binary string: {bits!r}")
        return cls(len(bits), int(bits, 2))

    def __str__(self) -> str:
        return format(self.value, f"0{self.n}b")

    def bit(self, i: int) -> int:
        """Bit at 1-based position i."""
        if not 1 <= i <= self.n:
            raise UsageError(f"position {i} out of range 1..{self.n}")
        return (self.value >> (self.n - i)) & 1

    def weight(self) -> int:
        return self.value.bit_count()

    def support(self) -> tuple[int, ...]:
        """Ascending 1-based positions carrying a 1."""
        return mask_to_positions(self.n, self.value)


@dataclass(frozen=True)
class Code:
    """An explicit set of distinct equal-length words, stored sorted."""

    n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise UsageError("code length must be >= 1")
        prev = -1
        for v in self.values:
            if not 0 <= v < (1 << self.n):
                raise UsageError(f"word {v} does not fit in {self.n} bits")
            if v <= prev:
                raise UsageError("code words must be strictly increasing and distinct")
            prev = v

    @classmethod
    def from_values(cls, n: int, values: Iterable[int]) -> "Code":
        return cls(n, tuple(sorted(set(values))))

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "Code":
        words = [Word.from_string(s) for s in strings]
        if not words:
            raise UsageError("empty code")
        n = words[0].n
        if any(w.n != n for w in words):
            raise UsageError("code words must share one length")
        return cls.from_values(n, (w.value for w in words))

    @property
    def size(self) -> int:
        return len(self.values)

    def words(self) -> Iterator[Word]:
        for v in self.values:
            yield Word(self.n, v)

    def dimension(self) -> int | None:
        """Combinatorial dimension k when the size is exactly 2^k, else None."""
        m = self.size
        k = m.bit_length() - 1
        return k if m == (1 << k) else None

    def __contains__(self, word: "Word | int") -> bool:
        v = word.value if isinstance(word, Word) else word
        return v in set(self.values)


@dataclass(frozen=True)
class BitMatrix:
    """A dense binary matrix; each row is one bit-packed int of `cols` bits."""

    cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cols < 1 or not self.rows:
            raise UsageError("matrix must have at least one row and one column")
        for r in self.rows:
            if not 0 <= r < (1 << self.cols):
                raise UsageError("row does not fit the declared width")

    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "BitMatrix":
        packed = [Word.from_string(r) for r in rows]
        if not packed:
            raise UsageError("empty matrix")
        n = packed[0].n
        if any(w.n != n for w in packed):
            raise UsageError("matrix rows must share one width")
        return cls(n, tuple(w.value for w in packed))

    @classmethod
    def identity(cls, k: int) -> "BitMatrix":
        return cls(k, tuple(1 << (k - 1 - i) for i in range(k)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def row_strings(self) -> list[str]:
        return [format(r, f"0{self.cols}b") for r in self.rows]

    def bit(self, i: int, j: int) -> int:
        """Entry at 1-based row i, column j."""
        if not 1 <= i <= self.nrows:
            raise UsageError(f"row {i} out of range")
        if not 1 <= j <= self.cols:
            raise UsageError(f"column {j} out of range")
        return (self.rows[i - 1] >> (self.cols - j)) & 1

    def column(self, j: int) -> int:
        """Column j as a bit-packed vector of nrows bits (row 1 most significant)."""
        if not 1 <= j <= self.cols:
            raise UsageError(f"column {j} out of range 1..{self.cols}")
        shift = self.cols - j
        k = self.nrows
        col = 0
        for i, row in enumerate(self.rows):
            col |= ((row >> shift) & 1) << (k - 1 - i)
        return col

    def encode(self, data: int) -> int:
        """Row combination selected by the k data bits (data bit i picks row i)."""
        k = self.nrows
        if not 0 <= data < (1 << k):
            raise UsageError(f"data word {data} does not fit in {k} bits")
        acc = 0
        for i in range(k):
            if (data >> (k - 1 - i)) & 1:
                acc ^= self.rows[i]
        return acc

    def column_combination(self, mask: int) -> int:
        """Sum of the columns selected by `mask`, as an nrows-bit vector."""
        k = self.nrows
        out = 0
        for i, row in enumerate(self.rows):
            out |= ((row & mask).bit_count() & 1) << (k - 1 - i)
        return out

    def rank(self) -> int:
        basis: dict[int, int] = {}
        return sum(xor_basis_add(basis, r) for r in self.rows)


@dataclass(frozen=True)
class LinearCode:
    """A binary linear code given by a full-row-rank generator matrix."""

    generator: BitMatrix

    def __post_init__(self) -> None:
        if self.generator.rank() != self.generator.nrows:
            raise UsageError("generator matrix must have full row rank")

    @property
    def k(self) -> int:
        return self.generator.nrows

    @property
    def n(self) -> int:
        return self.generator.cols

    def span(self) -> Code:
        """Enumerate all 2^k code words (guarded by SPAN_ENUM_MAX_K)."""
        k = self.k
        if k > SPAN_ENUM_MAX_K:
            raise UsageError(f"span enumeration is capped at k <= {SPAN_ENUM_MAX_K}")
        return Code.from_values(self.n, gray_span(0, self.generator.rows))


def hamming_distance(a: Word, b: Word) -> int:
    """Number of positions where the two words differ."""
    if a.n != b.n:
        raise UsageError(f"length mismatch: {a.n} vs {b.n}")
    return (a.value ^ b.value).bit_count()


def min_distance(code: "Code | LinearCode") -> int:
    """Minimum pairwise Hamming distance.

    Explicit codes are scanned pairwise over the sorted word list with an
    early exit at the floor distance 1; linear codes use a Gray-code weight
    enumeration of the span (minimum nonzero weight).
    """
    if isinstance(code, LinearCode):
        k = code.k
        if k > SPAN_ENUM_MAX_K:
            raise UsageError(f"weight enumeration is capped at k <= {SPAN_ENUM_MAX_K}")
        walk = gray_span(0, code.generator.rows)
        next(walk)  # the zero word
        best = code.n + 1
        for w in walk:
            bc = w.bit_count()
            if bc < best:
                best = bc
                if best == 1:
                    break
        return best
    if code.size < 2:
        raise UsageError("min_distance needs at least two words")
    vals = code.values
    best = code.n + 1
    for i in range(len(vals)):
        vi = vals[i]
        for j in range(i + 1, len(vals)):
            d = (vi ^ vals[j]).bit_count()
            if d < best:
                best = d
                if best == 1:
                    return 1
    return best


def extend_even_parity(code: Code) -> Code:
    """Append one overall parity bit so every word gets even weight."""
    return Code.from_values(
        code.n + 1, ((v << 1) | (v.bit_count() & 1) for v in code.values)
    )


def puncture(code: Code, i: int) -> tuple[Code, bool]:
    """Delete position i; merged duplicates are reported via the flag."""
    if not 1 <= i <= code.n:
        raise UsageError(f"position {i} out of range 1..{code.n}")
    if code.n == 1:
        raise UsageError("cannot puncture a length-1 code")
    low = (1 << (code.n - i)) - 1
    shortened = Code.from_values(
        code.n - 1, (((v >> (code.n - i + 1)) << (code.n - i)) | (v & low) for v in code.values)
    )
    return shortened, shortened.size < code.size


@dataclass(frozen=True)
class UnitSolution:
    """Solutions of G.x = e_j: one particular column selection plus a kernel basis.

    `solution` and the kernel vectors are position masks over the n columns;
    `solution` is None exactly when e_j is outside the column span.  The
    basis is in systematic form: `pivots` masks the pivot columns of the
    elimination, `solution` lies inside it, and each kernel vector is one
    free column outside it plus pivot columns.
    """

    n: int
    j: int
    solution: int | None
    kernel: tuple[int, ...]
    pivots: int

    @property
    def solvable(self) -> bool:
        return self.solution is not None

    def solution_positions(self) -> tuple[int, ...] | None:
        return None if self.solution is None else mask_to_positions(self.n, self.solution)

    def all_solutions(self) -> Iterator[int]:
        """Gray-code walk over the whole solution coset (2^dim(kernel) masks)."""
        if self.solution is None:
            return iter(())
        return gray_span(self.solution, self.kernel)


def solve_unit(g: BitMatrix, j: int) -> UnitSolution:
    """Solve G.x = e_j over GF(2), where x selects a set of columns of G."""
    k, n = g.nrows, g.cols
    if not 1 <= j <= k:
        raise UsageError(f"unit index {j} out of range 1..{k}")
    # Augmented rows: matrix bits shifted up one, right-hand side in bit 0.
    rows = [(g.rows[i] << 1) | (1 if i == j - 1 else 0) for i in range(k)]
    pivots: list[tuple[int, int]] = []  # (row index, 0-based column)
    r = 0
    for col in range(n):
        bit = 1 << (n - col)
        piv = None
        for i in range(r, k):
            if rows[i] & bit:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(k):
            if i != r and (rows[i] & bit):
                rows[i] ^= rows[r]
        pivots.append((r, col))
        r += 1
    pivot_mask = 0
    for _, col in pivots:
        pivot_mask |= 1 << (n - 1 - col)
    for i in range(r, k):
        if rows[i] & 1:
            return UnitSolution(n, j, None, (), pivot_mask)
    solution = 0
    for ri, col in pivots:
        if rows[ri] & 1:
            solution |= 1 << (n - 1 - col)
    kernel = []
    for free in range(n):
        vec = 1 << (n - 1 - free)
        if vec & pivot_mask:
            continue
        fbit = 1 << (n - free)
        for ri, col in pivots:
            if rows[ri] & fbit:
                vec |= 1 << (n - 1 - col)
        kernel.append(vec)
    return UnitSolution(n, j, solution, tuple(kernel), pivot_mask)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
# Code file: one codeword per line as ASCII '0'/'1'; '#' starts a comment
# line; canonical output is sorted ascending.  Matrix file: k rows of n bits.


def _data_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lines.append(line)
    return lines


def parse_code(text: str) -> Code:
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("code file holds no codewords")
    try:
        return Code.from_strings(lines)
    except UsageError as exc:
        raise FileFormatError(str(exc)) from exc


def dump_code(code: Code) -> str:
    return "\n".join(format(v, f"0{code.n}b") for v in code.values) + "\n"


def read_code(path: str) -> Code:
    with open(path, "r", encoding="ascii") as fh:
        return parse_code(fh.read())


def write_code(code: Code, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_code(code))


def parse_matrix(text: str) -> BitMatrix:
    lines = _data_lines(text)
    if not lines:
        raise FileFormatError("matrix file holds no rows")
    try:
        return BitMatrix.from_strings(lines)
    except UsageError as exc:
        raise FileFormatError(str(exc)) from exc


def dump_matrix(matrix: BitMatrix) -> str:
    return "\n".join(matrix.row_strings()) + "\n"


def read_matrix(path: str) -> BitMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix(fh.read())


def write_matrix(matrix: BitMatrix, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_matrix(matrix))
