"""Permutation-symmetric superket basis for a blockaded g/s/r atom array.

A density matrix that starts as a symmetrized operator string stays inside a
small closed family under the driven-dissipative evolution considered here
(collective s-r drive plus single-site dephasing of r, with at most one
Rydberg excitation).  Each basis element is a normalized sum over all distinct
site assignments of a fixed multiset of single-site operators; blocks are
labelled by the number j of ground-state sg/gs coherence pairs, which is
conserved.  Every block contains at most ten families, so the generator is a
tiny dense matrix regardless of the atom count N.  Everything that depends
only on (n, N, j) is built once per (n, N) by `sector` and cached.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ResourceError

# Every family, in the fixed listing order that matrices and coefficient vectors
# index into (after pruning), as (its operators beyond the sg/gs/ss/gg
# background, the shifts of the sg, gs and ss multiplicities from j, j and
# n - j, its dephasing rate as a multiple of -gamma): half for every single
# cross-sector coherence, one for every doubled one, zero for populations.
_FAMILY_TABLE = {
    "ss": ({}, (0, 0, 0), 0.0),
    "rs": ({"rs": 1}, (0, 0, -1), 0.5),
    "sr": ({"sr": 1}, (0, 0, -1), 0.5),
    "rg": ({"rg": 1}, (-1, 0, 0), 0.5),
    "gr": ({"gr": 1}, (0, -1, 0), 0.5),
    "rr": ({"rr": 1}, (0, 0, -1), 0.0),
    "rs_gr": ({"rs": 1, "gr": 1}, (0, -1, -1), 1.0),
    "sr_rg": ({"sr": 1, "rg": 1}, (-1, 0, -1), 1.0),
    "rs_sr": ({"rs": 1, "sr": 1}, (0, 0, -2), 1.0),
    "rg_gr": ({"rg": 1, "gr": 1}, (-1, -1, 0), 1.0),
}
FAMILIES = tuple(_FAMILY_TABLE)


def _site_operator_multiset(kind: str, n: int, N: int, j: int) -> dict[str, int]:
    """Multiset of single-site operators defining one symmetrized family.

    Keys are two-letter operator names sigma_ab = |a><b| over {g, s, r}; values
    are site multiplicities.  A family exists iff all multiplicities are >= 0.
    """
    if kind not in _FAMILY_TABLE:
        raise DomainError(f"unknown family kind {kind!r}")
    extra, (sg, gs, ss), _ = _FAMILY_TABLE[kind]
    ops = dict(extra)
    for name, mult in (("sg", j + sg), ("gs", j + gs), ("ss", n - j + ss),
                       ("gg", N - n - j)):
        if mult:
            ops[name] = ops.get(name, 0) + mult
    return ops


_DIAGONAL_OPS = {"gg", "ss", "rr"}


@dataclass(frozen=True)
class BasisLabel:
    """One symmetrized operator family inside a fixed (n, N, j) block."""

    kind: str
    j: int
    n: int
    N: int

    def site_operators(self) -> dict[str, int]:
        return _site_operator_multiset(self.kind, self.n, self.N, self.j)

    def exists(self) -> bool:
        return all(m >= 0 for m in self.site_operators().values())

    def assignment_count(self) -> int:
        """Number of distinct site assignments of the operator multiset."""
        ops = self.site_operators()
        if any(m < 0 for m in ops.values()):
            raise DomainError(f"label {self.kind} does not exist at n={self.n}, N={self.N}, j={self.j}")
        # the multinomial N! / prod(mult!) as a product of binomials; the
        # multiplicities fill all N sites
        count, left = 1, self.N
        for mult in ops.values():
            count *= math.comb(left, mult)
            left -= mult
        return count

    def is_diagonal(self) -> bool:
        return all(op in _DIAGONAL_OPS for op in self.site_operators())


def _check_block_args(n: int, N: int, j: int) -> None:
    # N = 0 holds only the vacuum, what ejecting the last atom leaves
    if not (0 <= N):
        raise DomainError(f"need N >= 0, got N={N}")
    if not (0 <= n <= N):
        raise DomainError(f"need 0 <= n <= N, got n={n}, N={N}")
    if not (0 <= j <= min(n, N - n)):
        raise DomainError(f"need 0 <= j <= min(n, N-n) = {min(n, N - n)}, got j={j}")


def enumerate_basis(n: int, N: int, j: int) -> list[BasisLabel]:
    """All existing families of the (n, N, j) block, in fixed listing order."""
    _check_block_args(n, N, j)
    labels = [BasisLabel(kind, j, n, N) for kind in FAMILIES]
    return [lab for lab in labels if lab.exists()]


# Nonzero entries of the drive superoperator, as (row, col, coefficient
# function of (n, j)).  The matrix element is
#   Omega * coeff(n, j) * norm[row] / norm[col],
# i.e. coefficients are stated for unnormalized basis vectors and the
# normalization ratio converts them to the orthonormal basis.
_H_TABLE = (
    ("ss", "rs", lambda n, j: -1.0),
    ("ss", "sr", lambda n, j: +1.0),
    ("ss", "rg", lambda n, j: -1.0),
    ("ss", "gr", lambda n, j: +1.0),
    ("rs", "ss", lambda n, j: -(n - j)),
    ("rs", "rr", lambda n, j: +1.0),
    ("rs", "rs_gr", lambda n, j: +1.0),
    ("rs", "rs_sr", lambda n, j: +1.0),
    ("sr", "ss", lambda n, j: +(n - j)),
    ("sr", "rr", lambda n, j: -1.0),
    ("sr", "sr_rg", lambda n, j: -1.0),
    ("sr", "rs_sr", lambda n, j: -1.0),
    ("rg", "ss", lambda n, j: -j),
    ("rg", "sr_rg", lambda n, j: +1.0),
    ("rg", "rg_gr", lambda n, j: +1.0),
    ("gr", "ss", lambda n, j: +j),
    ("gr", "rs_gr", lambda n, j: -1.0),
    ("gr", "rg_gr", lambda n, j: -1.0),
    ("rr", "rs", lambda n, j: +1.0),
    ("rr", "sr", lambda n, j: -1.0),
    ("rs_gr", "rs", lambda n, j: +j),
    ("rs_gr", "gr", lambda n, j: -(n - j)),
    ("sr_rg", "sr", lambda n, j: -j),
    ("sr_rg", "rg", lambda n, j: +(n - j)),
    ("rs_sr", "rs", lambda n, j: +(n - j - 1)),
    ("rs_sr", "sr", lambda n, j: -(n - j - 1)),
    ("rg_gr", "rg", lambda n, j: +j),
    ("rg_gr", "gr", lambda n, j: -j),
)


# Families a projective measurement keeps: a Rydberg outcome keeps those with
# the excitation on both the ket and bra side, NoRydberg keeps only ss;
# everything else is a cross coherence.
_RYDBERG_KINDS = frozenset({"rr", "rs_gr", "sr_rg", "rs_sr", "rg_gr"})
_NO_RYDBERG_KINDS = frozenset({"ss"})

# Superket decomposition of the pure collective dyads |S_n><S_n|, |R_n><R_n|,
# |S_n><R_n| and |R_n><S_n|, as (families they populate, squared dyad
# normalization over comb(N, n)**2 as a function of n).  Every (ket, bra)
# assignment pair contributes exactly one symmetrized-basis term, so a
# family's coefficient is norm * count / pairs = sqrt(count / pairs**2).
_DYAD_TABLE = (
    (("ss",), lambda n: 1),
    (("rr", "rs_sr", "rg_gr", "rs_gr", "sr_rg"), lambda n: n * n),
    (("sr", "gr"), lambda n: n),
    (("rs", "rg"), lambda n: n),
)


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for positive integers of any size, never converting either
    to float: Python's correctly rounded integer true division is kept in range
    by an even power of two, which the square root then undoes exactly."""
    half = (num.bit_length() - den.bit_length()) // 2
    q = num / (den << 2 * half) if half >= 0 else (num << -2 * half) / den
    try:
        out = math.ldexp(math.sqrt(q), half)
    except OverflowError:
        out = math.inf
    if not sys.float_info.min <= out < math.inf:
        raise ResourceError(f"basis constant sqrt(2^{num.bit_length()} / 2^{den.bit_length()}) "
                            "is outside float range")
    return out


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SectorBlock:
    """Basis structure of one j block of an (n, N) sector; arrays are read-only.

    ``drive`` is the drive superoperator H at Omega = 1 and ``dephasing`` the
    diagonal D multiplying gamma.  ``trace`` reads Tr rho off a coefficient
    vector, ``ss``/``rr`` index the population families (``rr`` is None where
    it does not exist), ``rydberg``/``no_rydberg`` mask the families each
    measurement outcome keeps, and the rows of ``dyads`` hold the coefficients
    of |S_n><S_n|, |R_n><R_n|, |S_n><R_n| and |R_n><S_n|.
    """

    j: int
    labels: tuple[BasisLabel, ...]
    drive: np.ndarray
    dephasing: np.ndarray
    trace: np.ndarray
    ss: int
    rr: int | None
    rydberg: np.ndarray
    no_rydberg: np.ndarray
    dyads: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)


def _sector_block(n: int, N: int, j: int) -> SectorBlock:
    labels = tuple(enumerate_basis(n, N, j))
    kinds = [lab.kind for lab in labels]
    index = {kind: i for i, kind in enumerate(kinds)}
    counts = [lab.assignment_count() for lab in labels]
    drive = np.zeros((len(labels), len(labels)))
    for row, col, coeff in _H_TABLE:
        if row in index and col in index:
            r, c = index[row], index[col]
            drive[r, c] = coeff(n, j) * _sqrt_ratio(counts[c], counts[r])
    c_s = math.comb(N, n)
    dyads = [[_sqrt_ratio(count, pairs(n) * c_s * c_s) if kind in fams else 0.0
              for kind, count in zip(kinds, counts)] for fams, pairs in _DYAD_TABLE]
    return SectorBlock(
        j=j, labels=labels,
        drive=_frozen(drive),
        dephasing=_frozen([-_FAMILY_TABLE[kind][2] for kind in kinds]),
        trace=_frozen([_sqrt_ratio(count, 1) if lab.is_diagonal() else 0.0
                       for lab, count in zip(labels, counts)]),
        ss=index["ss"], rr=index.get("rr"),
        rydberg=_frozen([kind in _RYDBERG_KINDS for kind in kinds], bool),
        no_rydberg=_frozen([kind in _NO_RYDBERG_KINDS for kind in kinds], bool),
        dyads=_frozen(dyads),
    )


@dataclass(frozen=True, eq=False)
class Sector:
    """The j blocks of the fixed-(n, N) state space, each built on first use."""

    n: int
    N: int
    _built: dict = field(default_factory=dict, repr=False)

    def block(self, j: int) -> SectorBlock:
        """Block j alone: readers of the j = 0 populations build no other block."""
        if j not in self._built:
            self._built[j] = _sector_block(self.n, self.N, j)
        return self._built[j]

    @cached_property
    def blocks(self) -> tuple[SectorBlock, ...]:
        return tuple(self.block(j) for j in range(min(self.n, self.N - self.n) + 1))

    @cached_property
    def spans(self) -> tuple[slice, ...]:
        """The columns of block j in the blocks' coefficient vectors side by side."""
        ends = np.cumsum([0] + [blk.dim for blk in self.blocks]).tolist()
        return tuple(slice(lo, hi) for lo, hi in zip(ends, ends[1:]))

    @cached_property
    def dyads(self) -> np.ndarray:
        """The blocks' ``dyads`` side by side, as complex numbers."""
        return _frozen(np.hstack([blk.dyads for blk in self.blocks]), complex)

    @cached_property
    def traces(self) -> np.ndarray:
        """Column j reads the trace of block j off the side-by-side vector."""
        traces = np.zeros((self.spans[-1].stop, len(self.spans)))
        for j, (blk, span) in enumerate(zip(self.blocks, self.spans)):
            traces[span, j] = blk.trace
        return _frozen(traces)

    @cached_property
    def keeps(self) -> np.ndarray:
        """Row m: the blocks' families outcome m (1 for Rydberg) keeps, side by side."""
        return _frozen([np.concatenate([getattr(blk, kind) for blk in self.blocks])
                        for kind in ("no_rydberg", "rydberg")], bool)

    @cached_property
    def ejection(self) -> tuple["Sector", float]:
        """Ejection map: the (n-1, N-1) sector, whose j block's ss coefficient is
        sqrt(N) (fixed by the dense partial trace) times the rr one of block j."""
        return sector(self.n - 1, self.N - 1), math.sqrt(self.N)


@lru_cache(maxsize=256)
def sector(n: int, N: int) -> Sector:
    """The cached basis structure of the j blocks at fixed (n, N)."""
    _check_block_args(n, N, 0)
    return Sector(n, N)


def build_block(n: int, N: int, j: int, omega: float, gamma: float) -> np.ndarray:
    """The generator i*Omega*H + gamma*diag(D) of one block, where H is the
    block's ``drive`` and D its ``dephasing``: dx/dt = generator @ x for a
    coefficient vector x.

    The overall drive prefactor is the single-atom Rabi frequency Omega: the
    sqrt(n) collective enhancement is produced by the normalization ratios
    themselves (e.g. the ss<->rs pair of entries multiplies to (n-j) Omega^2).
    This convention is pinned by the dense-oracle calibration tests.
    """
    _check_block_args(n, N, j)
    if omega < 0 or gamma < 0:
        raise DomainError("omega and gamma must be non-negative")
    blk = sector(n, N).block(j)
    with np.errstate(over="ignore", invalid="ignore"):
        gen = 1j * (omega * blk.drive.astype(complex)) + gamma * np.diag(blk.dephasing)
    if not np.isfinite(gen).all():
        raise ResourceError(f"omega {omega} and gamma {gamma} put the generator of block "
                            f"(n={n}, N={N}, j={j}) past float range")
    return gen


def trace_vector(n: int, N: int, j: int) -> np.ndarray:
    """Linear functional reading off Tr rho from a block coefficient vector.

    Only families built purely from diagonal site operators carry trace; each
    of their assignment terms has unit trace, so the entry is count * norm.
    """
    return sector(n, N).block(j).trace.copy()
