"""Arithmetic in the finite field GF(2^8).

The Reed–Solomon codes used throughout this reproduction operate symbol-wise
over GF(2^8) with the AES/Rijndael reduction polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B).  The field is small enough that a full
256 x 256 multiplication table (64 KiB, built once per field instance) makes
every bulk operation a single numpy fancy-index gather — no zero masks, no
boolean temporaries — which is where virtually all of the CPU time goes.
Exp/log tables are kept alongside for division, powers and inverses.

Only one field size is needed by the paper (values are byte strings and each
coded element is a byte string), but the implementation is written against an
explicit primitive polynomial so alternative polynomials can be used in
tests.

Kernel backends
---------------
Each field instance carries one of two interchangeable bulk-kernel
backends — byte-identical, differing only in how the per-coefficient
table product is computed:

``numpy``
    The always-on portable reference: one 1D ``take`` per non-trivial
    coefficient against a 256-byte row of the full 64 KiB product table.
``native``
    Compiled C kernels (:mod:`repro.erasure.gf_native`, built at runtime via
    cffi) consuming the same product table; uses a 16-lane ``pshufb``
    split-table product on SSSE3-capable x86-64 hosts and a scalar table
    walk elsewhere.  Requires cffi plus a C toolchain.

The process-wide default backend is resolved from the ``REPRO_GF_BACKEND``
environment variable (CLI flag ``--gf-backend`` sets it explicitly via
:func:`set_default_backend`); an env-selected ``native`` backend that cannot
build falls back to ``numpy`` with a warning, while an explicit
:func:`set_default_backend`/constructor request raises.
"""

from __future__ import annotations

import os
import warnings
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.erasure import gf_native

# Default primitive polynomial for GF(2^8): x^8 + x^4 + x^3 + x + 1.
DEFAULT_PRIMITIVE_POLY = 0x11B
#: The generator element used to build the exp/log tables.
DEFAULT_GENERATOR = 0x03

FIELD_SIZE = 256
ORDER = FIELD_SIZE - 1  # multiplicative group order

#: The interchangeable bulk-kernel backends (see the module docstring).
GF_BACKENDS = ("numpy", "native")
#: Environment variable consulted by :func:`default_backend`.
BACKEND_ENV_VAR = "REPRO_GF_BACKEND"

_backend_override: Optional[str] = None


class GF256:
    """The finite field GF(2^8).

    Parameters
    ----------
    primitive_poly:
        Reduction polynomial (degree 8, expressed as an integer bit mask).
    generator:
        A primitive element; powers of it enumerate all non-zero field
        elements and define the exp/log tables.
    backend:
        Bulk-kernel backend for ``mul_vec``/``matmul``/``matmul_many`` —
        one of :data:`GF_BACKENDS`.  ``"native"`` raises ``RuntimeError``
        when the compiled kernels cannot be built on this host.

    Notes
    -----
    Elements are plain Python ints (or numpy uint8 arrays for the
    vectorised operations) in ``range(256)``.  Addition and subtraction are
    both XOR.
    """

    __slots__ = (
        "primitive_poly",
        "generator",
        "backend",
        "exp",
        "log",
        "_inv",
        "_mul_table",
        "_mul_flat",
        "_native",
    )

    def __init__(
        self,
        primitive_poly: int = DEFAULT_PRIMITIVE_POLY,
        generator: int = DEFAULT_GENERATOR,
        *,
        backend: str = "numpy",
    ) -> None:
        if primitive_poly >> 8 != 1:
            raise ValueError(
                f"primitive polynomial must have degree 8, got {primitive_poly:#x}"
            )
        if backend not in GF_BACKENDS:
            raise ValueError(
                f"unknown GF backend {backend!r}; expected one of {GF_BACKENDS}"
            )
        self.primitive_poly = primitive_poly
        self.generator = generator
        exp = np.zeros(2 * ORDER, dtype=np.uint8)
        log = np.zeros(FIELD_SIZE, dtype=np.int64)
        x = 1
        seen: set[int] = set()
        for i in range(ORDER):
            exp[i] = x
            log[x] = i
            seen.add(x)
            x = self._slow_mul(x, generator)
        if x != 1 or len(seen) != ORDER:
            raise ValueError(
                f"{generator:#x} is not a primitive element for polynomial "
                f"{primitive_poly:#x}"
            )
        # Duplicate the table so exp[a + b] never needs a modulo for a, b < ORDER.
        exp[ORDER:] = exp[:ORDER]
        self.exp = exp
        self.log = log
        inv = np.zeros(FIELD_SIZE, dtype=np.uint8)
        for a in range(1, FIELD_SIZE):
            inv[a] = exp[ORDER - log[a]]
        self._inv = inv
        # Full 256 x 256 product table (64 KiB).  Row/column 0 stay zero, so
        # the vectorised kernels need no zero masks at all: MUL[a, b] is the
        # product for every (a, b) pair, including zeros.
        mul_table = np.zeros((FIELD_SIZE, FIELD_SIZE), dtype=np.uint8)
        nz_log = log[1:]
        mul_table[1:, 1:] = exp[nz_log[:, None] + nz_log[None, :]]
        self._mul_table = mul_table
        # Flat view for 1D take-based gathers (row-major: index = a*256 + b).
        self._mul_flat = mul_table.reshape(-1)
        self.backend = backend
        # The compiled kernels consume self._mul_table directly, so their
        # products are the same table lookups the numpy backend gathers.
        self._native = gf_native.load() if backend == "native" else None

    # ------------------------------------------------------------------
    # scalar operations
    # ------------------------------------------------------------------
    def _slow_mul(self, a: int, b: int) -> int:
        """Carry-less multiplication with reduction; used only to build tables."""
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if a & 0x100:
                a ^= self.primitive_poly
        return result

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (XOR)."""
        return a ^ b

    @staticmethod
    def sub(a: int, b: int) -> int:
        """Field subtraction (identical to addition in characteristic 2)."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via the product table."""
        return int(self._mul_table[a, b])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``; raises ``ZeroDivisionError`` if b == 0."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(2^8)")
        if a == 0:
            return 0
        return int(self.exp[(int(self.log[a]) - int(self.log[b])) % ORDER])

    def inv(self, a: int) -> int:
        """Multiplicative inverse of ``a``; raises ``ZeroDivisionError`` for 0."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse in GF(2^8)")
        return int(self._inv[a])

    def pow(self, a: int, exponent: int) -> int:
        """``a`` raised to an arbitrary (possibly negative) integer power."""
        if a == 0:
            if exponent == 0:
                return 1
            if exponent < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        e = (int(self.log[a]) * exponent) % ORDER
        return int(self.exp[e])

    def alpha_pow(self, exponent: int) -> int:
        """The generator raised to ``exponent`` (mod the group order)."""
        return int(self.exp[exponent % ORDER])

    # ------------------------------------------------------------------
    # vectorised operations on numpy uint8 arrays
    # ------------------------------------------------------------------
    def mul_vec(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """Element-wise product of two uint8 arrays (or array and scalar).

        One gather into the (flattened) 256 x 256 product table on the
        default backend; the index arrays broadcast against each other
        exactly like ``a * b``.  The native backend calls the compiled
        table-walk kernel; both produce identical bytes.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.shape != b.shape:
            a, b = np.broadcast_arrays(a, b)
        if self.backend == "native":
            a = np.ascontiguousarray(a)
            b = np.ascontiguousarray(b)
            out = np.empty(a.shape, dtype=np.uint8)
            ffi, lib = self._native
            lib.gf_mul_vec(
                ffi.from_buffer(self._mul_table),
                ffi.from_buffer(a),
                ffi.from_buffer(b),
                ffi.from_buffer(out),
                a.size,
            )
            return out
        idx = a.astype(np.intp)
        idx <<= 8
        idx += b
        # mode="wrap" skips per-element bounds checks; indices built from two
        # uint8 operands are always within the 65536-entry table.
        return self._mul_flat.take(idx, mode="wrap")

    def scale_vec(self, a: np.ndarray, scalar: int) -> np.ndarray:
        """Multiply every element of ``a`` by a scalar (one row-table gather)."""
        a = np.asarray(a, dtype=np.uint8)
        return self._mul_table[scalar].take(a, mode="wrap")

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product over GF(2^8).

        ``A`` has shape ``(m, p)`` and ``B`` shape ``(p, q)``; the result has
        shape ``(m, q)``.  The inner accumulation is XOR.
        """
        A = np.asarray(A, dtype=np.uint8)
        B = np.asarray(B, dtype=np.uint8)
        if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
            raise ValueError(f"incompatible shapes {A.shape} x {B.shape}")
        if self.backend == "native":
            return self._matmul_native(A, B)
        return self._matmul_table(A, B)

    def _matmul_table(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        m, p = A.shape
        q = B.shape[1]
        out = np.zeros((m, q), dtype=np.uint8)
        mul_table = self._mul_table
        product = np.empty(q, dtype=np.uint8)
        # For typical code parameters m, p = n, k <= 255 while q (the value
        # axis) is long: m * p scalar-times-row products, each one a 1D take
        # from a 256-byte L1-resident table row, XOR-accumulated in place.
        # Scalar coefficients 0 and 1 shortcut the gather entirely — the
        # identity block of a systematic encode matrix is half its entries.
        for j in range(p):
            row = B[j]
            for i in range(m):
                coeff = A[i, j]
                if coeff == 0:
                    continue
                if coeff == 1:
                    np.bitwise_xor(out[i], row, out=out[i])
                    continue
                np.take(mul_table[coeff], row, out=product, mode="wrap")
                np.bitwise_xor(out[i], product, out=out[i])
        return out

    def _matmul_native(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        m, p = A.shape
        q = B.shape[1]
        A = np.ascontiguousarray(A)
        B = np.ascontiguousarray(B)
        out = np.empty((m, q), dtype=np.uint8)
        ffi, lib = self._native
        lib.gf_matmul(
            ffi.from_buffer(A),
            ffi.from_buffer(self._mul_table),
            ffi.from_buffer(B),
            ffi.from_buffer(out),
            m,
            p,
            q,
        )
        return out

    def matmul_many(
        self,
        A: np.ndarray,
        stacked: np.ndarray,
        *,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply one matrix to a whole stripe of same-shape operands.

        ``A`` has shape ``(m, p)`` and ``stacked`` shape ``(batch, p, q)``;
        returns ``(batch, m, q)``.  The batch is laid out as one wide
        ``(p, batch * q)`` matrix — column-concatenation, the same layout
        ``LinearCode.encode_many`` used to build by hand — so the whole
        stripe costs one fused kernel pass instead of ``batch`` passes, and
        each slice of the result is byte-identical to ``matmul(A,
        stacked[b])`` because every output column depends only on its own
        input column.

        ``out``, when given, must be a C-contiguous ``(batch, m, q)`` uint8
        array; the result is written into it and it is returned.  Callers
        that encode stripes repeatedly (``LinearCode.encode_many``) pass a
        reused scratch buffer so steady-state stripes run in warm pages
        instead of paying a multi-megabyte allocation per drain.
        """
        A = np.asarray(A, dtype=np.uint8)
        stacked = np.asarray(stacked, dtype=np.uint8)
        if A.ndim != 2 or stacked.ndim != 3 or A.shape[1] != stacked.shape[1]:
            raise ValueError(
                f"incompatible shapes {A.shape} x {stacked.shape}; expected "
                "(m, p) x (batch, p, q)"
            )
        batch, p, q = stacked.shape
        m = A.shape[0]
        if out is not None and (
            out.shape != (batch, m, q)
            or out.dtype != np.uint8
            or not out.flags["C_CONTIGUOUS"]
        ):
            raise ValueError(
                f"out must be C-contiguous uint8 of shape {(batch, m, q)}"
            )
        if batch == 0:
            return np.zeros((0, m, q), dtype=np.uint8) if out is None else out
        if self.backend == "native":
            # The compiled kernel has no per-call setup worth amortising, so
            # the stripe is dispatched slice-by-slice straight into the
            # (batch, m, q) output — contiguous in, contiguous out, zero
            # layout copies.  (The wide path below would pay two full-stripe
            # transpose copies just to feed the kernel one call.)
            A = np.ascontiguousarray(A)
            stacked = np.ascontiguousarray(stacked)
            if out is None:
                out = np.empty((batch, m, q), dtype=np.uint8)
            ffi, lib = self._native
            a_buf = ffi.from_buffer(A)
            table = ffi.from_buffer(self._mul_table)
            for b in range(batch):
                lib.gf_matmul(
                    a_buf,
                    table,
                    ffi.from_buffer(stacked[b]),
                    ffi.from_buffer(out[b]),
                    m,
                    p,
                    q,
                )
            return out
        wide = stacked.transpose(1, 0, 2).reshape(p, batch * q)
        product = self.matmul(A, wide)
        stripes = product.reshape(m, batch, q).transpose(1, 0, 2)
        if out is None:
            return np.ascontiguousarray(stripes)
        np.copyto(out, stripes)
        return out

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------
    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """Inner product of two equal-length scalar sequences."""
        if len(xs) != len(ys):
            raise ValueError("dot product requires equal-length sequences")
        acc = 0
        for x, y in zip(xs, ys):
            acc ^= self.mul(x, y)
        return acc

    def elements(self) -> Iterable[int]:
        """Iterate over every field element (0..255)."""
        return range(FIELD_SIZE)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GF256(primitive_poly={self.primitive_poly:#x}, "
            f"generator={self.generator:#x}, backend={self.backend!r})"
        )


def available_backends() -> List[str]:
    """The subset of :data:`GF_BACKENDS` usable on this host."""
    return [
        name
        for name in GF_BACKENDS
        if name != "native" or gf_native.is_available()
    ]


def set_default_backend(backend: Optional[str]) -> None:
    """Pin the process-wide default backend (``None`` restores env/default).

    An explicit request for ``"native"`` raises ``RuntimeError`` when the
    compiled kernels cannot be built, unlike the env-var path which falls
    back to ``numpy`` with a warning.
    """
    global _backend_override
    if backend is not None:
        if backend not in GF_BACKENDS:
            raise ValueError(
                f"unknown GF backend {backend!r}; expected one of {GF_BACKENDS}"
            )
        if backend == "native":
            error = gf_native.availability_error()
            if error is not None:
                raise RuntimeError(f"native GF backend unavailable: {error}")
    _backend_override = backend


def default_backend() -> str:
    """Resolve the backend new ``default_field()`` instances use.

    Precedence: :func:`set_default_backend` override, then the
    ``REPRO_GF_BACKEND`` environment variable, then ``"numpy"``.
    """
    if _backend_override is not None:
        return _backend_override
    env = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if not env:
        return "numpy"
    if env not in GF_BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV_VAR}={env!r} is not a GF backend; "
            f"expected one of {GF_BACKENDS}"
        )
    if env == "native":
        error = gf_native.availability_error()
        if error is not None:
            warnings.warn(
                f"{BACKEND_ENV_VAR}=native requested but the compiled backend "
                f"is unavailable ({error}); falling back to the numpy kernels",
                RuntimeWarning,
                stacklevel=2,
            )
            return "numpy"
    return env


@lru_cache(maxsize=None)
def _field_for_backend(backend: str) -> GF256:
    return GF256(backend=backend)


def default_field() -> GF256:
    """A process-wide shared GF(2^8) instance with the default polynomial.

    One instance is cached per backend, so flipping the default backend
    mid-process (tests, CLI) hands out the matching cached field without
    rebuilding tables for backends already seen.
    """
    return _field_for_backend(default_backend())
