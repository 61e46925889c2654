"""Erasure-coding substrate for the SODA reproduction.

The SODA and SODAerr algorithms (Konwar et al., IPDPS 2016) rely on an
``[n, k]`` Maximum Distance Separable (MDS) code: a value of one unit is
split into ``k`` elements, expanded into ``n`` coded elements of size
``1/k`` each, such that

* any ``k`` coded elements suffice to reconstruct the value (erasure-only
  decoding, used by SODA), and
* any ``k + 2e`` coded elements of which at most ``e`` are silently
  corrupted suffice to reconstruct the value (errors-and-erasures decoding,
  used by SODAerr).

This package implements everything needed from scratch:

* :mod:`repro.erasure.gf` — arithmetic in GF(2^8), with two
  byte-identical bulk-kernel backends (full-table numpy gathers,
  compiled C kernels) selected per field instance or
  process-wide via ``REPRO_GF_BACKEND`` / the ``--gf-backend`` CLI flag.
* :mod:`repro.erasure.gf_native` — the optional cffi-compiled kernels
  behind the ``native`` backend (graceful availability probing; pure
  numpy remains the always-on fallback).
* :mod:`repro.erasure.poly` — polynomials over GF(2^8).
* :mod:`repro.erasure.matrix` — matrices over GF(2^8) (inversion, solving).
* :mod:`repro.erasure.rs` — a classical Reed–Solomon codec with systematic
  encoding, erasure decoding from any ``k`` symbols and Berlekamp–Massey /
  Forney errors-and-erasures decoding.
* :mod:`repro.erasure.vandermonde` — an alternative matrix-based MDS
  backend (systematic Vandermonde generator matrix), used to cross-check
  the Reed–Solomon implementation and as a simple erasure-only code.
* :mod:`repro.erasure.mds` — the :class:`~repro.erasure.mds.MDSCode`
  interface shared by all protocol implementations, including the batched
  ``encode_many`` / ``decode_many`` pipeline.
* :mod:`repro.erasure.linear` — shared matrix-code machinery (one-matmul
  encoding, LRU-cached erasure decoding, wide-stripe batch variants).
* :mod:`repro.erasure.batch` — the memoizing/batch-warming
  :class:`~repro.erasure.batch.CachedEncoder` shared by a cluster's
  servers, the read-side :class:`~repro.erasure.batch.CachedDecoder` /
  :class:`~repro.erasure.batch.ReadDecodeBatcher` pair and the write-side
  :class:`~repro.erasure.batch.WriteEncodeBatcher` (one fused stripe
  encode per event-loop drain).
* :mod:`repro.erasure.replication` — the trivial ``[n, 1]`` replication
  "code" used by the ABD baseline.
"""

from repro.erasure.batch import (
    CachedDecoder,
    CachedEncoder,
    ReadDecodeBatcher,
    WriteEncodeBatcher,
)
from repro.erasure.gf import (
    GF256,
    GF_BACKENDS,
    available_backends,
    default_backend,
    default_field,
    set_default_backend,
)
from repro.erasure.linear import LinearCode
from repro.erasure.mds import CodedElement, MDSCode, DecodingError
from repro.erasure.rs import ReedSolomonCode
from repro.erasure.vandermonde import VandermondeCode
from repro.erasure.replication import ReplicationCode

__all__ = [
    "GF256",
    "GF_BACKENDS",
    "available_backends",
    "default_backend",
    "default_field",
    "set_default_backend",
    "CachedDecoder",
    "CachedEncoder",
    "ReadDecodeBatcher",
    "WriteEncodeBatcher",
    "CodedElement",
    "LinearCode",
    "MDSCode",
    "DecodingError",
    "ReedSolomonCode",
    "VandermondeCode",
    "ReplicationCode",
]
