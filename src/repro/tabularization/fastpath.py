"""Fused single-query fast path through the hierarchy of tables.

The generic ``query()`` path is shaped for throughput: it accepts any batch,
allocates its encode buffers per call, and every kernel allocates its
activations. At ``B = 1`` — the shape a real prefetcher serves,
one access at a time — that generality is almost pure overhead: profiling the
bench geometry shows a single-row ``query()`` is dominated by NumPy *dispatch*
(per-call buffers, ``fromnumeric`` wrappers, view gymnastics, allocation), not
arithmetic; the arrays are tiny.

This module compiles a **plan** for the one geometry streaming serves — the
model's fixed history length ``T`` — once, at build time:

* every scratch buffer (subspace splits, distance matrices, code arrays,
  gathers, activations) is preallocated, and so is every *view* into them
  (head splits, gather index reshapes), so the steady state allocates nothing;
* gather indices that depend only on geometry (subspace offsets into
  flattened tables, the attention kernels' ``c·K²`` strides) are precomputed;
* every step is a direct ufunc / ndarray-method call (``np.add.reduce``,
  ``ndarray.take``, ``ndarray.argmin``) — the ``fromnumeric`` wrappers the
  generic path goes through cost more than the arithmetic at these shapes;
* LayerNorm and the sigmoid LUT write into preallocated outputs in place.

**Bit-identity is the contract.** Every numerical step either mirrors the
generic path's exact operation order or applies a transformation verified to
be IEEE-754 exact:

* encode takes its fused ``[-2·Pᵀ; ‖P‖²]`` operands from the quantizer
  (``ProductQuantizer.exact_operands``), the same arrays the batch encode
  uses, and computes ``x·(-2·Pᵀ) + ‖P‖²`` the way the batch kernel
  ``kmeans.nearest_into`` does: the split rows carry a column of ones, so
  each subspace is one ``ndarray.dot`` and then one argmin covers all of
  them. The tiling of the batch path does not matter: with the
  C-contiguous operand, OpenBLAS gemm gives each output element the same
  arithmetic at any row count (``tests/test_quantization.py`` pins it). A
  one-row product would go to gemv, whose summation order differs, so a
  one-row plan (the head table's) computes a spare second row;
* matmuls run per subspace (batched 3-D matmuls are *not* slice-identical
  to 2-D ones for all shapes and are avoided);
* ``mean``/``var`` decompose into the same ``np.add.reduce`` + divide
  sequence NumPy's ``_methods`` implement;
* elementwise ops and gathers are value-exact regardless of batching, so
  those *are* batched across subspaces;
* the QKV → attention and FFN1 → FFN2 sites gather their destination codes
  from the exact code maps of :mod:`repro.tabularization.transitions`, the
  same maps the generic path uses. A plan decides at construction whether a
  site is mapped (a shape check against ``MAX_SOURCE_TUPLES``) but asks the
  site for its map on every query, so the map is built on the first query,
  not with the plan;
* the input stage (embedding, positional add, ``ln_in``, the first QKV
  encode) is gathered from the model's input map, keyed on each access's
  code tuple and filled through the generic ops
  (:meth:`~repro.tabularization.tabular_model.TabularAttentionPredictor.
  input_map`); the serving path's batched flushes read the same map.

:meth:`SingleQueryFastPath.head_codes` stops at the head's codes, so a caller
that memoizes what it derives from them (the serving flush path's emission
memo) runs the head gather and sigmoid only for a new code tuple;
:meth:`~SingleQueryFastPath.query_into` is ``head_codes`` then
``head_proba_into``.

``tests/test_fastpath.py`` pins ``query1 == query`` bitwise; the
serving-conformance matrix pins the whole serving stack on top of it.

Hot model swaps replace the plan (``_FlushPath.set_predictor`` rebuilds it);
in-place table refreshes (``TabularLinear.rebuild``) are caught by an
identity check on the source table each run, and a rebound quantizer's
prototypes by one on the prototypes each encode, so neither a stale
flattened copy, stale encode operands, a stale code map nor a stale input
map can serve.
"""

from __future__ import annotations

import numpy as np

from repro.tabularization.tabular_model import key_view
from repro.tabularization.transitions import code_dtype, mappable, tuple_radix

__all__ = ["SingleQueryFastPath", "EncodePlan", "TableGather", "RowPlan", "AttentionPlan"]


class EncodePlan:
    """Encode a fixed number of rows through a ``ProductQuantizer``.

    Zero steady-state allocation for the ``"exact"`` encoder; the ``"hash"``
    encoder reuses the fitted trees (bit-identical by construction, since the
    tree walk is pure integer comparisons on the same values).
    """

    __slots__ = (
        "pq", "n", "kind", "pad", "x_pad", "subs", "subs_n", "sub_slices", "_mm", "_protos",
        "_dist", "dist_n", "codes", "_view", "_view_src", "_dim_slice",
    )

    def __init__(self, pq, n: int):
        self.pq = pq
        self.n = int(n)
        self.kind = pq.encoder_kind
        self.pad = pq.padded_dim != pq.dim
        c, k, v = pq.n_subspaces, pq.n_prototypes, pq.subdim
        # Padding columns stay zero forever; only the real columns are
        # rewritten per query, as the batch kernel's zero columns pad there.
        self.x_pad = np.zeros((self.n, pq.padded_dim)) if self.pad else None
        self._dim_slice = (slice(None), slice(0, pq.dim))
        # Contiguous per-subspace splits of at least two rows: a one-row
        # product would run gemv, not the gemm every batched row gets (see
        # ``kmeans.nearest_into``); a spare row is computed and ignored.
        # The exact encoder's splits end in a column of ones, written once,
        # that picks up the operand's ‖P‖² row.
        rows = max(self.n, 2)
        exact = self.kind == "exact"
        self.subs = np.zeros((c, rows, v + 1 if exact else v))
        if exact:
            self.subs[:, :, v] = 1.0
        self.subs_n = self.subs[:, : self.n, :v]
        self.sub_slices = [self.subs_n[ci] for ci in range(c)]
        self._dist = np.empty((c, rows, k)) if exact else None
        self.dist_n = self._dist[:, : self.n] if exact else None
        self._protos = self._mm = None
        self.codes = np.empty((c, self.n), dtype=np.intp)
        # The (n, C, V) split view is cached keyed on source-buffer identity:
        # padded sites always split the persistent x_pad; unpadded sites in
        # the model pipeline always receive the same scratch buffer, so the
        # view is built once and reused forever.
        if self.pad:
            self._view_src = self.x_pad
            self._view = self.x_pad.reshape(self.n, c, v).transpose(1, 0, 2)
        else:
            self._view_src = None
            self._view = None

    def _bind(self) -> None:
        """Bind the GEMM operands of the quantizer's current prototypes.

        ``_mm`` holds per-subspace ``(input.dot, operand, output)``, the
        operand shared with the quantizer's batch encode; ``ndarray.dot``
        reaches the same BLAS dgemm as ``np.matmul`` (verified
        bitwise-identical) with far less dispatch overhead.
        """
        self._protos = self.pq.prototypes
        self._mm = [
            (self.subs[ci].dot, op, self._dist[ci])
            for ci, op in enumerate(self.pq.exact_operands())
        ]

    def encode(self, x2d: np.ndarray) -> np.ndarray:
        """Codes for ``x2d`` of shape ``(n, dim)``; returns ``(C, n)`` intp."""
        if self.pad:
            self.x_pad[self._dim_slice] = x2d
            view = self._view
        elif x2d is self._view_src:
            view = self._view
        else:
            pq = self.pq
            view = x2d.reshape(self.n, pq.n_subspaces, pq.subdim).transpose(1, 0, 2)
            if x2d.flags.c_contiguous:  # reshape is a true view: safe to cache
                self._view, self._view_src = view, x2d
        # One strided→contiguous copy splits all subspaces at once.
        np.copyto(self.subs_n, view)
        codes = self.codes
        if self.kind == "exact":
            if self.pq.prototypes is not self._protos:
                self._bind()
            for dot, op, dst in self._mm:
                dot(op, dst)
            # argmin is value-exact at any batching: one call covers every
            # subspace.
            self.dist_n.argmin(2, codes)
        else:
            for c, tree in enumerate(self.pq._hash_trees):
                codes[c] = tree.encode(self.sub_slices[c])
        return codes


class TableGather:
    """Fixed-row-count gather → aggregate over a ``(C, K, D_out)`` table.

    :meth:`run` takes the table each call and re-flattens it only when a new
    array is passed, so an in-place kernel refresh can never serve a stale
    flattened copy.
    """

    __slots__ = ("offs", "gathered", "out", "_src_table", "_flat")

    def __init__(self, table_shape, n: int):
        c, k, d_out = table_shape
        # subspace offsets materialized at codes' full (C, n) shape (cheap add)
        self.offs = np.ascontiguousarray(
            np.broadcast_to((np.arange(c, dtype=np.intp) * k)[:, None], (c, n))
        )
        self.gathered = np.empty((c, n, d_out))
        self.out = np.empty((n, d_out))
        self._src_table = None
        self._flat = None

    def run(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Aggregate ``table`` rows for ``(C, n)`` intp codes (consumed)."""
        if table is not self._src_table:
            self._flat = table.reshape(-1, table.shape[2])
            self._src_table = table
        np.add(codes, self.offs, codes)
        self._flat.take(codes, 0, self.gathered)
        # (C, n, D) reduced over axis 0 is bitwise-identical to the generic
        # (n, C, D).sum(axis=1): same per-element addend order over C.
        np.add.reduce(self.gathered, axis=0, out=self.out)
        return self.out


class RowPlan:
    """Fixed-row-count encode → gather → aggregate for one
    :class:`~repro.tabularization.linear_kernel.TabularLinear`.

    Bit-identical to the kernel's ``query`` on ``(n, D_in)`` inputs: the
    kernel's ``pq`` encodes, and its ``(C, K, D_out)`` table is gathered and
    summed over ``C``.
    """

    __slots__ = ("kernel", "enc", "gather", "out")

    def __init__(self, kernel, n: int):
        self.kernel = kernel
        self.enc = EncodePlan(kernel.pq, n)
        self.gather = TableGather(kernel.table.shape, n)
        self.out = self.gather.out

    def run(self, x2d: np.ndarray) -> np.ndarray:
        return self.gather.run(self.kernel.table, self.enc.encode(x2d))


class _CodeTransitionPlan:
    """Fixed-row-count gather of a code map: ``(C, n)`` source codes in,
    ``(n, width)`` destination codes out (``take`` into ``rows``).

    The map itself comes from the owning site's ``code_transition()`` each
    call, so it is built on the first query, never at plan construction.
    """

    __slots__ = ("radix", "idx", "rows")

    def __init__(self, source_table: np.ndarray, n: int, width: int, k_dest: int):
        self.radix = tuple_radix(source_table)
        self.idx = np.empty(n, dtype=np.intp)
        self.rows = np.empty((n, width), dtype=code_dtype(k_dest))

    def run(self, code_map: np.ndarray, codes: np.ndarray) -> np.ndarray:
        np.matmul(self.radix, codes, self.idx)
        code_map.take(self.idx, 0, self.rows)
        return self.rows


class _AttentionCodesPlan:
    """Fixed-batch attention kernel from Q/K codes: 2 encodes + 2 gathers.

    The caller writes the ``(C_k, batch·T)`` Q and K codes into the ``iq`` /
    ``ik`` buffers it passes in (the Q/K encoders' own code buffers, or the
    destination of a code transition) and supplies V columns
    ``(batch·D_k, T)``.
    """

    __slots__ = (
        "attn", "iq", "enc_qk", "enc_v",
        "qk_coffs", "qk_row_view", "qk_col_view", "qk_idx", "qk_gathered",
        "qk_hat", "qk_hat_rows",
        "qkv_coffs", "qkv_row_view", "qkv_col_view", "qkv_idx", "qkv_gathered",
        "ctx",
        "_qk_src", "_qk_flat", "_qkv_src", "_qkv_flat",
    )

    def __init__(self, attn, batch: int, iq: np.ndarray, ik: np.ndarray):
        self.attn = attn
        b, t, dk = int(batch), attn.seq_len, attn.head_dim
        k = attn.qk_table.shape[1]
        ck = attn.qk_table.shape[0]
        ct = attn.qkv_table.shape[0]
        self.iq = iq
        self.enc_qk = EncodePlan(attn.pq_qk, b * t)
        self.enc_v = EncodePlan(attn.pq_v, b * dk)
        # Precomputed c·K² strides and index-buffer views: the gather
        # ``flat[c·K² + row_code·K + col_code]`` touches the exact entries
        # the generic fancy gather does, so the subspace sum is identical.
        self.qk_coffs = np.ascontiguousarray(
            np.broadcast_to((np.arange(ck, dtype=np.intp) * k * k)[:, None], (ck, b * t))
        )
        self.qk_row_view = iq.reshape(ck, b, t, 1)
        self.qk_col_view = ik.reshape(ck, b, 1, t)
        self.qk_idx = np.empty((ck, b, t, t), dtype=np.intp)
        self.qk_gathered = np.empty((ck, b, t, t))
        self.qk_hat = np.empty((b, t, t))
        self.qk_hat_rows = self.qk_hat.reshape(b * t, t)
        self.qkv_coffs = np.ascontiguousarray(
            np.broadcast_to((np.arange(ct, dtype=np.intp) * k * k)[:, None], (ct, b * t))
        )
        self.qkv_row_view = self.enc_qk.codes.reshape(ct, b, t, 1)
        self.qkv_col_view = self.enc_v.codes.reshape(ct, b, 1, dk)
        self.qkv_idx = np.empty((ct, b, t, dk), dtype=np.intp)
        self.qkv_gathered = np.empty((ct, b, t, dk))
        self.ctx = np.empty((b, t, dk))
        self._qk_src = self._qk_flat = None
        self._qkv_src = self._qkv_flat = None
        self._refresh()

    def _refresh(self) -> None:
        self._qk_flat = self.attn.qk_table.reshape(-1)
        self._qk_src = self.attn.qk_table
        self._qkv_flat = self.attn.qkv_table.reshape(-1)
        self._qkv_src = self.attn.qkv_table

    def run(self, v_cols: np.ndarray) -> np.ndarray:
        attn = self.attn
        if attn.qk_table is not self._qk_src or attn.qkv_table is not self._qkv_src:
            self._refresh()
        k = attn.qk_table.shape[1]
        # Round 1: gather/sum the QK table (Eq. 13).
        iq = self.iq
        np.multiply(iq, k, iq)  # codes are consumed; scale in place
        np.add(iq, self.qk_coffs, iq)
        np.add(self.qk_row_view, self.qk_col_view, self.qk_idx)
        self._qk_flat.take(self.qk_idx, 0, self.qk_gathered)
        np.add.reduce(self.qk_gathered, axis=0, out=self.qk_hat)
        # Round 2: encode Q̃K̃ᵀ rows and V columns, gather/sum the QKV table.
        iqk = self.enc_qk.encode(self.qk_hat_rows)
        self.enc_v.encode(v_cols)
        np.multiply(iqk, k, iqk)
        np.add(iqk, self.qkv_coffs, iqk)
        np.add(self.qkv_row_view, self.qkv_col_view, self.qkv_idx)
        self._qkv_flat.take(self.qkv_idx, 0, self.qkv_gathered)
        np.add.reduce(self.qkv_gathered, axis=0, out=self.ctx)
        return self.ctx


class AttentionPlan:
    """Fixed-batch attention kernel: 4 encodes + 2 flat-table gathers.

    ``batch`` is the number of attention instances (``B·H``; the fast path
    uses ``B = 1`` so ``batch = heads``). Callers supply row-major Q/K rows
    ``(batch·T, D_k)`` and V columns ``(batch·D_k, T)`` — the exact row
    orders the generic path's reshapes produce.
    """

    __slots__ = ("attn", "batch", "enc_q", "enc_k", "coded", "ctx")

    def __init__(self, attn, batch: int):
        self.attn = attn
        self.batch = int(batch)
        n = self.batch * attn.seq_len
        self.enc_q = EncodePlan(attn.pq_q, n)
        self.enc_k = EncodePlan(attn.pq_k, n)
        self.coded = _AttentionCodesPlan(attn, self.batch, self.enc_q.codes, self.enc_k.codes)
        self.ctx = self.coded.ctx

    def run(self, q_rows: np.ndarray, k_rows: np.ndarray, v_cols: np.ndarray) -> np.ndarray:
        self.enc_q.encode(q_rows)
        self.enc_k.encode(k_rows)
        return self.coded.run(v_cols)


class _MSAPlan:
    """Multi-head attention on one ``(T, D)`` input, heads pre-split once.

    :meth:`run` takes the input and, optionally, its QKV codes: the first
    layer's come from the fast path's input map, a later layer's from this
    plan's own encode. The head split/merge copies are single ``copyto``
    calls through views precomputed over the fixed scratch buffers — the
    same row orders the generic path's reshape/transpose chains produce. A
    mapped plan (QKV code space within ``MAX_SOURCE_TUPLES``) gathers the
    per-head Q/K codes from the site's code map and aggregates only the V
    third of the QKV table, as ``TabularMSA.query`` does; an unmapped plan
    aggregates the whole QKV table and encodes the Q and K rows.
    """

    __slots__ = (
        "msa", "qkv", "attn", "out", "mapped", "qkv_enc", "qk_map",
        "q_rows", "k_rows", "v_cols", "merged",
        "_q_src", "_k_src", "_v_src", "_q_dst", "_k_dst", "_v_dst",
        "_ctx_src", "_merged_dst",
    )

    def __init__(self, msa, t: int):
        self.msa = msa
        self.mapped = mappable(msa.qkv.table)
        h, dh, d = msa.heads, msa.head_dim, msa.dim
        c, k, _ = msa.qkv.table.shape
        self.qkv_enc = EncodePlan(msa.qkv.pq, t)
        self.out = RowPlan(msa.out, t)
        self.v_cols = np.empty((h * dh, t))
        self.merged = np.empty((t, d))
        self._v_dst = self.v_cols.reshape(h, dh, t)
        if self.mapped:
            ck = msa.attn.n_subspaces_k
            self.qk_map = _CodeTransitionPlan(
                msa.qkv.table, t, 2 * h * ck, msa.attn.n_prototypes
            )
            self.qkv = TableGather((c, k, d), t)  # the V third
            iq = np.empty((ck, h * t), dtype=np.intp)
            ik = np.empty((ck, h * t), dtype=np.intp)
            self.attn = _AttentionCodesPlan(msa.attn, h, iq, ik)
            self.q_rows = self.k_rows = None
            #: per-head code views: map rows (T, 2, H, C_k) -> (C_k, H, T)
            rows = self.qk_map.rows.reshape(t, 2, h, ck)
            self._q_src = rows[:, 0].transpose(2, 1, 0)
            self._k_src = rows[:, 1].transpose(2, 1, 0)
            self._q_dst = iq.reshape(ck, h, t)
            self._k_dst = ik.reshape(ck, h, t)
            self._v_src = self.qkv.out.reshape(t, h, dh).transpose(1, 2, 0)
        else:
            self.qk_map = None
            self.qkv = TableGather(msa.qkv.table.shape, t)
            self.attn = AttentionPlan(msa.attn, h)
            self.q_rows = np.empty((h * t, dh))
            self.k_rows = np.empty((h * t, dh))
            qkv_out = self.qkv.out  # (T, 3D), fixed buffer
            #: (B·H, T, Dh)-ordered head views over the QKV output
            self._q_src = qkv_out[:, :d].reshape(t, h, dh).transpose(1, 0, 2)
            self._k_src = qkv_out[:, d : 2 * d].reshape(t, h, dh).transpose(1, 0, 2)
            #: V columns: (H, Dh, T) view matching the generic transpose(0, 2, 1)
            self._v_src = qkv_out[:, 2 * d :].reshape(t, h, dh).transpose(1, 2, 0)
            self._q_dst = self.q_rows.reshape(h, t, dh)
            self._k_dst = self.k_rows.reshape(h, t, dh)
        self._ctx_src = self.attn.ctx.transpose(1, 0, 2)  # (T, H, Dh)
        self._merged_dst = self.merged.reshape(t, h, dh)

    def run(self, x2d: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
        """Attention output for ``x2d``; ``codes`` are its ``(C, T)`` QKV
        codes (consumed), or ``None`` to encode them here."""
        if codes is None:
            codes = self.qkv_enc.encode(x2d)
        if self.mapped:
            qk_codes, v_table = self.msa.code_transition()
            self.qk_map.run(qk_codes, codes)  # before the gather consumes codes
            np.copyto(self._q_dst, self._q_src)
            np.copyto(self._k_dst, self._k_src)
            self.qkv.run(v_table, codes)
            np.copyto(self._v_dst, self._v_src)
            self.attn.run(self.v_cols)  # fills attn.ctx
        else:
            self.qkv.run(self.msa.qkv.table, codes)  # fills self.qkv.out
            np.copyto(self._q_dst, self._q_src)
            np.copyto(self._k_dst, self._k_src)
            np.copyto(self._v_dst, self._v_src)
            self.attn.run(self.q_rows, self.k_rows, self.v_cols)  # fills attn.ctx
        np.copyto(self._merged_dst, self._ctx_src)
        return self.out.run(self.merged)


class _LayerNormPlan:
    """:meth:`LayerNormOp.query_into` on fixed ``(n, D)`` buffers.

    That sequence is the ``np.add.reduce`` + divide steps NumPy's
    ``_methods._mean`` / ``_var`` run (bitwise identical, without their
    per-call Python overhead), with ``x - mean`` formed once for the variance
    and the numerator.
    """

    __slots__ = ("op", "mean", "var", "sq", "out")

    def __init__(self, op, n: int):
        self.op = op
        self.mean = np.empty((n, 1))
        self.var = np.empty((n, 1))
        self.sq = np.empty((n, op.dim))
        self.out = np.empty((n, op.dim))

    def run(self, x2d: np.ndarray) -> np.ndarray:
        return self.op.query_into(x2d, self.mean, self.var, self.sq, self.out)


class _EncoderLayerPlan:
    """One tabularized encoder layer on a fixed ``(T, D)`` activation.

    A mapped plan (FFN1 code space within ``MAX_SOURCE_TUPLES``) encodes the
    FFN1 input, gathers the FFN2 codes from the layer's code map and
    aggregates the FFN2 table, as ``TabularEncoderLayer.query`` does.
    """

    __slots__ = (
        "layer", "msa", "ln1", "ffn1", "ffn2", "ln2", "resid",
        "mapped", "ffn1_enc", "ffn2_map", "ffn2_codes", "ffn2_gather", "_codes_src",
    )

    def __init__(self, layer, t: int):
        self.layer = layer
        self.msa = _MSAPlan(layer.msa, t)
        self.ln1 = _LayerNormPlan(layer.ln1, t)
        self.ln2 = _LayerNormPlan(layer.ln2, t)
        self.resid = np.empty((t, layer.msa.dim))
        self.mapped = mappable(layer.ffn1.table)
        if self.mapped:
            pq = layer.ffn2.pq
            self.ffn1 = self.ffn2 = None
            self.ffn1_enc = EncodePlan(layer.ffn1.pq, t)
            self.ffn2_map = _CodeTransitionPlan(
                layer.ffn1.table, t, pq.n_subspaces, pq.n_prototypes
            )
            self.ffn2_codes = np.empty((pq.n_subspaces, t), dtype=np.intp)
            self._codes_src = self.ffn2_map.rows.T
            self.ffn2_gather = TableGather(layer.ffn2.table.shape, t)
        else:
            self.ffn1_enc = self.ffn2_map = self.ffn2_codes = self.ffn2_gather = None
            self._codes_src = None
            self.ffn1 = RowPlan(layer.ffn1, t)
            self.ffn2 = RowPlan(layer.ffn2, t)

    def run(self, x2d: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
        """Layer output for ``x2d``; ``codes`` as in :meth:`_MSAPlan.run`."""
        np.add(x2d, self.msa.run(x2d, codes), self.resid)
        h1 = self.ln1.run(self.resid)
        if self.mapped:
            layer = self.layer
            self.ffn2_map.run(layer.code_transition(), self.ffn1_enc.encode(h1))
            np.copyto(self.ffn2_codes, self._codes_src)
            f = self.ffn2_gather.run(layer.ffn2.table, self.ffn2_codes)
        else:
            f1 = self.ffn1.run(h1)
            np.maximum(f1, 0.0, out=f1)
            f = self.ffn2.run(f1)
        np.add(h1, f, self.resid)
        return self.ln2.run(self.resid)


class SingleQueryFastPath:
    """Preallocated single-query plan for a :class:`TabularAttentionPredictor`.

    Built once per installed model (``model.fast_path()`` caches one); a plan
    is geometry-bound to the model's ``history_len`` and bitmap size. Not
    thread-safe — every buffer is reused across calls — matching the
    single-threaded flush paths that drive it.

    The input stage is a lookup in the model's input map
    (:meth:`~repro.tabularization.tabular_model.TabularAttentionPredictor.
    input_map`, shared with the batched serving flushes). The plan encodes
    the window's addr and pc rows into one ``(T, C_addr + C_pc)`` key row
    per access, looks the keys up (a new key fills its ``T`` rows once
    through the generic ops) and gathers layer 0's input rows and QKV codes
    by (key, position).
    """

    __slots__ = (
        "model", "t_hist", "bitmap_size",
        "addr", "pc", "layers", "head",
        "key_codes", "_key_addr", "_key_pc", "_keys", "pos", "base", "idx",
        "rows", "qkv_codes", "pooled", "sig_f", "sig_idx", "probs",
    )

    def __init__(self, model):
        self.model = model
        t = int(model.model_config.history_len)
        self.t_hist = t
        self.bitmap_size = int(model.model_config.bitmap_size)
        d = model.model_config.dim
        ca = model.addr_table.n_subspaces
        cp = model.pc_table.n_subspaces
        self.addr = EncodePlan(model.addr_table.pq, t)
        self.pc = EncodePlan(model.pc_table.pq, t)
        self.layers = [_EncoderLayerPlan(layer, t) for layer in model.layers]
        self.head = RowPlan(model.head_table, 1)
        #: (T, C_addr + C_pc) key rows, written through (C, T) views
        self.key_codes = np.empty((t, ca + cp), dtype=np.intp)
        self._key_addr = self.key_codes[:, :ca].T
        self._key_pc = self.key_codes[:, ca:].T
        #: one bytes key per row (``tolist()`` of a void view)
        self._keys = key_view(self.key_codes)
        self.pos = np.arange(t, dtype=np.intp)
        self.base = np.empty(t, dtype=np.intp)
        self.idx = np.empty(t, dtype=np.intp)
        self.rows = np.empty((t, d))
        self.qkv_codes = np.empty((model.layers[0].msa.qkv.n_subspaces, t), dtype=np.intp)
        self.pooled = np.empty((1, d))
        self.sig_f = np.empty((1, self.bitmap_size))
        self.sig_idx = np.empty((1, self.bitmap_size), dtype=np.int64)
        self.probs = np.empty((1, self.bitmap_size))

    def head_codes(self, x_addr: np.ndarray, x_pc: np.ndarray) -> np.ndarray:
        """One query's ``(C_out, 1)`` head codes (a buffer reused per call)."""
        np.copyto(self._key_addr, self.addr.encode(x_addr))
        np.copyto(self._key_pc, self.pc.encode(x_pc))
        m, bases = self.model.input_bases(self._keys.tolist())
        self.base[:] = bases
        np.add(self.base, self.pos, self.idx)
        m.rows.take(self.idx, 0, self.rows)
        m.codes.take(self.idx, 1, self.qkv_codes)
        h, codes = self.rows, self.qkv_codes
        for layer in self.layers:
            h = layer.run(h, codes)
            codes = None  # later layers encode their own input
        # Mean pool = the same add.reduce + divide x.mean(axis=-2) runs.
        np.add.reduce(h, axis=0, keepdims=True, out=self.pooled)
        np.true_divide(self.pooled, self.t_hist, self.pooled)
        return self.head.enc.encode(self.pooled)

    def head_proba_into(self, codes: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Probabilities of ``(C_out, 1)`` head codes (consumed) into ``out``."""
        logits = self.head.gather.run(self.model.head_table.table, codes)
        self.model.sigmoid.query_into(logits, self.sig_f, self.sig_idx, out)
        return out

    def query_into(self, x_addr: np.ndarray, x_pc: np.ndarray, out: np.ndarray) -> np.ndarray:
        """One query: ``(T, S)`` feature rows → probabilities into ``out``.

        ``out`` must be a float64 ``(1, bitmap_size)`` array (a view into a
        caller's batch buffer is the intended use). Bit-identical to
        ``model.query(x_addr[None], x_pc[None])[0]``.
        """
        return self.head_proba_into(self.head_codes(x_addr, x_pc), out)

    def query1(self, x_addr: np.ndarray, x_pc: np.ndarray) -> np.ndarray:
        """Single-query probabilities, shape ``(bitmap_size,)`` (fresh array)."""
        t = self.t_hist
        x_addr = np.asarray(x_addr, dtype=np.float64)
        x_pc = np.asarray(x_pc, dtype=np.float64)
        if x_addr.ndim == 3:  # accept the generic (1, T, S) calling shape
            x_addr = x_addr.reshape(x_addr.shape[-2:])
            x_pc = x_pc.reshape(x_pc.shape[-2:])
        if x_addr.shape[0] != t:
            raise ValueError(
                f"fast path is bound to history_len {t}, got {x_addr.shape[0]} rows"
            )
        self.query_into(x_addr, x_pc, self.probs)
        return self.probs[0].copy()
