"""The hierarchy of tables: a tabularized attention predictor.

Mirrors :class:`repro.models.AttentionPredictor` structure-for-structure
(paper Fig. 3's "table-based predictor"): every matrix multiplication is a
:class:`TabularLinear` or :class:`TabularAttention` lookup; LayerNorm,
residual adds, mean-pooling and ReLU remain direct arithmetic (Algorithm 1,
lines 15–18); the output activation is a :class:`SigmoidLUT`.

The model also self-reports the paper's cost metrics (Eqs. 22–23 plus kernel
ops) from its actual components, so Table V / Table VIII / Fig. 10 benches
read costs off the same objects that execute queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.config import ModelConfig
from repro.nn.transformer import PositionalEncoding
from repro.quantization.pq import lookup_aggregate
from repro.tabularization import rowpool
from repro.tabularization.attention_kernel import TabularAttention
from repro.tabularization.layernorm_op import LayerNormOp
from repro.tabularization.linear_kernel import TabularLinear
from repro.tabularization.sigmoid_lut import SigmoidLUT
from repro.tabularization.transitions import (
    CodeMapCache,
    build_code_map,
    mappable,
    tuple_radix,
)

#: LayerNorm latency constant L_ln (cycles) — see DESIGN.md "Known deviations".
LATENCY_LAYERNORM = 8.0
#: Output sigmoid LUT latency L_sigma (cycles).
LATENCY_SIGMOID = 1.0
#: Access keys a model's input map holds before it is cleared. Each key holds
#: ``T`` rows of ``D`` floats (4 KiB at T=16, D=32) and their QKV codes.
INPUT_MAP_KEYS = 1024


@dataclass(frozen=True)
class TableConfig:
    """Per-operation table sizes (paper Table II: ⟨prototypes K, subspaces C⟩)."""

    k_input: int = 128
    c_input: int = 2
    k_attn: int = 128
    c_attn: int = 2
    k_ffn: int = 128
    c_ffn: int = 2
    k_output: int = 128
    c_output: int = 2
    encoder: str = "exact"
    data_bits: int = 32

    @classmethod
    def uniform(cls, k: int, c: int, encoder: str = "exact") -> "TableConfig":
        """The paper's evaluation choice: one (K, C) across all operations."""
        return cls(k, c, k, c, k, c, k, c, encoder=encoder)


class TabularMSA:
    """Multi-head self-attention as tables: QKV table, attention kernel, out table.

    The attention kernel is shared across heads (trained on head-pooled data),
    matching the paper's storage model which charges ``S_a`` once per encoder
    layer (Eq. 23).

    When the QKV code space is small enough (see
    :mod:`~repro.tabularization.transitions`), the per-head Q and K codes
    come from an exact code map instead of an encode, and only the V third
    of the QKV table is gathered.
    """

    def __init__(self, qkv: TabularLinear, attn: TabularAttention, out: TabularLinear, heads: int):
        self.qkv = qkv
        self.attn = attn
        self.out = out
        self.heads = int(heads)
        self.dim = out.out_dim
        self.head_dim = self.dim // self.heads
        self._transition = CodeMapCache()

    def code_transition(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(qk_codes, v_table)`` of the QKV -> attention site, or ``None``.

        ``qk_codes`` is ``(K**C, 2·H·C_k)``: per QKV code tuple, the ``pq_q``
        then the ``pq_k`` codes of every head. ``v_table`` is the contiguous
        V third of the QKV table. Built on first call; ``None`` when the QKV
        code space exceeds ``MAX_SOURCE_TUPLES``.
        """
        table = self.qkv.table
        if not mappable(table):
            return None
        attn = self.attn
        key = (table, attn.pq_q.prototypes, attn.pq_k.prototypes)
        return self._transition.get(key, self._build_transition)

    def _build_transition(self) -> tuple[np.ndarray, np.ndarray]:
        table, d, attn = self.qkv.table, self.dim, self.attn
        qk_codes = build_code_map(table, [(0, d, attn.pq_q), (d, 2 * d, attn.pq_k)])
        return qk_codes, np.ascontiguousarray(table[:, :, 2 * d :])

    def query(self, x: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
        """Attention output for ``(B, T, D)`` inputs.

        ``codes`` are the inputs' ``(B·T, C)`` QKV codes, as ``qkv.pq.encode``
        gives them, or ``None`` to encode them here.
        """
        b, t, d = x.shape
        h, dh = self.heads, self.head_dim

        def split(m):  # (B, T, D) -> (B*H, T, Dh): heads batch through the kernel
            return m.reshape(b, t, h, dh).transpose(0, 2, 1, 3).reshape(b * h, t, dh)

        if codes is None:
            codes = self.qkv.pq.encode(x.reshape(-1, d))  # (B*T, C)
        site = self.code_transition()
        if site is None:
            qkv = lookup_aggregate(self.qkv.table, codes).reshape(b, t, 3 * d)
            q, k, v = np.split(qkv, 3, axis=-1)
            ctx = self.attn.query(split(q), split(k), split(v))  # (B*H, T, Dh)
        else:
            qk_codes, v_table = site
            qk = qk_codes.take(codes @ tuple_radix(self.qkv.table), 0)
            ck = self.attn.n_subspaces_k
            # (B·T, 2·H·C_k) -> (2, C_k, B·H, T): the layout the Q/K encodes give
            iqk = np.empty((2, ck, b * h, t), dtype=np.intp)
            np.copyto(iqk.reshape(2, ck, b, h, t),
                      qk.reshape(b, t, 2, h, ck).transpose(2, 4, 0, 3, 1))
            v = lookup_aggregate(v_table, codes).reshape(b, t, d)
            ctx = self.attn.query_codes(iqk[0], iqk[1], split(v))
        merged = ctx.reshape(b, h, t, dh).transpose(0, 2, 1, 3).reshape(b, t, d)
        return self.out.query(merged)


class TabularEncoderLayer:
    """One tabularized Transformer encoder layer (post-LN, residuals direct).

    When the FFN1 code space is small enough, the FFN2 codes come from an
    exact code map of the FFN1 codes: the FFN1 lookup and ReLU do not run.
    """

    def __init__(
        self,
        msa: TabularMSA,
        ln1: LayerNormOp,
        ffn1: TabularLinear,
        ffn2: TabularLinear,
        ln2: LayerNormOp,
    ):
        self.msa = msa
        self.ln1 = ln1
        self.ffn1 = ffn1
        self.ffn2 = ffn2
        self.ln2 = ln2
        self._transition = CodeMapCache()

    def code_transition(self) -> np.ndarray | None:
        """``(K**C, C_ffn2)`` ``ffn2`` codes per FFN1 code tuple, or ``None``.

        Built on first call; ``None`` when the FFN1 code space exceeds
        ``MAX_SOURCE_TUPLES``.
        """
        table = self.ffn1.table
        if not mappable(table):
            return None
        key = (table, self.ffn2.pq.prototypes)
        return self._transition.get(key, self._build_transition)

    def _build_transition(self) -> np.ndarray:
        ffn1, pq = self.ffn1, self.ffn2.pq
        return build_code_map(ffn1.table, [(0, ffn1.out_dim, pq)], relu=True)

    def query(self, x: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
        """Layer output; ``codes`` as in :meth:`TabularMSA.query`."""
        h = self.ln1.query(x + self.msa.query(x, codes))
        ffn2_codes = self.code_transition()
        if ffn2_codes is None:
            f = self.ffn2.query(np.maximum(self.ffn1.query(h), 0.0))
        else:
            codes = self.ffn1.pq.encode(h.reshape(-1, h.shape[-1]))
            mapped = ffn2_codes.take(codes @ tuple_radix(self.ffn1.table), 0)
            f = lookup_aggregate(self.ffn2.table, mapped).reshape(*h.shape[:-1], -1)
        return self.ln2.query(h + f)


class InputMap:
    """First-layer input rows and their QKV codes per (access key, position).

    Slot ``s`` holds one access key's ``T`` rows at flat rows ``s·T ..
    s·T + T - 1``: row ``s·T + p`` is ``ln_in(embed(key) + pe[p])`` and
    column ``s·T + p`` of :attr:`codes` its QKV codes. :attr:`ids` maps a key
    to ``s·T``. The arrays grow by doubling, so memory follows the keys
    seen. The map holds ``cap`` keys: a lookup that brings more new keys
    than there is room left for clears it first, and one that brings more
    than ``cap`` distinct keys grows it past ``cap`` to hold them all.
    """

    __slots__ = ("cap", "t", "ids", "rows", "codes")

    def __init__(self, cap: int, t: int, d: int, c_qkv: int):
        self.cap = cap
        self.t = t
        self.ids: dict[bytes, int] = {}
        self.rows = np.empty((0, d))
        self.codes = np.empty((c_qkv, 0), dtype=np.intp)

    def reserve(self, n_keys: int) -> None:
        """Room for ``n_keys`` keys, keeping the rows already held."""
        held = self.rows.shape[0] // self.t
        if n_keys <= held:
            return
        n = max(min(max(2 * held, 16), self.cap), n_keys) * self.t
        used = len(self.ids) * self.t
        rows = np.empty((n, self.rows.shape[1]))
        rows[:used] = self.rows[:used]
        codes = np.empty((self.codes.shape[0], n), dtype=np.intp)
        codes[:, :used] = self.codes[:, :used]
        self.rows, self.codes = rows, codes


def key_view(key_codes: np.ndarray) -> np.ndarray:
    """One void item per row of a C-contiguous ``(n, width)`` intp code array;
    ``tolist()`` gives each row's bytes, the key of the input map and of the
    serving emission memo."""
    return key_codes.view(np.dtype((np.void, key_codes.itemsize * key_codes.shape[1])))[:, 0]


class TabularAttentionPredictor:
    """The full hierarchy of tables (DART's predictor)."""

    def __init__(
        self,
        addr_table: TabularLinear,
        pc_table: TabularLinear,
        pos: PositionalEncoding,
        ln_in: LayerNormOp,
        layers: list[TabularEncoderLayer],
        head_table: TabularLinear,
        sigmoid: SigmoidLUT,
        model_config: ModelConfig,
        table_config: TableConfig,
    ):
        self.addr_table = addr_table
        self.pc_table = pc_table
        self.pos = pos
        self.ln_in = ln_in
        self.layers = layers
        self.head_table = head_table
        self.sigmoid = sigmoid
        self.model_config = model_config
        self.table_config = table_config

    def __getstate__(self) -> dict:
        # The cached fast path's bound GEMM calls point into this object's
        # buffers, so a copy or an unpickled model must build its own; the
        # input map is a serving cache and is rebuilt on first use.
        state = self.__dict__.copy()
        state.pop("_fast_path", None)
        state.pop("_inputs", None)
        return state

    # ------------------------------------------------------------ input map
    def input_map(self) -> InputMap:
        """The model's :class:`InputMap` (built on first use).

        An access's key is its addr code tuple followed by its pc code
        tuple. The embedding is a gather-sum of those codes, the positional
        add and ``ln_in`` are row-local, and the QKV encode gives a row the
        same codes at any row count, so layer 0's input row at window
        position ``p`` and its QKV codes are functions of (key, ``p``). The
        map is rebuilt when any array it was filled from is rebound (the
        addr and pc tables, the positional table, ``ln_in``'s parameters,
        the first QKV quantizer's prototypes), the identity rule of
        :class:`CodeMapCache`.
        """
        cache = self.__dict__.get("_inputs")
        if cache is None:
            cache = self._inputs = CodeMapCache()
        key = (
            self.addr_table.table, self.pc_table.table, self.pos.pe,
            self.ln_in.gamma, self.ln_in.beta, self.layers[0].msa.qkv.pq.prototypes,
        )
        return cache.get(key, self._new_input_map)

    def _new_input_map(self) -> InputMap:
        mc = self.model_config
        return InputMap(INPUT_MAP_KEYS, mc.history_len, mc.dim, self.layers[0].msa.qkv.n_subspaces)

    def input_bases(self, keys: list) -> tuple[InputMap, list]:
        """The input map and each key's base row in it, filling unseen keys."""
        m = self.input_map()
        ids = m.ids
        bases = [ids.get(key) for key in keys]
        if None in bases:
            bases = self._fill_inputs(m, keys)
        return m, bases

    def _fill_inputs(self, m: InputMap, keys: list) -> list:
        """Add the unseen keys to ``m`` through the generic ops; returns every
        key's base row. Keys of one call are never evicted by that call."""
        ids = m.ids
        new = [key for key in dict.fromkeys(keys) if key not in ids]
        if len(ids) + len(new) > m.cap:
            ids.clear()
            new = list(dict.fromkeys(keys))
        m.reserve(len(ids) + len(new))
        t, ca = m.t, self.addr_table.n_subspaces
        codes = np.frombuffer(b"".join(new), dtype=np.intp).reshape(len(new), -1)
        embed = lookup_aggregate(self.addr_table.table, codes[:, :ca])
        embed += lookup_aggregate(self.pc_table.table, codes[:, ca:])
        rows = self.ln_in.query(self.pos.apply_inference(
            np.broadcast_to(embed[:, None, :], (len(new), t, embed.shape[1]))
        )).reshape(len(new) * t, -1)
        lo = len(ids) * t
        m.rows[lo : lo + len(rows)] = rows
        m.codes[:, lo : lo + len(rows)] = self.layers[0].msa.qkv.pq.encode(rows).T
        for i, key in enumerate(new):
            ids[key] = lo + i * t
        return [ids[key] for key in keys]

    def window_head_codes(
        self, acc_addr: np.ndarray, acc_pc: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Head codes of the windows ``acc[s : s + T]`` for ``s`` in ``starts``.

        ``acc_addr``/``acc_pc`` are per-access features ``(n, S)`` /
        ``(n, S_pc)``. Each access is encoded once and keyed; layer 0's input
        rows and QKV codes are gathered from the :meth:`input_map` by (key,
        window position), and the rest of the trunk runs through the generic
        ops. Returns ``(len(starts), C_out)`` intp, C-contiguous: row ``i``
        is the head code row :meth:`predict_proba` reaches for that window.
        """
        t = self.model_config.history_len
        ca = self.addr_table.n_subspaces
        key_codes = np.empty((len(acc_addr), ca + self.pc_table.n_subspaces), dtype=np.intp)
        key_codes[:, :ca] = self.addr_table.pq.encode(acc_addr)
        key_codes[:, ca:] = self.pc_table.pq.encode(acc_pc)
        m, bases = self.input_bases(key_view(key_codes).tolist())
        pos = np.arange(t)
        idx = np.take(bases, np.add.outer(starts, pos)) + pos  # (k, T) flat map rows
        h = m.rows.take(idx, 0)
        codes = m.codes.take(idx.reshape(-1), 1).T  # (k·T, C), as pq.encode lays it out
        for layer in self.layers:
            h = layer.query(h, codes)
            codes = None  # later layers encode their own input
        return np.ascontiguousarray(self.head_table.pq.encode(h.mean(axis=-2)))

    # ------------------------------------------------------------------ query
    def embed(self, x_addr: np.ndarray, x_pc: np.ndarray) -> np.ndarray:
        """Input embedding ``addr_table(x_addr) + pc_table(x_pc)``, any leading shape.

        Row-local and position-free (positional encoding is added after it),
        so an access's embedding has the same bits in every window that
        holds it.
        """
        return self.addr_table.query(x_addr) + self.pc_table.query(x_pc)

    def _pooled(self, h: np.ndarray) -> np.ndarray:
        """Embedded ``(B, T, D)`` windows -> pooled ``(B, D)`` head inputs."""
        h = self.ln_in.query(self.pos.apply_inference(h))
        for layer in self.layers:
            h = layer.query(h)
        return h.mean(axis=-2)

    def query_logits(self, x_addr: np.ndarray, x_pc: np.ndarray) -> np.ndarray:
        return self.head_table.query(self._pooled(self.embed(x_addr, x_pc)))

    def query(self, x_addr: np.ndarray, x_pc: np.ndarray) -> np.ndarray:
        """Delta-bitmap probabilities via the sigmoid LUT."""
        return self.sigmoid.query(self.query_logits(x_addr, x_pc))

    def fast_path(self):
        """The cached single-query plan (built lazily, geometry-bound).

        See :mod:`repro.tabularization.fastpath`: preallocated scratch for
        every site of the hierarchy, bit-identical to :meth:`query` on one
        ``(T, S)`` window. Serving flush paths call this once per installed
        model; the plan is not thread-safe (buffers are reused per call).
        """
        fp = getattr(self, "_fast_path", None)
        if fp is None:
            from repro.tabularization.fastpath import SingleQueryFastPath

            fp = self._fast_path = SingleQueryFastPath(self)
        return fp

    def query1(self, x_addr: np.ndarray, x_pc: np.ndarray) -> np.ndarray:
        """Single-query probabilities for one ``(T, S)`` history window.

        Accepts ``(T, S)`` or the generic ``(1, T, S)`` shape; returns
        ``(bitmap_size,)``. Bit-identical to ``query(x[None])[0]`` — pinned
        by ``tests/test_fastpath.py`` and the serving-conformance matrix.
        """
        return self.fast_path().query1(x_addr, x_pc)

    def predict_proba(
        self,
        x_addr: np.ndarray,
        x_pc: np.ndarray,
        batch_size: int = 512,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched query — same interface as the NN predictors.

        ``out``, when given, must be ``(n, bitmap_size)`` and receives the
        probabilities in place — the streaming micro-batcher passes its
        preallocated response buffer here so the steady-state serving loop
        allocates nothing per flush. Per-row results are identical whatever
        the batch split (every table lookup, LayerNorm and pooling operates
        row-locally), which the streaming/batch equivalence tests pin down.

        A call of more than one ``batch_size`` chunk spreads its rows over
        the :mod:`~repro.tabularization.rowpool` workers, one BLAS thread
        each, in ``TASK_ROWS``-row tasks. Worker ``j`` of ``m`` runs tasks
        ``j, j + m, …``, where ``m = min(workers, batch_size // TASK_ROWS)``,
        so at most ``batch_size`` rows are in flight, as in the sequential
        loop. It fans out only when ``m >= 2``. A call that fits in one
        chunk (every streaming, multistream and sharded flush) and a host
        with no pool run in the calling thread. Rows are row-local, so
        the result is bit for bit the same either way.
        """
        n = x_addr.shape[0]
        if out is None:
            out = np.empty((n, self.model_config.bitmap_size), dtype=np.float64)
        elif out.shape != (n, self.model_config.bitmap_size):
            raise ValueError(
                f"out must have shape {(n, self.model_config.bitmap_size)}, got {out.shape}"
            )
        self._chunks(
            n, batch_size,
            lambda s, e: self.embed(x_addr[s:e], x_pc[s:e]),
            lambda s, e, codes: self.head_proba(codes, out[s:e]),
        )
        return out

    def predict_head_codes(
        self, acc_addr: np.ndarray, acc_pc: np.ndarray, batch_size: int = 512
    ) -> np.ndarray:
        """Head code rows of every full window over a run of accesses.

        ``acc_addr``/``acc_pc`` are per-access features ``(n, S)`` /
        ``(n, S_pc)``. Each access is embedded once and the ``n − T + 1``
        windows are sliding views of that embedding, which gives the same bits
        as embedding every window (:meth:`embed` is row-local). Returns the
        ``(n − T + 1, C_out)`` head codes, row ``i`` for the window ending at
        access ``i + T − 1``; ``head_proba`` of a row equals that window's
        :meth:`predict_proba` row. Chunks and pooling as in
        :meth:`predict_proba`.
        """
        t = self.model_config.history_len
        n = max(acc_addr.shape[0] - t + 1, 0)
        codes = np.empty((n, self.head_table.n_subspaces), dtype=np.intp)
        if n == 0:
            return codes
        emb = self.embed(acc_addr, acc_pc)  # (n + T - 1, D)
        windows = np.lib.stride_tricks.sliding_window_view(emb, t, axis=0).transpose(0, 2, 1)

        def keep(s, e, chunk):
            codes[s:e] = chunk

        self._chunks(n, batch_size, lambda s, e: windows[s:e], keep)
        return codes

    def head_proba(self, codes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Probabilities of given ``(n, C_out)`` head code rows: gather, sum, sigmoid LUT."""
        logits = lookup_aggregate(self.head_table.table, codes)
        if out is None:
            out = np.empty_like(logits)
        idx = np.empty(logits.shape, dtype=np.int64)
        return self.sigmoid.query_into(logits, np.empty_like(logits), idx, out)

    def _chunks(self, n, batch_size, windows, finish):
        """Run the trunk to head codes over ``n`` rows, ``batch_size`` at a time.

        ``windows(s, e)`` gives the embedded ``(e − s, T, D)`` windows of rows
        ``s:e`` and ``finish(s, e, codes)`` takes their head codes. A call of
        more than one ``batch_size`` chunk spreads its rows over the
        :mod:`~repro.tabularization.rowpool` workers (see :meth:`predict_proba`).
        """
        task = rowpool.TASK_ROWS
        m = min(rowpool.workers(), batch_size // task) if n > batch_size >= 2 * task else 0
        if m >= 2:
            rowpool.run(lambda j: self._run_chunks(n, windows, finish, j * task, m * task, task), m)
        else:
            self._run_chunks(n, windows, finish, 0, batch_size, batch_size)

    def _run_chunks(self, n, windows, finish, start, step, rows):
        """The ``rows``-row chunks at ``start``, ``start + step``, … of :meth:`_chunks`."""
        head = self.head_table.pq
        for s in range(start, n, step):
            e = min(s + rows, n)
            finish(s, e, head.encode(self._pooled(windows(s, e))))

    def layer_outputs(self, x_addr: np.ndarray, x_pc: np.ndarray) -> dict[str, np.ndarray]:
        """Named checkpoint activations (keys match ``trunk_activations``)."""
        acts: dict[str, np.ndarray] = {}
        h = self.ln_in.query(self.pos.apply_inference(self.embed(x_addr, x_pc)))
        acts["embed"] = h
        for i, layer in enumerate(self.layers):
            a = layer.msa.query(h)
            acts[f"enc{i}/attn_out"] = a
            h1 = layer.ln1.query(h + a)
            acts[f"enc{i}/post_ln1"] = h1
            f = layer.ffn2.query(np.maximum(layer.ffn1.query(h1), 0.0))
            acts[f"enc{i}/ffn_out"] = f
            h = layer.ln2.query(h1 + f)
            acts[f"enc{i}/post_ln2"] = h
        pooled = h.mean(axis=-2)
        acts["pooled"] = pooled
        acts["logits"] = self.head_table.query(pooled)
        return acts

    # ------------------------------------------------------------------ costs
    #: component names whose lookups run in parallel (latency charges the max)
    PARALLEL_INPUTS = ("addr_table", "pc_table")

    def cost_components(self) -> list[tuple[str, object, int | None]]:
        """Every costed component as ``(name, component, seq_len)``.

        This is the **single enumeration** that :meth:`latency_cycles`,
        :meth:`storage_bits` and :meth:`arithmetic_ops` all walk, so the three
        cost metrics cannot drift apart (a past bug: latency counted
        ``addr_table`` but omitted ``pc_table`` while storage/ops counted
        both). ``seq_len`` is the sequence length the table is charged for
        (Eqs. 18/20); ``None`` marks direct-arithmetic components (LayerNorm,
        sigmoid LUT) that have fixed storage and constant latency but no
        kernel ops.
        """
        t = self.model_config.history_len
        comps: list[tuple[str, object, int | None]] = [
            ("addr_table", self.addr_table, t),
            ("pc_table", self.pc_table, t),
            ("ln_in", self.ln_in, None),
        ]
        for i, layer in enumerate(self.layers):
            comps += [
                (f"enc{i}/qkv", layer.msa.qkv, t),
                (f"enc{i}/attn", layer.msa.attn, t),
                (f"enc{i}/out", layer.msa.out, t),
                (f"enc{i}/ln1", layer.ln1, None),
                (f"enc{i}/ln2", layer.ln2, None),
                (f"enc{i}/ffn1", layer.ffn1, t),
                (f"enc{i}/ffn2", layer.ffn2, t),
            ]
        comps += [
            ("head_table", self.head_table, 1),
            ("sigmoid", self.sigmoid, None),
        ]
        return comps

    def latency_cycles(self) -> float:
        """Eq. 22 with L_ln / L_sigma constants from this module.

        The two input embedding tables are independent lookups into separate
        SRAMs, so they run in parallel and the critical path charges
        ``max(addr_table, pc_table)`` — the same treatment
        :func:`repro.prefetch.cost_model.nn_systolic_latency` gives the two NN
        input projections. See DESIGN.md "Known deviations".
        """
        lat = 0.0
        parallel_inputs: list[float] = []
        for name, comp, seq_len in self.cost_components():
            if name in self.PARALLEL_INPUTS:
                parallel_inputs.append(comp.latency_cycles())
            elif seq_len is None:
                lat += LATENCY_SIGMOID if comp is self.sigmoid else LATENCY_LAYERNORM
            else:
                lat += comp.latency_cycles()
        return lat + max(parallel_inputs)

    def storage_bits(self) -> float:
        """Eq. 23 summed over the actual components."""
        d = self.table_config.data_bits
        total = 0.0
        for _, comp, seq_len in self.cost_components():
            if seq_len is None:
                total += comp.storage_bits  # fixed-size property (LN, sigmoid)
            else:
                total += comp.storage_bits(seq_len, d)
        return total

    def storage_bytes(self) -> float:
        return self.storage_bits() / 8.0

    def arithmetic_ops(self) -> float:
        """Kernel arithmetic ops (Eqs. 20–21 summed; LN/residuals excluded)."""
        return sum(
            comp.ops(seq_len)
            for _, comp, seq_len in self.cost_components()
            if seq_len is not None
        )
