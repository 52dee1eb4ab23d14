"""Small differentiable logit models with exact gradients and Jacobians.

Two model kinds:

  bigram-softmax   logits h(x; theta) = row of a V x V table indexed by the
                   last context token; linear in theta.
  mlp-1hidden      h(x; theta) = W2 tanh(W1 phi(x) + b1) + b2 where phi(x)
                   concatenates one-hot encodings of the last context_len
                   tokens (missing positions encode as the zero block).

Parameters are flat 1-d float vectors; `param_layout` names the slices.
All gradients are manual backprop, exact to machine precision, and every
operation is deterministic (same inputs give bitwise identical outputs).
"""

import json
from dataclasses import dataclass, field

import numpy as np

BIGRAM = "bigram-softmax"
MLP = "mlp-1hidden"
PAD = -1


@dataclass(frozen=True)
class ModelSpec:
    """Architecture record: kind, vocabulary size, context length, width."""

    kind: str
    vocab_size: int
    context_len: int = 1
    hidden_dim: int = 0

    def __post_init__(self):
        if self.kind not in (BIGRAM, MLP):
            raise ValueError(f"unknown model kind: {self.kind!r}")
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        if self.context_len < 1:
            raise ValueError("context_len must be at least 1")
        if self.kind == MLP and self.hidden_dim < 1:
            raise ValueError("mlp-1hidden requires hidden_dim >= 1")


def param_layout(spec):
    """Named slices mapping parameter blocks to coordinate ranges.

    The ranges are disjoint and cover [0, param_count).
    """
    V = spec.vocab_size
    if spec.kind == BIGRAM:
        return {"table": (0, V * V)}
    D = V * spec.context_len
    Hd = spec.hidden_dim
    i = 0
    layout = {}
    for name, size in (("W1", Hd * D), ("b1", Hd), ("W2", V * Hd), ("b2", V)):
        layout[name] = (i, i + size)
        i += size
    return layout


def param_count(spec):
    """Total number of parameters for the given spec."""
    return max(stop for _, stop in param_layout(spec).values())


def init_params(spec, seed):
    """Seeded uniform(-0.1, 0.1) initialization of the flat parameter vector."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.1, 0.1, param_count(spec))


def _unpack_mlp(spec, theta):
    """Views (W1, b1, W2, b2) of a parameter vector.  For a stack of them
    (theta of shape (..., dim)) every view gains the leading axes, and the
    biases a unit axis before their last, so that they broadcast against
    a batch of rows as a 1-d bias does."""
    V, D, Hd = spec.vocab_size, spec.vocab_size * spec.context_len, spec.hidden_dim
    lay = param_layout(spec)
    if theta.ndim > 1:
        lead = theta.shape[:-1]
        W1, b1, W2, b2 = (theta[..., i:j] for i, j in lay.values())
        return (W1.reshape(lead + (Hd, D)), b1[..., None, :],
                W2.reshape(lead + (V, Hd)), b2[..., None, :])
    # The stacked form above also serves a 1-d theta, with the same logits,
    # but slower: plain slices unpack in 3.6 us against 5.3 us, and an MLP
    # _forward at 224 x 32 rows takes 82 us against 85 us (timeit, min of
    # alternating repeats, V = 32, one BLAS thread).
    W1 = theta[lay["W1"][0]:lay["W1"][1]].reshape(Hd, D)
    b1 = theta[lay["b1"][0]:lay["b1"][1]]
    W2 = theta[lay["W2"][0]:lay["W2"][1]].reshape(V, Hd)
    b2 = theta[lay["b2"][0]:lay["b2"][1]]
    return W1, b1, W2, b2


@dataclass
class TokenDataset:
    """A set of (context, next-token) pairs expanded from token sequences.

    contexts is an (n, context_len) int array, left-padded with -1 where a
    sequence prefix is shorter than context_len; nexts is the (n,) array of
    target tokens.  sequences retains the source sequences when the
    dataset was built from them (needed for sequence-level losses and for
    greedy decoding metrics).  base_logprob, when set, holds the npo base
    model's log-probability of each sequence (losses.npo_pairs computes it
    once and the batches drawn from that dataset gather it).

    The model inputs are a property of the dataset: the first use with a
    ModelSpec checks every token id and encodes the pairs (`inputs`), and
    the dataset keeps the encoding, so the pairs must not be modified
    after it is first used.
    """

    contexts: np.ndarray
    nexts: np.ndarray
    sequences: list = field(default_factory=list)
    base_logprob: np.ndarray = None
    _prepared: tuple = field(default=None, init=False, repr=False)
    _weights: tuple = field(default=None, init=False, repr=False)

    def __len__(self):
        return len(self.nexts)

    def inputs(self, spec):
        """One-hot model inputs of the pairs for spec (see `_encode`).

        The first call with a spec checks every context and next-token id
        and encodes; later calls, and the batches `subset` takes, reuse
        that encoding.
        """
        p = self._prepared
        if p is None or (p[0] is not spec and p[0] != spec):
            p = self._prepared = (spec, _encode(spec, self.contexts, self.nexts))
        return p[1]

    def last_token_weights(self, spec):
        """(rows, weights) of the bigram curvature: the distinct last
        context tokens in ascending order, and as a column the share of
        the pairs each one ends.  Computed once."""
        self.inputs(spec)
        if self._weights is None:
            counts = np.bincount(self.contexts[:, -1], minlength=spec.vocab_size)
            rows = np.flatnonzero(counts)
            self._weights = (rows, (counts[rows] / len(self))[:, None])
        return self._weights

    def subset(self, rows, seqs=None):
        """Pairs `rows` (an integer index array), with their encoded inputs
        gathered rather than re-encoded.  Sequences are not subset unless
        `seqs` (an index array) names the ones the rows come from; those
        are kept, with their base log-probabilities when the dataset has
        them."""
        keep = seqs is not None and self.base_logprob is not None
        out = TokenDataset(self.contexts[rows], self.nexts[rows],
                           [] if seqs is None else [self.sequences[i] for i in seqs],
                           self.base_logprob[seqs] if keep else None)
        if self._prepared is not None:
            out._prepared = (self._prepared[0], self._prepared[1][rows])
        return out


def dataset_from_sequences(sequences, context_len):
    """Expand token sequences into all (context, next) pairs.

    Each sequence s contributes pairs (s[max(0, t-context_len):t], s[t])
    for t = 1 .. len(s)-1, left-padded with -1 to context_len.
    """
    ctx, nxt = [], []
    seqs = [np.asarray(s, dtype=int) for s in sequences]
    for s in seqs:
        if len(s) < 2:
            raise ValueError("sequences must have length >= 2")
        for t in range(1, len(s)):
            c = list(s[max(0, t - context_len):t])
            c = [PAD] * (context_len - len(c)) + c
            ctx.append(c)
            nxt.append(int(s[t]))
    contexts = np.array(ctx, dtype=int).reshape(len(nxt), context_len)
    return TokenDataset(contexts, np.array(nxt, dtype=int), seqs)


def load_jsonl_dataset(path, context_len):
    """Load sequences from a JSON-lines file of {"tokens": [int, ...]} records.

    Raises ValueError naming path:line for a line that is not valid JSON,
    a record that is not an object, or one whose tokens are not a list of
    at least 2 token ids (booleans and floats are not ids), and naming the
    path for a file with no sequences.
    """
    seqs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: record is not a JSON object")
            if "tokens" not in rec:
                raise ValueError(f"{path}:{lineno}: record has no 'tokens' field")
            tokens = rec["tokens"]
            if not (isinstance(tokens, list)
                    and all(type(x) is int and 0 <= x < 2 ** 63 for x in tokens)):
                raise ValueError(f"{path}:{lineno}: 'tokens' must be a list of "
                                 f"nonnegative integer token ids")
            if len(tokens) < 2:
                raise ValueError(f"{path}:{lineno}: a sequence needs at least 2 tokens")
            seqs.append(tokens)
    if not seqs:
        raise ValueError(f"{path}: no sequences")
    return dataset_from_sequences(seqs, context_len)


def _encode(spec, contexts, nexts=()):
    """The one check and encoding of token ids behind every model input.

    Raises ValueError unless every context id is a token or PAD and every
    next id a token.  Returns the one-hot input matrix: for the MLP the
    concatenated encoding (n, V*context_len) of the context positions, a
    PAD slot or a narrower context's missing left positions staying zero;
    for the bigram the (n, V) encoding of the last context token, which
    must not be PAD.
    """
    contexts = np.asarray(contexts, dtype=int)
    nexts = np.asarray(nexts, dtype=int)
    V = spec.vocab_size
    if (contexts.size and (contexts.max() >= V or contexts.min() < PAD)) or \
            (nexts.size and (nexts.max() >= V or nexts.min() < 0)):
        raise ValueError(f"token id out of vocabulary (V={V})")
    n, width = contexts.shape
    if spec.kind == BIGRAM:
        last = contexts[:, -1]
        if last.size and last.min() < 0:
            raise ValueError("bigram model requires a non-empty context")
        X = np.zeros((n, V))
        X[np.arange(n), last] = 1.0
        return X
    offset = spec.context_len - width
    if offset < 0:
        raise ValueError("context wider than the model's context_len")
    X = np.zeros((n, V * spec.context_len))
    for j in range(width):
        t = contexts[:, j]
        m = t >= 0
        X[np.nonzero(m)[0], (offset + j) * V + t[m]] = 1.0
    return X


def model_inputs(spec, data):
    """One-hot inputs of a TokenDataset (its kept encoding) or of an
    (n, width) array of raw context ids (checked and encoded now)."""
    if isinstance(data, TokenDataset):
        return data.inputs(spec)
    return _encode(spec, data)


def _forward(spec, theta, X):
    """Batch logits of the one-hot inputs X plus the auxiliary state the
    backward pass needs.

    Returns (H, aux): H is (n, V); aux is X for the bigram model and
    (X, hidden activations) for the MLP.  The bigram logits X @ table are
    the gathered table rows bit for bit, except that a -0.0 entry reads
    +0.0.  A stack of parameter vectors, theta of shape (..., dim), gives
    H of shape (..., n, V), each slice bit for bit its row's logits.
    """
    if spec.kind == BIGRAM:
        V = spec.vocab_size
        return X @ theta.reshape(theta.shape[:-1] + (V, V)), X
    W1, b1, W2, b2 = _unpack_mlp(spec, theta)
    A = np.tanh(X @ W1.swapaxes(-1, -2) + b1)
    return A @ W2.swapaxes(-1, -2) + b2, (X, A)


def batch_logits(spec, theta, data):
    """Logit matrix (n, V) for a TokenDataset or an array of contexts."""
    H, _ = _forward(spec, theta, model_inputs(spec, data))
    return H


def logits(spec, theta, x):
    """Logit vector (V,) for a single context x (list of token ids)."""
    x = np.asarray(x, dtype=int).reshape(1, -1)
    return batch_logits(spec, theta, x)[0]


def grad_from_logit_grads(spec, theta, G, aux):
    """Backprop: gradient w.r.t. theta of sum_n <G[n], h(x_n; theta)>.

    G is (n, V) and aux the state `_forward` returned for the same inputs
    and theta.  The bigram gradient X^T G equals np.add.at of G into the
    table rows bit for bit.  For a stack of parameter vectors (theta of
    shape (..., dim), G of shape (..., n, V)) it returns one gradient per
    row, each bit for bit that row's own.
    """
    G = np.asarray(G, dtype=float)
    flat = G.shape[:-2] + (-1,)
    if spec.kind == BIGRAM:
        return (aux.T @ G).reshape(flat)
    X, A = aux
    _, _, W2, _ = _unpack_mlp(spec, theta)
    dW2 = G.swapaxes(-1, -2) @ A
    db2 = G.sum(axis=-2)
    dZ = (G @ W2) * (1.0 - A * A)
    dW1 = dZ.swapaxes(-1, -2) @ X
    db1 = dZ.sum(axis=-2)
    return np.concatenate([dW1.reshape(flat), db1, dW2.reshape(flat), db2],
                          axis=-1)


def logit_jacobian(spec, theta, x):
    """Exact Jacobian d h(x; theta) / d theta, shape (dim(theta), V).

    For the bigram model this is a 0/1 selection matrix: one identity
    block on the active table row, zeros elsewhere.
    """
    x = np.asarray(x, dtype=int).reshape(1, -1)
    X = model_inputs(spec, x)
    V = spec.vocab_size
    dim = param_count(spec)
    J = np.zeros((dim, V))
    if spec.kind == BIGRAM:
        row = int(x[0, -1])
        for j in range(V):
            J[row * V + j, j] = 1.0
        return J
    # Backprop of each logit coordinate: column j is the gradient of h_j.
    _, aux = _forward(spec, theta, X)
    for j in range(V):
        G = np.zeros((1, V))
        G[0, j] = 1.0
        J[:, j] = grad_from_logit_grads(spec, theta, G, aux)
    return J


def logit_jvp(spec, theta, data, v):
    """Directional derivative of the batch logits along the parameter
    direction v: returns (n, V) with rows J(x_n)^T v.

    Exact forward-mode product; avoids materializing dense Jacobians.
    """
    X = model_inputs(spec, data)
    V = spec.vocab_size
    v = np.asarray(v, dtype=float)
    if spec.kind == BIGRAM:
        return X @ v.reshape(V, V)
    W1, b1, W2, b2 = _unpack_mlp(spec, theta)
    dW1, db1, dW2, db2 = _unpack_mlp(spec, v)
    A = np.tanh(X @ W1.T + b1)
    dZ = X @ dW1.T + db1
    dA = (1.0 - A * A) * dZ
    return A @ dW2.T + dA @ W2.T + db2


def _exp_rows(H):
    """Z = h - max h, E = exp(Z) and S = sum_j E_j (kept as a column) per
    row, over the last axis of H: the one exp pass behind every
    softmax-based row quantity.  The row max is taken down the columns of
    a contiguous transposed copy, which numpy reduces faster than along
    short rows; max is exact, so only the sign of a max that ties +0.0
    with -0.0 can differ, and Z - log S, the only use of Z, then does not
    (such a row has S >= 2)."""
    V = H.shape[-1]
    m = np.ascontiguousarray(H.reshape(-1, V).T).max(axis=0)
    Z = H - m.reshape(H.shape[:-1] + (1,))
    E = np.exp(Z)
    return Z, E, E.sum(axis=-1, keepdims=True)


def log_softmax_rows(H):
    """Row-wise log softmax, stabilized by max subtraction."""
    Z, _, S = _exp_rows(H)
    return Z - np.log(S)


def softmax_rows(H):
    """Row-wise softmax, stabilized by max subtraction."""
    _, E, S = _exp_rows(H)
    return E / S


def sequence_pairs(spec, sequences):
    """(context, next) pairs of whole sequences for this model, plus the
    start index of each sequence's pairs.

    sequences is a TokenDataset expanded from whole sequences at the
    model's context_len (used as is) or a list of token sequences
    (expanded once here).
    """
    ds = sequences
    if not (isinstance(ds, TokenDataset) and ds.sequences
            and ds.contexts.shape[1] == spec.context_len
            and len(ds) == sum(len(s) - 1 for s in ds.sequences)):
        seqs = ds.sequences if isinstance(ds, TokenDataset) else list(ds)
        if not seqs:
            raise ValueError("need a batch carrying whole sequences")
        ds = dataset_from_sequences(seqs, spec.context_len)
    lens = [len(s) - 1 for s in ds.sequences]
    return ds, np.cumsum([0] + lens[:-1])


def segment_logprob(H, ds, starts):
    """Per-sequence sums of log softmax(H)_next over the pairs of
    `sequence_pairs` (logits H of all pairs, in order; a stack of logit
    matrices gives one row of sums per matrix)."""
    L = log_softmax_rows(H)
    return np.add.reduceat(L[..., np.arange(len(ds.nexts)), ds.nexts], starts,
                           axis=-1)


def sequence_logprob(spec, theta, s):
    """Sum over positions t >= 1 of log softmax(h(s_{<t}))_{s_t}.

    s is one token sequence (returns a float) or a TokenDataset expanded
    from whole sequences (returns one sum per sequence, from one forward
    pass over all their pairs).
    """
    if isinstance(s, TokenDataset):
        ds, starts = sequence_pairs(spec, s)
        return segment_logprob(batch_logits(spec, theta, ds), ds, starts)
    s = np.asarray(s, dtype=int)
    if len(s) < 2:
        raise ValueError("sequence must have length >= 2")
    ds = dataset_from_sequences([s], spec.context_len)
    L = log_softmax_rows(batch_logits(spec, theta, ds))
    return float(L[np.arange(len(ds.nexts)), ds.nexts].sum())


def greedy_continuation(spec, theta, prompt, n_steps):
    """Greedy decode: repeatedly append argmax-logit tokens to the prompt.

    Ties break toward the lowest token id (np.argmax convention), so the
    decode is fully deterministic.
    """
    cur = [int(t) for t in prompt]
    out = []
    for _ in range(n_steps):
        c = cur[-spec.context_len:]
        c = [PAD] * (spec.context_len - len(c)) + c
        h = logits(spec, theta, c)
        nxt = int(np.argmax(h))
        out.append(nxt)
        cur.append(nxt)
    return out
