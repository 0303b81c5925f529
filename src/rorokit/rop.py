"""Reading-order prediction with a global pair-scoring head.

The encoder turns (token, box) pairs into contextual states, mean pooling
maps token states onto task elements (segments or words), and a pointer-style
head scores every ordered element pair in one shot. Training minimizes a
ranking loss that pushes non-successor scores below zero and successor scores
above zero, so decoding is a per-pair sign test plus an acyclic repair.
Everything is float64; numpy's BLAS may use several threads, and for a given
thread count the same corpus, config, and seed always produce the same
parameters.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .autodiff import AutodiffError, Tensor, as_tensor, linear
from .layout import (
    BBox,
    Corpus,
    Document,
    check_field_types,
    collapse_word_relation,
    derive_word_level,
)
from .metrics import corpus_f1
from .nn import (
    AttentionBias,
    CheckpointError,
    EncoderConfig,
    Padding,
    ParameterStore,
    add_params,
    encoder_forward,
    encoder_param_table,
    init_encoder_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .relations import Relation, is_acyclic

TASK_LEVELS = ("segment", "word")

# Default element budgets per task level, used when max_elements is 0.
DEFAULT_MAX_ELEMENTS = {"segment": 256, "word": 512}

# One document's element spans: token ranges that tile its tokens in order.
Spans = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class ROPConfig:
    """Task framing plus optimization knobs for the pair-scoring predictor.

    The rest is fixed: tokens embed their segment's box (``tokens_for_document``)
    and the loss counts the diagonal as negative (``gp_loss``).
    """

    task_level: str = "segment"
    max_elements: int = 0  # 0 means the per-level default
    threshold: float = 0.0
    head_dim: int = 128
    learning_rate: float = 1e-3
    epochs: int = 200
    patience: int = 20
    batch_size: int = 20
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.task_level not in TASK_LEVELS:
            raise ValueError(f"unknown task_level {self.task_level!r}")
        if self.max_elements < 0:
            raise ValueError("max_elements must be non-negative")
        if self.head_dim < 1:
            raise ValueError("head_dim must be positive")
        if self.epochs < 1 or self.patience < 1 or self.batch_size < 1:
            raise ValueError("epochs, patience, and batch_size must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    @property
    def effective_max_elements(self) -> int:
        if self.max_elements > 0:
            return self.max_elements
        return DEFAULT_MAX_ELEMENTS[self.task_level]


# ---------------------------------------------------------------------------
# Document -> model inputs


def tokens_for_document(
    doc: Document, task_level: str = "segment"
) -> tuple[list[str], list[BBox], list[tuple[int, int]]]:
    """Flatten a document into (texts, boxes, element spans).

    Tokens are the document's words in segment order, each embedding its
    segment's box; ``task_level`` selects whether spans group tokens by
    segment or leave them one per word.
    """
    if task_level not in TASK_LEVELS:
        raise ValueError(f"unknown task_level {task_level!r}")
    words = doc.all_words()
    texts = [w.text for w in words]
    boxes = [doc.segments[k].box for k in doc.word_segment_index()]
    if task_level == "segment":
        spans = doc.word_spans()
    else:
        spans = [(i, i + 1) for i in range(len(words))]
    return texts, boxes, spans


def target_relation(doc: Document, task_level: str = "segment") -> Relation:
    """The supervision relation at the requested granularity."""
    if doc.isdr is None:
        raise ValueError(f"document {doc.id} has no succession annotation")
    if task_level == "segment":
        return doc.isdr
    if task_level == "word":
        return derive_word_level(doc)
    raise ValueError(f"unknown task_level {task_level!r}")


def check_span_tiling(spans: Sequence[tuple[int, int]]) -> int:
    """Validate ordered, disjoint, gap-free spans; return the token count."""
    cursor = 0
    for start, end in spans:
        if start != cursor or end <= start:
            raise ValueError(f"span ({start}, {end}) breaks the token tiling")
        cursor = end
    return cursor


def split_batch(batch: list, max_tokens: int) -> list[list]:
    """Cut a batch of ``((texts, boxes, spans), ...)`` examples into sub-batches.

    The sub-batches are consecutive runs of documents, each run as one
    forward, so that none is larger than one ``max_tokens`` document: it
    has at most ``max_tokens`` tokens, and B documents of at most ``width``
    tokens pad their attention to no more cells than that document's,
    ``B * width**2 <= max_tokens**2``. A larger document goes alone. This is
    the only place a batch is cut.
    """
    parts: list[list] = []
    rows = width = 0
    for example in batch:
        n = len(example[0][0])
        wider = max(width, n)
        if not parts or rows + n > max_tokens or (
            (len(parts[-1]) + 1) * wider * wider > max_tokens * max_tokens
        ):
            parts.append([])
            rows, wider = 0, n
        parts[-1].append(example)
        rows, width = rows + n, wider
    return parts


def pool_elements(
    states: Tensor, spans: Spans, sizes: Optional[Sequence[int]] = None
) -> Tensor:
    """Mean-pool token states into element states.

    Spans must be non-empty and tile the token axis exactly, in order. For
    documents packed row-wise in ``states`` they are the documents' spans
    one after another, each shifted by its document's first row, and
    ``sizes`` gives each document's element count; None means one document.
    Pooling is one batched matmul of the documents' constant (elements,
    tokens) pool matrices with their token states, padded only when the
    documents differ in element or token count (see ``nn.Padding``). A pack
    of one is bit-identical to the dense per-document matmul.
    """
    states = as_tensor(states)
    if states.ndim != 2:
        raise ValueError(f"states must be (tokens, dim), got {states.shape}")
    n_tokens = states.shape[0]
    covered = check_span_tiling(spans)
    if covered != n_tokens:
        raise ValueError(f"spans cover {covered} tokens, states have {n_tokens}")
    sizes = [len(spans)] if sizes is None else list(sizes)
    if sum(sizes) != len(spans) or min(sizes) < 1:
        raise ValueError(f"sizes {sizes} do not split {len(spans)} spans")
    firsts = list(itertools.accumulate(sizes, initial=0))[:-1]  # first elements
    doc_tokens = [spans[f + n - 1][1] - spans[f][0] for f, n in zip(firsts, sizes)]
    elements, tokens = Padding(sizes), Padding(doc_tokens)
    (_, n_elements), (_, width) = elements.shape, tokens.shape
    # Packed element e, of document b whose first element is f and first
    # token row t0, is row b * n_elements + e - f of the (B * n_elements,
    # width) pool; its token row t is column t - t0.
    lengths = np.array([end - start for start, end in spans])
    shift = [(b * n_elements - f) * width - spans[f][0] for b, f in enumerate(firsts)]
    starts = np.arange(len(spans)) * width + np.repeat(shift, sizes)
    pool = np.zeros(elements.shape + (width,))
    pool.reshape(-1)[np.repeat(starts, lengths) + np.arange(n_tokens)] = np.repeat(
        1.0 / lengths, lengths
    )
    out = Tensor(
        elements.unpad(pool @ tokens.pad(states.data)), states.requires_grad, (states,)
    )

    def backward(grad):
        if states.requires_grad:
            pooled_grad = pool.transpose(0, 2, 1) @ elements.pad(grad)
            states._accumulate(tokens.unpad(pooled_grad))

    out._backward = backward
    return out


# ---------------------------------------------------------------------------
# Pair scoring head


@dataclass
class GlobalPointerHead:
    """Scores every ordered element pair as (Wq h_i + bq) . (Wk h_j + bk)."""

    store: ParameterStore

    # (name, size fields, init) of each parameter (see ``nn.add_params``).
    PARAM_TABLE = (
        ("gp.Wq", ("model_dim", "head_dim"), "normal"), ("gp.bq", ("head_dim",), np.zeros),
        ("gp.Wk", ("model_dim", "head_dim"), "normal"), ("gp.bk", ("head_dim",), np.zeros),
    )

    @classmethod
    def create(
        cls,
        model_dim: int,
        head_dim: int,
        store: ParameterStore,
        seed: Union[int, np.random.Generator] = 0,
    ) -> "GlobalPointerHead":
        """The head's parameters, drawn in the order of ``PARAM_TABLE``."""
        sizes = {"model_dim": model_dim, "head_dim": head_dim}
        add_params(store, cls.PARAM_TABLE, sizes, np.random.default_rng(seed), "rop")
        return cls(store)

    def scores(self, pooled: Tensor, sizes: Optional[Sequence[int]] = None) -> Tensor:
        """Element states -> every document's pair scores, as one (B, n, n)
        node after the two projections.

        ``sizes`` gives the element count of each document packed row-wise
        in ``pooled``; None means one document. Document b's (n_b, n_b)
        matrix is ``[b, :n_b, :n_b]``, as ``nn.Padding(sizes, pairs=True)``
        lays it out; the other cells pair a zero query or key row, so they
        are zero and their gradient reaches no document. All documents'
        scores are one batched matmul of their queries and keys, padded only
        when the documents differ in size; a pack of one is bit-identical to
        the per-document composite.
        """
        q = linear(pooled, self.store["gp.Wq"], self.store["gp.bq"])
        k = linear(pooled, self.store["gp.Wk"], self.store["gp.bk"])
        sizes = [q.shape[0]] if sizes is None else sizes
        if sum(sizes) != q.shape[0]:
            raise ValueError(
                f"sizes cover {sum(sizes)} elements, states have {q.shape[0]}"
            )
        rows = Padding(sizes)
        qs, ks = rows.pad(q.data), rows.pad(k.data)
        needs_grad = q.requires_grad or k.requires_grad
        out = Tensor(qs @ ks.transpose(0, 2, 1), needs_grad, (q, k))

        def backward(grad):
            if q.requires_grad:
                q._accumulate(rows.unpad(grad @ ks))
            if k.requires_grad:
                k._accumulate(rows.unpad(grad.transpose(0, 2, 1) @ qs))

        out._backward = backward
        return out


def gp_loss(scores: Tensor, labels: Union[Relation, Sequence[Relation]]) -> Tensor:
    """Class-imbalance-aware pair ranking loss with a closed-form gradient.

        loss = log(1 + sum over non-pairs of e^{s})
             + log(1 + sum over pairs of e^{-s})

    Non-pairs run over all ordered (i, j) not labeled, the diagonal
    included. The implicit 1 inside each log acts as a zero-score anchor,
    so both terms vanish only when every labeled score is far above zero
    and every other score far below.

    ``labels`` holds one relation per document and ``scores`` the documents'
    matrices in one (B, n, n) array, as ``GlobalPointerHead.scores`` gives
    them; the result is the mean loss over documents. A single relation
    stands for one document, whose scores may also come as the (n, n)
    matrix itself. Both log-sum-exps are masked per-document reductions, so
    the cells outside each document's block take no part.
    """
    scores = as_tensor(scores)
    labels = [labels] if isinstance(labels, Relation) else list(labels)
    layout = Padding([rel.element_count for rel in labels], pairs=True)
    lone = len(labels) == 1 and scores.shape == layout.shape[1:]
    if scores.shape != layout.shape and not lone:
        raise ValueError(
            f"scores of shape {scores.shape} do not match the labels' "
            f"{layout.shape}"
        )
    s = scores.data.reshape(layout.shape)
    pos = np.zeros(s.shape, dtype=bool)
    cells = [(b, i, j) for b, rel in enumerate(labels) for i, j in rel.sorted_pairs()]
    pos[tuple(np.array(cells, dtype=np.intp).reshape(-1, 3).T)] = True
    neg = ~pos if layout.mask is None else layout.mask & ~pos
    # -inf outside each term's cells; exp turns them into exact zeros.
    x_neg = np.where(neg, s, -np.inf)
    x_pos = np.where(pos, -s, -np.inf)
    lse_neg, lse_pos = _logsumexp_with_zero(x_neg), _logsumexp_with_zero(x_pos)
    values = lse_neg + lse_pos
    if not np.isfinite(values).all():
        raise AutodiffError(f"non-finite pair loss: {values[~np.isfinite(values)][0]}")
    out = Tensor(sum(values.tolist()) / len(labels), scores.requires_grad, (scores,))

    def backward(grad):
        g = np.exp(x_neg - lse_neg[:, None, None])
        g -= np.exp(x_pos - lse_pos[:, None, None])
        scores._accumulate(grad / len(labels) * g.reshape(scores.shape))

    out._backward = backward
    return out


def _logsumexp_with_zero(x: np.ndarray) -> np.ndarray:
    """log(1 + sum(exp(x))) over the last two axes, overflow-safe.

    The implicit zero logit keeps the result nonnegative and lets it saturate
    smoothly to 0 when every value is strongly negative.
    """
    m = np.max(x, axis=(1, 2), initial=0.0)
    total = np.exp(x - m[:, None, None]).sum(axis=(1, 2))
    return m + np.log1p(np.expm1(-m) + total)


def decode(scores: np.ndarray, threshold: float = 0.0) -> Relation:
    """The off-diagonal pairs of the square float array ``scores`` that
    score above the threshold, repaired to be acyclic: taken in descending
    score, ties in ascending ``(i, j)``, each pair is kept unless its target
    already reaches its source through the pairs kept so far. So the result
    is acyclic and maximal (each dropped pair closes a cycle), and an
    acyclic prediction comes back unchanged.
    Dropping the fewest pairs is minimum feedback arc set, NP-hard (Karp
    1972), so this greedy is a heuristic and may drop more.
    """
    if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
        raise ValueError(f"scores must be square, got {scores.shape}")
    n = scores.shape[0]
    mask = scores > threshold
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    order = np.argsort(-scores[rows, cols], kind="stable")  # ties stay in (i, j) order
    reach = [1 << v for v in range(n)]  # bit u of reach[v]: v reaches u
    kept = [0] * n  # bit j of kept[i]: pair (i, j) kept
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        if not reach[j] >> i & 1:
            kept[i] |= 1 << j
            if not reach[i] >> j & 1:  # else nothing new is reachable
                gained, bit = reach[j], 1 << i
                for v in range(n):
                    if reach[v] & bit:
                        reach[v] |= gained
    return Relation.from_rows(kept)


# ---------------------------------------------------------------------------
# Model bundle


@dataclass
class ROPModel:
    """Encoder plus pointer head plus the task framing they were trained for."""

    encoder_config: EncoderConfig
    config: ROPConfig
    store: ParameterStore

    @classmethod
    def create(cls, encoder_config: EncoderConfig, config: ROPConfig, rng) -> "ROPModel":
        """Fresh parameters: the encoder's, then the head's, drawn from ``rng``."""
        store = init_encoder_params(encoder_config, rng)
        GlobalPointerHead.create(encoder_config.model_dim, config.head_dim, store, rng)
        return cls(encoder_config, config, store)

    def scores(
        self,
        inputs: Sequence[tuple[Sequence[str], Sequence[BBox], Spans]],
        bias: Optional[AttentionBias] = None,
    ) -> Tensor:
        """Encode the documents, biased by ``bias``, pool by span and score
        every pair.

        ``inputs`` holds each document's (texts, boxes, spans), the spans over
        its own tokens; a document whose texts, boxes and span coverage
        disagree raises ``ValueError`` naming its position. One forward runs
        over all the documents' tokens, however many: callers bound it by
        what they pack, as ``split_batch`` does. The result is
        ``GlobalPointerHead.scores``' (B, n, n) array.
        """
        texts, boxes, shifted, lengths, sizes = [], [], [], [], []
        for position, (doc_texts, doc_boxes, spans) in enumerate(inputs):
            n = check_span_tiling(spans)
            if not len(doc_texts) == len(doc_boxes) == n:
                raise ValueError(
                    f"document {position} has {len(doc_texts)} texts, "
                    f"{len(doc_boxes)} boxes and spans over {n} tokens"
                )
            shifted += [(start + len(texts), end + len(texts)) for start, end in spans]
            texts += doc_texts
            boxes += doc_boxes
            lengths.append(n)
            sizes.append(len(spans))
        states = encoder_forward(
            self.encoder_config, self.store, texts, boxes, bias, lengths
        )
        return GlobalPointerHead(self.store).scores(
            pool_elements(states, shifted, sizes), sizes
        )

    def decode_inputs(
        self,
        examples: list,
        bias: Optional[Callable[[list], Optional[AttentionBias]]] = None,
    ) -> list[Relation]:
        """Decoded relation of each ``((texts, boxes, spans), ...)`` example.

        The examples are scored one forward per group: consecutive runs of
        at most ``config.batch_size`` examples, each cut by ``split_batch``
        under the token budget, so that inference needs no more memory than
        a training step however many examples there are. ``bias``, when
        given, maps a group's examples to its attention bias. Packed scores
        may differ from one document's own in the last bits, so only a score
        within about 1e-14 of the threshold can decode differently.
        """
        budget = self.encoder_config.max_tokens
        size, threshold = self.config.batch_size, self.config.threshold
        relations = []
        for start in range(0, len(examples), size):
            for group in split_batch(examples[start : start + size], budget):
                inputs = [example[0] for example in group]
                group_bias = None if bias is None else bias(group)
                scores = self.scores(inputs, group_bias).data
                for block, (_, _, spans) in zip(scores, inputs):
                    n = len(spans)
                    relations.append(decode(block[:n, :n], threshold))
        return relations

    def predict(
        self, docs: Union[Document, Sequence[Document]]
    ) -> Union[Relation, list[Relation]]:
        """Decoded relation of one document, or one per document of a sequence
        (see ``decode_inputs``)."""
        one = isinstance(docs, Document)
        docs = [docs] if one else docs
        level = self.config.task_level
        examples = [(tokens_for_document(doc, level),) for doc in docs]
        relations = self.decode_inputs(examples)
        return relations[0] if one else relations

    def save(self, path) -> None:
        config = {"encoder": asdict(self.encoder_config), "rop": asdict(self.config)}
        save_checkpoint(path, config, self.store)

    @classmethod
    def load(cls, path) -> "ROPModel":
        """Read a checkpoint; its config sections must be valid, and its
        parameter names and shapes must match their parameter tables."""
        try:
            config, store = load_checkpoint(path)
            model = cls(
                _config_section(EncoderConfig, config, "encoder"),
                _config_section(ROPConfig, config, "rop"),
                store,
            )
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise json.JSONDecodeError(f"{path}: {exc.msg}", exc.doc, exc.pos) from None
        found = {name: list(t.shape) for name, t in store.items()}
        rows = itertools.chain(
            encoder_param_table(model.encoder_config), GlobalPointerHead.PARAM_TABLE
        )
        sizes = vars(model.encoder_config) | vars(model.config)
        # At most one row more than the checkpoint holds, whatever the config:
        # with one more, a listed name is absent from the checkpoint.
        needed = {
            name: [sizes[f] for f in fields]
            for name, fields, _ in itertools.islice(rows, len(found) + 1)
        }
        for name in [*needed, *sorted(found.keys() - needed.keys())]:
            if found.get(name) != needed.get(name):
                raise ValueError(
                    f"{path}: parameter {name!r} has shape "
                    f"{found.get(name, 'absent')} in the checkpoint, but its "
                    f"config needs {needed.get(name, 'absent')}"
                )
        return model


# ``rop`` fields that every format-3 checkpoint written before their
# retirement carries, each at the one value it ever took.
RETIRED_ROP_FIELDS = {"bbox_level": "segment", "include_diagonal_negatives": True}


def _config_section(cls, config: dict, name: str):
    """The checkpoint config's section ``name`` as a ``cls`` instance; a
    retired ``rop`` field is accepted at its one value and refused by name
    at any other."""
    if not isinstance(config.get(name), dict):
        raise CheckpointError(f"config has no {name!r} section")
    section = dict(config[name])
    retired = RETIRED_ROP_FIELDS if name == "rop" else {}
    for field, value in retired.items():
        got = section.pop(field, value)
        if type(got) is not type(value) or got != value:
            raise CheckpointError(
                f"config section 'rop': retired field {field} must be "
                f"{json.dumps(value)}, got {json.dumps(got)}"
            )
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"config section {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainReport:
    epochs_run: int
    best_epoch: int
    best_val_f1: Optional[float]  # None when there was nothing to validate on
    train_losses: list[float]
    val_f1: list[float]
    skipped: list[dict]
    train_docs: int
    val_docs: int


def fit(
    store: ParameterStore,
    examples: Sequence,
    batch_loss: Callable[[list], Tensor],
    rng: np.random.Generator,
    learning_rate: float,
    epochs: int,
    batch_size: int,
    max_tokens: int,
    validate: Optional[Callable[[], float]] = None,
    patience: int = 1,
) -> tuple[list[float], list[float], int]:
    """Mini-batch AdamW over ``examples``; returns (losses, scores, best epoch).

    Each epoch shuffles the examples with ``rng`` and cuts them into batches.
    ``batch_loss`` maps a batch (a list of examples) to its mean loss, one
    graph. ``split_batch`` cuts each batch under the ``max_tokens`` budget:
    each sub-batch gets its own graph and backward pass, weighted by its
    share of the batch, so that one graph is alive at a time; the gradients
    add up and each batch takes one optimizer step. The gradients are
    cleared once before the first batch and again right after each step, so
    every batch starts from none and ``validate`` runs without them. The
    returned losses are per-epoch means over examples. With ``validate``
    the score it returns after each epoch drives early stopping: training
    stops on a perfect 1.0 or after ``patience`` epochs without improvement,
    and the parameters of the best epoch are restored. They are snapshot
    into one set of arrays, copied at the first improving epoch and
    overwritten in place at each later one. Without ``validate`` every
    epoch runs and the last one counts as best.
    """
    order = np.arange(len(examples))
    losses: list[float] = []
    scores: list[float] = []
    best_score = -1.0
    best_epoch = -1
    best_params: Optional[dict[str, np.ndarray]] = None
    since_best = 0
    store.zero_grads()
    for epoch in range(epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        for start in range(0, len(order), batch_size):
            batch = [examples[i] for i in order[start : start + batch_size]]
            for part in split_batch(batch, max_tokens):
                loss = batch_loss(part)
                epoch_loss += loss.item() * len(part)
                (loss * (len(part) / len(batch))).backward()
                del loss  # this graph, before the next one is built
            optimizer_step(store, learning_rate)
            store.zero_grads()  # applied: free them before the next batch
        losses.append(epoch_loss / len(examples))
        if validate is None:
            continue
        score = validate()
        scores.append(score)
        if score > best_score:
            best_score = score
            best_epoch = epoch
            if best_params is None:
                best_params = {n: t.data.copy() for n, t in store.items()}
            else:  # in place: no second copy while the old one is alive
                for n, t in store.items():
                    best_params[n][...] = t.data
            since_best = 0
        else:
            since_best += 1
        if score == 1.0 or since_best >= patience:
            break
    if best_params is None:
        return losses, scores, len(losses) - 1
    for name, values in best_params.items():
        store[name].data[...] = values
    return losses, scores, best_epoch


def _skip_reason(
    doc: Document, config: ROPConfig, encoder_config: EncoderConfig
) -> Optional[str]:
    """Why a document cannot be used as-is; None when it fits.

    Oversized documents are dropped whole rather than truncated: a cut
    sequence would orphan pair labels and distort both loss and metrics.
    """
    n_elements = doc.n_segments if config.task_level == "segment" else doc.n_words
    if n_elements == 0:
        return f"no {config.task_level} elements"
    if n_elements > config.effective_max_elements:
        return (
            f"{n_elements} {config.task_level} elements exceed the budget of "
            f"{config.effective_max_elements}"
        )
    budget = encoder_config.max_tokens
    if doc.n_words > budget:
        return f"{doc.n_words} tokens exceed the budget of {budget}"
    return None


def filter_usable(
    docs: Sequence[Document],
    config: ROPConfig,
    encoder_config: EncoderConfig,
    skipped: list[dict],
) -> list[Document]:
    """The documents that fit; each other one is warned about and appended
    to ``skipped`` as ``{"id": ..., "reason": ...}``."""
    keep = []
    for doc in docs:
        reason = _skip_reason(doc, config, encoder_config)
        if reason is None:
            keep.append(doc)
        else:
            warnings.warn(f"skipping document {doc.id}: {reason}")
            skipped.append({"id": doc.id, "reason": reason})
    return keep


def train(
    corpus: Corpus,
    config: Optional[ROPConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
) -> tuple[ROPModel, TrainReport]:
    """Fit a predictor on the corpus's train split; fully deterministic.

    Validation uses the corpus's validation split when present, otherwise a
    seeded ``val_fraction`` carve-out from the train split. Early stopping
    tracks validation pair F1 with the configured patience, stops immediately
    on a perfect score, and restores the best snapshot before returning.
    """
    config = config if config is not None else ROPConfig()
    encoder_config = encoder_config if encoder_config is not None else EncoderConfig()
    rng = np.random.default_rng(config.seed)

    skipped: list[dict] = []
    train_docs = filter_usable(corpus.subset("train"), config, encoder_config, skipped)
    val_docs = filter_usable(
        corpus.subset("validation"), config, encoder_config, skipped
    )
    if not val_docs and config.val_fraction > 0.0 and len(train_docs) > 1:
        n_val = max(1, round(len(train_docs) * config.val_fraction))
        n_val = min(n_val, len(train_docs) - 1)
        chosen = set(rng.permutation(len(train_docs))[:n_val].tolist())
        val_docs = [d for i, d in enumerate(train_docs) if i in chosen]
        train_docs = [d for i, d in enumerate(train_docs) if i not in chosen]
    if not train_docs:
        raise ValueError("no trainable documents after filtering")

    examples = [
        (
            tokens_for_document(d, config.task_level),
            target_relation(d, config.task_level),
        )
        for d in train_docs
    ]
    val_golds = [target_relation(d, config.task_level) for d in val_docs]

    model = ROPModel.create(encoder_config, config, rng)

    def batch_loss(batch: list) -> Tensor:
        inputs, labels = zip(*batch)
        return gp_loss(model.scores(inputs), labels)

    def validation_f1() -> float:
        return corpus_f1(zip(val_golds, model.predict(val_docs))).f1

    train_losses, val_f1s, best_epoch = fit(
        model.store,
        examples,
        batch_loss,
        rng,
        config.learning_rate,
        config.epochs,
        config.batch_size,
        encoder_config.max_tokens,
        validation_f1 if val_docs else None,
        config.patience,
    )
    report = TrainReport(
        epochs_run=len(train_losses),
        best_epoch=best_epoch,
        best_val_f1=val_f1s[best_epoch] if val_f1s else None,
        train_losses=train_losses,
        val_f1=val_f1s,
        skipped=skipped,
        train_docs=len(train_docs),
        val_docs=len(val_docs),
    )
    return model, report


def predict_pseudo_labels(model: ROPModel, corpus: Corpus) -> tuple[Corpus, dict[str, dict]]:
    """Replace every document's succession annotation with model output.

    Returns the relabeled corpus, in the input's document order, plus a
    per-document sidecar recording that the prediction is acyclic and how
    many pairs it kept; ``decode`` repairs every prediction, so the corpus
    loads. Word-level predictions are projected back onto segments first.
    The usable documents are predicted by one ``ROPModel.predict`` over the
    list. A document over the model's budgets, or whose acyclic word-level
    prediction projects onto a cyclic segment relation, keeps no annotation
    (``isdr`` is None) and its sidecar entry is ``{"skipped": reason}``.
    """
    skipped: list[dict] = []
    usable = filter_usable(corpus.documents, model.config, model.encoder_config, skipped)
    predicted = dict(zip([doc.id for doc in usable], model.predict(usable)))
    reasons = {entry["id"]: entry["reason"] for entry in skipped}
    documents = []
    sidecar: dict[str, dict] = {}
    for doc in corpus.documents:
        rel = predicted.get(doc.id)
        if rel is not None and model.config.task_level == "word":
            rel = collapse_word_relation(doc, rel)
            ok, violation = is_acyclic(rel)
            if not ok:
                reasons[doc.id] = (
                    f"word-level prediction projects onto a cyclic segment "
                    f"relation, witness {list(violation.witness)}"
                )
                warnings.warn(f"skipping document {doc.id}: {reasons[doc.id]}")
        if doc.id in reasons:
            sidecar[doc.id] = {"skipped": reasons[doc.id]}
            documents.append(replace(doc, isdr=None))
        else:
            sidecar[doc.id] = {"acyclic": True, "num_pairs": len(rel)}
            documents.append(replace(doc, isdr=rel))
    return Corpus(tuple(documents), dict(corpus.split)), sidecar
