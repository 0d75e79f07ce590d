"""Desk-scale key recovery against the linear protocols, quantified on the
nonlinear ones.

Three attacks, all demonstrated to work on hb at small k:

- majority vote: active; replay one challenge many times, denoise each
  response bit by majority, then solve (linear) or exhaust (nonlinear).
- lf2 column merging: passive; XOR challenge columns that collide on their
  low rows to shrink the unknown block, score candidates with a
  Walsh-Hadamard transform, recover the key block by block.
- noise-free selection: passive; repeatedly pick k response positions and
  hope none of them was flipped, at (1-eps)^k odds per full-rank selection.

Against nlhb the window map breaks the linear sample model — the same
pipelines run unchanged and the reports carry the measured residual
correlations instead of a key.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._kernels import fwht, hamming_rows
from .gf2core import (
    ParameterError,
    RandomSource,
    SingularSystemError,
    code_rows,
    gaussian_solve,
    gf2_rank,
    mat_vec_mul,
    row_codes,
    _packed_rows,
    _xor_basis,
)
from .nlfunc import apply_f_batch, key_distances
from .protocols import ProtocolParams, SecretKey, respond, verify

DESK_SCALE_K = 24


class NeedMoreSamplesError(RuntimeError):
    """Raised when the merged sample pool is too small to separate the true
    candidate block from 2^b near-zero competitors."""

    def __init__(self, have: int, need: int, stage: str):
        self.have = have
        self.need = need
        self.stage = stage
        super().__init__(
            "need more samples at %s: have %d, want >= %d" % (stage, have, need)
        )


@dataclass
class AttackReport:
    attack: str
    params: ProtocolParams
    queries: int
    success: bool
    recovered_key: np.ndarray | None
    stats: dict

    @property
    def proto(self) -> str:
        return self.params.proto


def make_prover_oracle(params: ProtocolParams, key: SecretKey, rng: RandomSource):
    """Honest prover closure for the active attacks: fresh noise per call."""
    if params.blinded:
        raise ParameterError("active attacks here target the unblinded protocols")

    def oracle(a):
        return respond(params, key, a, rng=rng)

    return oracle


# ---------------------------------------------------------------------------
# majority vote (active)
# ---------------------------------------------------------------------------

def default_majority_reps(eps, log2_target: int = -20) -> int:
    """Smallest odd repetition count with per-bit majority error <= 2^log2_target.

    The error is the exact upper binomial tail P[B(reps, eps) >= ceil(reps/2)].
    """
    eps = Fraction(eps)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ParameterError("majority voting needs 0 < eps < 1/2")
    if log2_target >= 0:
        raise ParameterError("log2_target must be negative")
    target = Fraction(1, 2 ** (-log2_target))
    comp = 1 - eps
    reps = 1
    while reps < 100001:
        need = (reps + 1) // 2
        tail = sum(
            math.comb(reps, i) * eps**i * comp ** (reps - i)
            for i in range(need, reps + 1)
        )
        if tail <= target:
            return reps
        reps += 2
    raise ParameterError("no odd reps below 100001 reaches the target; eps too close to 1/2")


def _verified(stats: dict, accepts: int, count: int) -> bool:
    """Record a candidate's verification in ``stats``; True when at least 99%
    of the ``count`` sessions accepted it."""
    stats["verify_accepts"] = accepts
    stats["verify_count"] = count
    return accepts >= math.ceil(0.99 * count)


def _verify_against_oracle(params, candidate, prover_oracle, rng, count):
    key = SecretKey(s1=candidate)
    accepts = 0
    for _ in range(count):
        a = rng.uniform_matrix(params.k, params.n)
        accepts += verify(params, key, a, prover_oracle(a))[0]
    return accepts


def majority_vote_attack(
    prover_oracle,
    k: int,
    reps: int | None,
    params: ProtocolParams,
    *,
    rng: RandomSource | None = None,
    max_rounds: int = 8,
) -> AttackReport:
    """Denoise f(s.A) by bitwise majority over repeated identical challenges,
    then solve for s (hb) or exhaust the key space (nlhb, streamed through
    :func:`~nlhb.nlfunc.key_distances`: at n=259 it peaks at ~8 MB for k=18
    and ~40 MB for k=22, and its time doubles with each key bit).

    A challenge matrix of rank < k, an inconsistent denoised system, or an
    ambiguous nonlinear match each burn one of ``max_rounds`` retries.
    """
    if params.blinded:
        raise ParameterError("majority vote is defined against the unblinded protocols")
    if k != params.k:
        raise ParameterError("k=%d disagrees with params.k=%d" % (k, params.k))
    if reps is None:
        reps = default_majority_reps(params.eps)
    if reps < 1 or reps % 2 == 0:
        raise ParameterError("reps must be odd and positive")
    rng = RandomSource(0) if rng is None else rng
    linear = not params.spec.monomials

    queries = 0
    candidate = None
    rounds_used = 0
    vote_noise = None
    for _ in range(max_rounds):
        rounds_used += 1
        a = rng.uniform_matrix(k, params.n)
        if gf2_rank(a) < k:
            continue
        responses = np.stack([prover_oracle(a) for _ in range(reps)])
        queries += reps
        votes = responses.sum(axis=0, dtype=np.int64)
        denoised = (2 * votes > reps).astype(np.uint8)
        vote_noise = float(np.minimum(votes, reps - votes).mean() / reps)
        if linear:
            try:
                candidate = gaussian_solve(a, denoised)
            except SingularSystemError:
                continue
        else:
            hits = np.flatnonzero(key_distances(params.spec, a, denoised) == 0)
            if hits.shape[0] != 1:
                continue
            candidate = code_rows(hits, k)[0]
        break

    stats = {
        "reps": reps,
        "rounds_used": rounds_used,
        "noise_rate_estimate": vote_noise,
    }
    if candidate is None:
        stats["failure"] = "no usable denoised system within %d rounds" % max_rounds
        return AttackReport("majority", params, queries, False, None, stats)

    verify_count = 100  # fresh sessions the candidate must pass
    accepts = _verify_against_oracle(params, candidate, prover_oracle, rng, verify_count)
    queries += verify_count
    success = _verified(stats, accepts, verify_count)
    return AttackReport("majority", params, queries, success, candidate, stats)


# ---------------------------------------------------------------------------
# lf2 column merging (passive)
# ---------------------------------------------------------------------------

def _buckets(a_cols, bucket_rows):
    """The columns of ``a_cols`` grouped by their bits on ``bucket_rows``, one
    index array per nonempty bucket, in code order; XORing two columns of a
    bucket zeroes those rows."""
    codes = row_codes(a_cols[bucket_rows, :].T)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    return np.split(order, np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1)


def _pairs(bucket):
    """All (left, right) column pairs of one bucket, left before right."""
    li, ri = np.triu_indices(bucket.shape[0], 1)
    return bucket[li], bucket[ri]


def _score_block(rows_matrix, y):
    """Walsh-Hadamard candidate scores: scores[c] = #agree - #disagree of
    c . x against y over all samples, for every c in {0,1}^b at once."""
    b = rows_matrix.shape[0]
    codes = row_codes(rows_matrix.T).astype(np.int64)
    agree = np.bincount(codes[y == 0], minlength=1 << b)
    disagree = np.bincount(codes[y == 1], minlength=1 << b)
    return fwht((agree - disagree).astype(np.int64))


def _merge_scores(x, y, rows, bucket_rows):
    """:func:`_score_block` of ``rows`` over every pair of columns that agree
    on ``bucket_rows``, XORed into one merged sample, counted one bucket at a
    time so the pairs are never materialized.

    Each sample is tagged ``2 * code + y`` with the b-bit code of its column
    on ``rows``; the XOR of two tags is the tag of the merged sample.  Returns
    (scores, merged sample count, nonempty buckets).
    """
    b = rows.shape[0]
    tags = (row_codes(x[rows].T).astype(np.int64) << 1) | y
    counts = np.zeros(2 << b, dtype=np.int64)
    buckets = _buckets(x, bucket_rows)
    total = 0
    for bucket in buckets:
        if bucket.shape[0] > 1:
            left, right = _pairs(bucket)
            counts += np.bincount(tags[left] ^ tags[right], minlength=2 << b)
            total += left.shape[0]
    return fwht(counts[0::2] - counts[1::2]), total, len(buckets)


def _needed_samples(width: int, bias: float) -> int:
    # true-block score mean is bias*M; the 2^width - 1 competitors sit near
    # N(0, sqrt(M)); demand 4 sigma above the expected max of those.
    return int(math.ceil((math.sqrt(2.0 * width * math.log(2.0)) + 4.0) ** 2 / bias**2))


def _pool_samples(transcripts):
    params = transcripts[0].params
    cols, bits = [], []
    for t in transcripts:
        if t.params != params:
            raise ParameterError("transcripts mix protocol parameters")
        cols.append(t.a[:, : params.d])
        bits.append(t.z)
    return np.concatenate(cols, axis=1), np.concatenate(bits)


def _independent_columns(x, k, scan_limit=None):
    """Indices of the first k columns of x, in scan order, that are linearly
    independent of the columns picked before them; None if fewer exist.

    The columns go through :func:`~nlhb.gf2core._xor_basis` one at a time,
    and the scan stops at the k-th pick.
    """
    limit = x.shape[1] if scan_limit is None else min(scan_limit, x.shape[1])
    joined = (j for j, v in _xor_basis(_packed_rows(x[:, :limit].T)) if v)
    picked = list(itertools.islice(joined, k))
    return np.array(picked) if len(picked) == k else None


def _verify_against_transcripts(params, candidate, transcripts):
    key = SecretKey(s1=candidate)
    return sum(verify(params, key, t.a, t.z)[0] for t in transcripts)


def lf2_attack(
    transcripts,
    b: int,
    params: ProtocolParams | None = None,
    *,
    verify_transcripts=None,
) -> AttackReport:
    """Blockwise passive key recovery: merge once to isolate b key bits,
    score with the Walsh-Hadamard transform, strip, repeat; the final
    block (<= b bits) is scored on the unmerged samples directly.

    On nlhb the identical pipeline runs to completion and the per-round
    ``best_bias`` statistics show the correlation the merge was supposed
    to expose collapsing to noise level.
    """
    if len(transcripts) < 2 and verify_transcripts is None:
        raise ParameterError("need at least two transcripts (attack + verification)")
    inferred = transcripts[0].params
    if params is None:
        params = inferred
    elif params != inferred:
        raise ParameterError("params disagree with the transcripts")
    if params.blinded:
        raise ParameterError("the passive attacks target the unblinded protocols")
    k = params.k
    if k > DESK_SCALE_K:
        raise ParameterError("desk-scale attack supports k <= %d" % DESK_SCALE_K)
    if not 0 < b <= k:
        raise ParameterError("need 0 < b <= k")
    if verify_transcripts is None:
        carve = min(100, max(1, len(transcripts) // 4))
        verify_transcripts = transcripts[-carve:]
        transcripts = transcripts[:-carve]

    x, y = _pool_samples(transcripts)
    n_samples = x.shape[1]
    queries = len(transcripts) + len(verify_transcripts)
    eps = float(params.eps)
    stats = {
        "samples": n_samples,
        "block_width": b,
        "merge_noise_expected": 2.0 * eps * (1.0 - eps),
        "fast_path": False,
        "rounds": [],
    }

    # noiseless inputs collapse to plain linear algebra: solve once, keep the
    # candidate only if it explains every sample exactly
    candidate = None
    sel = _independent_columns(x, k, scan_limit=10 * k + 64)
    if sel is not None:
        try:
            exact = gaussian_solve(x[:, sel], y[sel])
        except SingularSystemError:
            exact = None
        if exact is not None and np.array_equal(mat_vec_mul(exact, x), y):
            candidate = exact
            stats["fast_path"] = True

    if candidate is None:
        known = np.zeros(k, dtype=np.uint8)
        remaining = np.arange(k)
        y_work = y.copy()
        while remaining.shape[0]:
            if remaining.shape[0] <= b:
                width = remaining.shape[0]
                need = _needed_samples(width, 1.0 - 2.0 * eps)
                if n_samples < need:
                    raise NeedMoreSamplesError(n_samples, need, "final block")
                scores = _score_block(x[remaining], y_work)
                total = n_samples
                kind = "direct"
            else:
                width = b
                scores, total, nonempty = _merge_scores(x, y_work, remaining[:b], remaining[b:])
                need = _needed_samples(width, (1.0 - 2.0 * eps) ** 2)
                if total < need:
                    raise NeedMoreSamplesError(total, need, "merge round")
                kind = "merge"
            order = np.argsort(scores)
            best = int(order[-1])
            bits = code_rows([best], width)[0]
            stats["rounds"].append(
                {
                    "kind": kind,
                    "rows": remaining[:width].tolist(),
                    "yield": int(total),
                    "best_bias": float(scores[best]) / total,
                    "runner_up_bias": float(scores[order[-2]]) / total,
                }
                | ({"buckets_nonempty": int(nonempty)} if kind == "merge" else {})
            )
            known[remaining[:width]] = bits
            y_work ^= mat_vec_mul(bits, x[remaining[:width]])
            remaining = remaining[width:]
        candidate = known

    accepts = _verify_against_transcripts(params, candidate, verify_transcripts)
    success = _verified(stats, accepts, len(verify_transcripts))
    return AttackReport("lf2", params, queries, success, candidate, stats)


# ---------------------------------------------------------------------------
# noise-free selection (passive)
# ---------------------------------------------------------------------------

def _sample_distinct(rng: RandomSource, count: int, bound: int) -> np.ndarray:
    if count > bound:
        raise ParameterError("cannot pick %d distinct of %d" % (count, bound))
    picked: list[int] = []
    seen: set[int] = set()
    while len(picked) < count:
        for v in rng.u64(count):
            j = int(v % bound)
            if j not in seen:
                seen.add(j)
                picked.append(j)
                if len(picked) == count:
                    break
    return np.array(picked)


def noise_free_selection_attack(
    transcripts,
    k: int,
    trials: int,
    *,
    rng: RandomSource | None = None,
    verify_transcripts=None,
) -> AttackReport:
    """Pick k response positions at random and solve, betting all k noise
    bits are zero; each full-rank selection wins with probability (1-eps)^k.

    Rank-deficient selections are resampled without consuming a trial, so
    the trial count is geometric with exactly that success rate.  On nlhb
    the solve step has no linear system to work on; for k <= 16 the report
    instead carries the 2^k brute-force alternative.
    """
    if not transcripts:
        raise ParameterError("need transcripts")
    params = transcripts[0].params
    if k != params.k:
        raise ParameterError("k=%d disagrees with params.k=%d" % (k, params.k))
    if params.blinded:
        raise ParameterError("the passive attacks target the unblinded protocols")
    if trials < 1:
        raise ParameterError("trials must be positive")
    rng = RandomSource(0) if rng is None else rng
    if verify_transcripts is None:
        if len(transcripts) < 2:
            raise ParameterError("need at least two transcripts (attack + verification)")
        split = max(1, len(transcripts) // 4)
        verify_transcripts = transcripts[split:]
        transcripts = transcripts[:split]
    queries = len(transcripts) + len(verify_transcripts)
    per_trial = float((1 - Fraction(params.eps)) ** k)

    if params.spec.monomials:
        stats = {
            "linear_solve": "inapplicable: responses are nonlinear in the key",
            "per_trial_success_estimate": per_trial,
        }
        if k > 16:
            stats["bruteforce"] = "skipped: 2^%d evaluations over desk budget" % k
            return AttackReport("noisefree", params, queries, False, None, stats)
        # the first transcript filters all 2^k keys; only survivors go on
        pool = list(transcripts) + list(verify_transcripts)
        alive = np.flatnonzero(key_distances(params.spec, pool[0].a, pool[0].z) <= params.u)
        used = 1
        for t in pool[1:]:
            if alive.shape[0] <= 1:
                break
            images = np.stack([mat_vec_mul(key, t.a) for key in code_rows(alive, k)])
            images = apply_f_batch(params.spec, images)
            alive = alive[hamming_rows(images, t.z) <= params.u]
            used += 1
        stats["bruteforce_evaluations"] = 1 << k
        stats["bruteforce_transcripts_used"] = used
        if alive.shape[0] != 1:
            stats["bruteforce"] = "left %d consistent candidates" % alive.shape[0]
            return AttackReport("noisefree", params, queries, False, None, stats)
        candidate = code_rows(alive, k)[0]
        accepts = _verify_against_transcripts(params, candidate, verify_transcripts)
        success = _verified(stats, accepts, len(verify_transcripts))
        return AttackReport("noisefree", params, queries, success, candidate, stats)

    x, y = _pool_samples(transcripts)
    n_samples = x.shape[1]
    resampled = 0
    stats = {
        "samples": n_samples,
        "per_trial_success_estimate": per_trial,
    }
    for trial in range(1, trials + 1):
        while True:
            idx = _sample_distinct(rng, k, n_samples)
            if gf2_rank(x[:, idx]) == k:
                break
            resampled += 1
            if resampled > 10000:
                raise ParameterError("could not find a full-rank selection")
        candidate = gaussian_solve(x[:, idx], y[idx])
        accepts = _verify_against_transcripts(params, candidate, verify_transcripts)
        won = dict(stats, trials_used=trial, selections_resampled=resampled)
        if _verified(won, accepts, len(verify_transcripts)):
            return AttackReport("noisefree", params, queries, True, candidate, won)
    stats["trials_used"] = trials
    stats["selections_resampled"] = resampled
    stats["failure"] = "no all-noise-free selection in %d trials" % trials
    return AttackReport("noisefree", params, queries, False, None, stats)
