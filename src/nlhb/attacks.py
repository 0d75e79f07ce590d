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

from ._kernels import fwht
from .gf2core import (
    ParameterError,
    RandomSource,
    SingularSystemError,
    check_enumerable,
    code_rows,
    gaussian_solve,
    gf2_rank,
    mat_vec_mul,
    row_codes,
    _packed_rows,
    _xor_basis,
)
from .nlfunc import key_distances
from .params import false_reject
from .protocols import ProtocolParams, SecretKey, respond, verify
from .reductions import _single_secret, batch_views, transcript_batch


class NeedMoreSamplesError(RuntimeError):
    """Raised when the merged sample pool is too small to separate the true
    candidate block from 2^b near-zero competitors."""

    def __init__(self, have: int, need: int, stage: str):
        self.have = have
        self.need = need
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
    _single_secret(params)

    def oracle(a):
        return respond(params, key, a, rng=rng)

    return oracle


# ---------------------------------------------------------------------------
# majority vote (active)
# ---------------------------------------------------------------------------

def default_majority_reps(eps, log2_target: int = -20) -> int:
    """Smallest odd repetition count with per-bit majority error <= 2^log2_target.

    The error is the exact upper binomial tail P[B(reps, eps) >= ceil(reps/2)],
    which for odd reps is the false-reject tail at u = floor(reps/2).
    """
    if log2_target >= 0:
        raise ParameterError("log2_target must be negative")
    target = Fraction(1, 2 ** (-log2_target))
    for reps in range(1, 100001, 2):
        if false_reject(reps, eps, reps // 2).exact <= target:
            return reps
    raise ParameterError("no odd reps below 100001 reaches the target; eps too close to 1/2")


def _verified(stats: dict, params: ProtocolParams, candidate, sessions) -> bool:
    """Verify ``candidate`` on each (A, z) of ``sessions`` and record the
    counts in ``stats``; True when at least 99% of the sessions accepted it."""
    key = SecretKey(s1=candidate)
    accepted = [verify(params, key, a, z)[0] for a, z in sessions]
    stats["verify_accepts"] = accepts = sum(accepted)
    stats["verify_count"] = len(accepted)
    return accepts >= math.ceil(0.99 * len(accepted))


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
    _single_secret(params)
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

    # 100 fresh sessions the candidate must pass; each A is drawn before it is answered
    challenges = (rng.uniform_matrix(k, params.n) for _ in range(100))
    success = _verified(stats, params, candidate, ((a, prover_oracle(a)) for a in challenges))
    queries += stats["verify_count"]
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


# merged samples tallied per chunk in _merge_scores: 2^17 int64 tags, 1 MiB
_PAIR_CHUNK = 1 << 17


def _pair_tags(tags):
    """The XOR of every pair of ``tags``, one bucket's, in chunks of at most
    :data:`_PAIR_CHUNK` entries: a run of left entries against every entry
    after the run, then the pairs within the run."""
    m = tags.shape[0]
    if m < 2:
        return
    step = max(1, _PAIR_CHUNK // m)
    for lo in range(0, m - 1, step):
        hi = min(lo + step, m)
        if hi < m:
            yield (tags[lo:hi, None] ^ tags[None, hi:]).ravel()
        run = tags[lo:hi]
        left, right = np.triu_indices(hi - lo, 1)
        yield run[left] ^ run[right]


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
    on ``bucket_rows``, XORed into one merged sample, counted a chunk of
    pairs at a time (:func:`_pair_tags`) so no bucket's pairs are held at once.

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
        for merged in _pair_tags(tags[bucket]):
            tally = np.bincount(merged)
            counts[: tally.shape[0]] += tally
        total += bucket.shape[0] * (bucket.shape[0] - 1) // 2
    return fwht(counts[0::2] - counts[1::2]), total, len(buckets)


def _needed_samples(width: int, bias: float) -> int:
    # true-block score mean is bias*M; the 2^width - 1 competitors sit near
    # N(0, sqrt(M)); demand 4 sigma above the expected max of those.
    return int(math.ceil((math.sqrt(2.0 * width * math.log(2.0)) + 4.0) ** 2 / bias**2))


def _sessions(params: ProtocolParams, transcripts) -> list:
    """Each record's (A, z), as views of one batch under ``params``."""
    return list(zip(*batch_views(transcript_batch(params, transcripts), params)))


def _passive_inputs(transcripts, verify_transcripts, keep: int):
    """The one input step of the passive attacks: (params, attack records,
    verification sessions, queries).  Without ``verify_transcripts`` the
    first ``keep`` records attack and the rest verify.  An empty part, or
    blinded params, is a :class:`ParameterError`."""
    if verify_transcripts is None:
        transcripts, verify_transcripts = transcripts[:keep], transcripts[keep:]
    if not transcripts or not verify_transcripts:
        raise ParameterError("a passive attack needs records to attack and records to verify on")
    params = transcripts[0].params
    _single_secret(params)
    checks = _sessions(params, verify_transcripts)
    return params, transcripts, checks, len(transcripts) + len(verify_transcripts)


def _pool_samples(transcripts):
    params = transcripts[0].params
    a, z = batch_views(transcript_batch(params, transcripts), params)
    return a[:, :, : params.d].transpose(1, 0, 2).reshape(params.k, -1), z.reshape(-1)


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
    carve = min(100, max(1, len(transcripts) // 4))  # the last records verify
    inferred, transcripts, checks, queries = _passive_inputs(
        transcripts, verify_transcripts, len(transcripts) - carve
    )
    if params not in (None, inferred):
        raise ParameterError("params disagree with the transcripts")
    params = inferred
    k = params.k
    if not 0 < b <= k:
        raise ParameterError("need 0 < b <= k")
    if k - b > 64:
        raise ParameterError("lf2 buckets on at most 64 rows (k - b), got k - b = %d: "
                             "b must be at least %d" % (k - b, k - 64))
    check_enumerable(b, 36)  # per block: 2 int64 counts, their difference, FWHT temporaries

    x, y = _pool_samples(transcripts)
    n_samples = x.shape[1]
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
        exact = gaussian_solve(x[:, sel], y[sel])
        if np.array_equal(mat_vec_mul(exact, x), y):
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

    success = _verified(stats, params, candidate, checks)
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
    params, transcripts, checks, queries = _passive_inputs(  # the first quarter attacks
        transcripts, verify_transcripts, max(1, len(transcripts) // 4)
    )
    if k != params.k:
        raise ParameterError("k=%d disagrees with params.k=%d" % (k, params.k))
    if trials < 1:
        raise ParameterError("trials must be positive")
    rng = RandomSource(0) if rng is None else rng
    per_trial = float((1 - params.eps) ** k)

    if params.spec.monomials:
        stats = {
            "linear_solve": "inapplicable: responses are nonlinear in the key",
            "per_trial_success_estimate": per_trial,
        }
        if k > 16:
            stats["bruteforce"] = "skipped: 2^%d evaluations over desk budget" % k
            return AttackReport("noisefree", params, queries, False, None, stats)
        # the first transcript filters all 2^k keys; only survivors go on
        alive = np.arange(1 << k)
        for used, (a, z) in enumerate(_sessions(params, transcripts) + checks, 1):
            alive = alive[key_distances(params.spec, a, z)[alive] <= params.u]
            if alive.shape[0] <= 1:
                break
        stats["bruteforce_evaluations"] = 1 << k
        stats["bruteforce_transcripts_used"] = used
        if alive.shape[0] != 1:
            stats["bruteforce"] = "left %d consistent candidates" % alive.shape[0]
            return AttackReport("noisefree", params, queries, False, None, stats)
        candidate = code_rows(alive, k)[0]
        success = _verified(stats, params, candidate, checks)
        return AttackReport("noisefree", params, queries, success, candidate, stats)

    x, y = _pool_samples(transcripts)
    n_samples = x.shape[1]
    resampled = 0
    stats = {
        "samples": n_samples,
        "per_trial_success_estimate": per_trial,
    }
    for trial in range(1, trials + 1):
        # a square selection solves exactly when it has full rank
        while True:
            idx = _sample_distinct(rng, k, n_samples)
            try:
                candidate = gaussian_solve(x[:, idx], y[idx])
                break
            except SingularSystemError:
                resampled += 1
                if resampled > 10000:
                    raise ParameterError("could not find a full-rank selection")
        won = dict(stats, trials_used=trial, selections_resampled=resampled)
        if _verified(won, params, candidate, checks):
            return AttackReport("noisefree", params, queries, True, candidate, won)
    stats["trials_used"] = trials
    stats["selections_resampled"] = resampled
    stats["failure"] = "no all-noise-free selection in %d trials" % trials
    return AttackReport("noisefree", params, queries, False, None, stats)
