"""Executable security-reduction constructions.

A batch of q transcripts is one (q, k*n + D) bit array, each row the
challenge A row-major, then the response z (:func:`transcript_batch`).  It
is checked once, where it enters (:class:`DistinguisherOracle`,
:func:`hybrid_sample`), and read through :func:`batch_views`.

Four drivers, each against pluggable adversary oracles:

- ``lpn_to_unld_embed``: turns LPN samples into a decoding instance of the
  nonlinear code by spacing the columns so every window monomial vanishes.
- ``hybrid_sample``: re-randomizes row i of every challenge in a batch; the
  result is exactly uniform when key bit i is 1 and exactly honest when it
  is 0 — the lever that turns a distinguisher into a key extractor.
- ``algorithm_x``: recovers the key bit by bit from any transcript
  distinguisher by comparing its acceptance rate on hybrids against the
  uniform baseline.
- ``forger_to_distinguisher`` / ``active_forger_to_distinguisher``: wrap a
  passive forger (threshold test on one forged response) or an active one
  (rewound twice from the same blinding commitment so the unknown half of
  the response cancels) into such a distinguisher.

Oracles are trusted in-process callables, deterministic given their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .params import false_accept, threshold_u
from .gf2core import (
    DimensionError,
    ParameterError,
    RandomSource,
    as_bit_matrix,
    as_bits,
    check_enumerable,
    code_rows,
    derive_seed,
    _rate,
    _unpack_payload,
)
from .nlfunc import NonlinearFunctionSpec, key_distances
from .protocols import (
    ProtocolParams,
    SecretKey,
    _check_key,
    _decide,
    _expected,
    _payloads,
    _respond,
)

# ---------------------------------------------------------------------------
# transcript batches
# ---------------------------------------------------------------------------

def string_length(params: ProtocolParams) -> int:
    return params.k * params.n + params.d


def batch_views(strings: np.ndarray, params: ProtocolParams):
    """The (q, k, n) challenges and (q, D) responses of a checked batch, as
    views: writing through them writes the batch."""
    split = params.k * params.n
    return strings[:, :split].reshape(len(strings), params.k, params.n), strings[:, split:]


def transcript_batch(params: ProtocolParams, transcripts) -> np.ndarray:
    """The batch of the given transcripts, one (A, z) row each, all under ``params``."""
    out = np.empty((len(transcripts), string_length(params)), dtype=np.uint8)
    a, z = batch_views(out, params)
    for row, t in enumerate(transcripts):
        if t.params != params:
            raise ParameterError("transcripts mix protocol parameters")
        a[row], z[row] = t.a, t.z
    return out


def _single_secret(params: ProtocolParams) -> None:
    """The one refusal of blinded params by code that holds a single secret."""
    if params.blinded:
        raise ParameterError("%s is blinded; this takes hb or nlhb" % params.proto)


def honest_transcript_source(params: ProtocolParams, key: SecretKey, rng: RandomSource):
    """Unbounded source of honest transcript batches: the sessions of
    :func:`transcript_sampler` on ``rng``, each A answered from its drawn
    payload, one (A, z) row each, so a draw of c rows equals any split of c
    into smaller draws."""
    _single_secret(params)
    key = _check_key(params, key)

    def draw(count: int) -> np.ndarray:
        if count < 0:
            raise ParameterError("count must be nonnegative, got %d" % count)
        out = np.empty((count, string_length(params)), dtype=np.uint8)
        a, z = batch_views(out, params)
        for row in range(count):
            payload = rng._payload(params.k, params.n)
            a[row] = _unpack_payload(payload, (params.k, params.n))
            z[row] = _respond(params, key, payload, None, rng.bernoulli_bits(params.d, params.eps))
        return out

    return draw


def hybrid_sample(strings, i: int, params: ProtocolParams, rng: RandomSource) -> np.ndarray:
    """A copy of the batch with a fresh uniform vector added to row i
    (1-based) of every challenge, one ``rng.uniform_matrix(q, n)`` draw.

    The responses are untouched.  When key bit i is 1 each perturbed string
    is exactly uniform; when it is 0 row i never entered the response, so
    the distribution is exactly the honest one.
    """
    strings = as_bit_matrix(strings, (len(strings), string_length(params)))
    if not 1 <= i <= params.k:
        raise ParameterError("row index %d outside 1..k=%d" % (i, params.k))
    out = strings.copy()
    batch_views(out, params)[0][:, i - 1] ^= rng.uniform_matrix(len(out), params.n)
    return out


def uniform_string_source(params: ProtocolParams, rng: RandomSource):
    length = string_length(params)

    def draw(count: int) -> np.ndarray:
        return rng.uniform_matrix(count, length)

    return draw


# ---------------------------------------------------------------------------
# LPN -> UNLD embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingLayout:
    """Where the original columns land inside the widened challenge matrix.

    ``gaps[i]`` zero columns sit between original columns i+1 and i+2
    (1-based), each at least p-1 wide so no window ever sees two original
    columns; p more zero columns trail the last one.
    """

    gaps: tuple[int, ...]
    positions: tuple[int, ...]


def embedding_feasible(n: int, n_prime: int, p: int) -> bool:
    return p >= 1 and n_prime >= 1 and n_prime * p <= n - 1


def default_layout(n: int, n_prime: int, p: int) -> EmbeddingLayout:
    """Minimal gaps p-1 everywhere, remainder folded into the first gap."""
    if not embedding_feasible(n, n_prime, p):
        raise ParameterError(
            "infeasible embedding: need n' <= (n-1)/p, got n'=%d, n=%d, p=%d"
            % (n_prime, n, p)
        )
    gaps = [p - 1] * (n_prime - 1)
    if gaps:
        gaps[0] += (n - p - n_prime) - (p - 1) * (n_prime - 1)
    elif n - p - n_prime:
        raise ParameterError("n' = 1 requires n = p + 1")
    positions = [1]
    for g in gaps:
        positions.append(positions[-1] + 1 + g)
    return EmbeddingLayout(gaps=tuple(gaps), positions=tuple(positions))


def lpn_to_unld_embed(g, z, spec: NonlinearFunctionSpec, n: int, rng: RandomSource, eps):
    """Widen an LPN batch (G, z) into a decoding instance (A, y) of the
    nonlinear code, preserving the planted secret.

    A places G's columns at the positions of :func:`default_layout`, with
    zero columns between and after them; y carries z's bits at those
    positions and fresh Bernoulli(eps) filler elsewhere.  Because no window
    of A contains two original columns and every monomial of g has degree
    >= 2, f(mA) equals mG at the original positions for every m — so a
    decoder for (A, y) is a decoder for the LPN batch.
    """
    g = as_bit_matrix(g)
    k, n_prime = g.shape
    z = as_bits(z, n_prime)
    if spec.p < 1 or not spec.monomials:
        raise ParameterError("embedding needs a nonlinear spec with p >= 1")
    if not 0 < k < n_prime:
        raise ParameterError("need 0 < k < n', got k=%d, n'=%d" % (k, n_prime))
    layout = default_layout(n, n_prime, spec.p)

    d = n - spec.p
    a = np.zeros((k, n), dtype=np.uint8)
    y = rng.bernoulli_bits(d, eps)
    cols = np.array(layout.positions) - 1
    a[:, cols] = g
    y[cols] = z
    return a, y, layout


def brute_force_unld(instances, k: int, spec: NonlinearFunctionSpec):
    """Exhaustive decoder: the m minimizing total distance to the given
    (A, y) instances, plus that distance.  The reduction's sanity oracle;
    cost 2^k response-map evaluations per instance."""
    if not instances:
        raise ParameterError("need at least one instance")
    check_enumerable(k, 16)  # the int64 total and one instance's distances
    total = np.zeros(1 << k, dtype=np.int64)
    for a, y in instances:
        a = as_bit_matrix(a)
        if a.shape[0] != k:
            raise DimensionError("instance has %d key rows, expected k=%d" % (a.shape[0], k))
        total += key_distances(spec, a, y)
    best = int(np.argmin(total))
    return code_rows([best], k)[0], int(total[best])


# ---------------------------------------------------------------------------
# distinguishers and forgers
# ---------------------------------------------------------------------------

@dataclass
class DistinguisherOracle:
    """One-bit verdict on a batch of q strings of length k*n + D.

    The call checks the batch once and hands ``func`` a (q, k*n + D) bit
    array.  ``seed`` plays the role of the fixed coins: the verdict is a
    deterministic function of (seed, strings).
    """

    func: Callable[[np.ndarray], int]
    q: int
    advantage: float
    seed: int
    params: ProtocolParams

    def __post_init__(self):
        if self.q < 1:
            raise ParameterError("a distinguisher batch needs q >= 1 strings, not %d" % self.q)

    def __call__(self, strings) -> int:
        strings = np.atleast_2d(strings)
        self._check_count(strings)
        return int(self.func(as_bit_matrix(strings, (self.q, string_length(self.params)))))

    def _check_count(self, strings) -> None:
        if len(strings) != self.q:
            raise ParameterError("distinguisher takes %d strings, got %d" % (self.q, len(strings)))


def ideal_distinguisher(
    params: ProtocolParams, key: SecretKey, q: int = 1, seed: int = 0
) -> DistinguisherOracle:
    """Reference adversary that knows the key: accepts a batch iff every
    string verifies within the protocol threshold."""
    _single_secret(params)
    key = _check_key(params, key)

    def func(strings):
        a, z = batch_views(strings, params)
        return all(_decide(params, key, a_i, z_i, None)[0] for a_i, z_i in zip(a, z))

    return DistinguisherOracle(func=func, q=q, advantage=1.0, seed=seed, params=params)


class PassiveForger:
    """Observe q transcripts, then answer one challenge matrix.

    Subclasses fill in ``forge``, and ``observe`` if they learn from the
    transcripts; ``reset`` refixes the coins so a wrapping distinguisher
    stays deterministic per call.  Both receive views of a checked batch.
    """

    def __init__(self, params: ProtocolParams, q: int = 0):
        _single_secret(params)
        self.params = params
        self.q = q

    def reset(self, seed: int) -> None:
        self._rng = RandomSource(seed)

    def observe(self, strings) -> None:
        """Take the q training transcripts as one (q, k*n + D) batch."""

    def forge(self, a) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class PerfectPassiveForger(PassiveForger):
    """Knows the key outright; forges the exact noise-free image."""

    def __init__(self, params, key: SecretKey, q: int = 0):
        super().__init__(params, q)
        self.key = _check_key(params, key)

    def forge(self, a):
        return _expected(self.params, self.key, a, None)


class HonestPassiveForger(PerfectPassiveForger):
    """Knows the key but answers like the honest noisy prover."""

    def forge(self, a):
        noise = self._rng.bernoulli_bits(self.params.d, self.params.eps)
        return _respond(self.params, self.key, *_payloads(a, None), noise)


class RandomPassiveForger(PassiveForger):
    """Baseline with no information: uniform responses."""

    def forge(self, a):
        return self._rng.uniform_bits(self.params.d)


def _threshold(params: ProtocolParams, rate, interval):
    """The accept distance floor(rate * D) for a threshold rate inside the
    open ``interval`` (its midpoint when ``rate`` is None), and the advantage
    declared for it: one minus the fair-coin false-accept tail there."""
    low, high = interval
    rate = (low + high) / 2 if rate is None else _rate(rate)
    if not low < rate < high:
        raise ParameterError(
            "threshold rate %s outside the open interval (%s, %s)" % (rate, low, high)
        )
    u = threshold_u(rate, params.d)
    return u, 1.0 - float(false_accept(params.d, u).exact)


def passive_distinguisher_interval(params: ProtocolParams):
    """Admissible open interval for the accept threshold rate of the
    passive forger wrapper: (eps' - 2 eps eps' + eps, 1/2)."""
    eps, epsp = params.eps, params.eps_prime
    return epsp - 2 * eps * epsp + eps, Fraction(1, 2)


def forger_to_distinguisher(
    z_oracle: PassiveForger, q: int, epsilon_dd=None, *, seed: int = 0
) -> DistinguisherOracle:
    """Distinguisher from a passive forger: train it on q strings read as
    transcripts, challenge it with the (q+1)-th string's matrix, and accept
    iff the forgery lands within floor(eps'' * D) of that string's response.

    Honest strings make the forger's training genuine, so a good forger
    lands close; uniform strings make the response independent of anything,
    so the distance is a fair coin per bit and the accept rate is exactly
    the false-accept tail at the threshold.
    """
    if q < 0:
        raise ParameterError("a passive forger trains on q >= 0 transcripts, not %d" % q)
    params = z_oracle.params
    u_dd, declared = _threshold(params, epsilon_dd, passive_distinguisher_interval(params))

    def func(strings):
        a, z = batch_views(strings, params)
        z_oracle.reset(seed)
        z_oracle.observe(strings[:q])
        forged = z_oracle.forge(a[q])
        return int(np.count_nonzero(z[q] != forged) <= u_dd)

    return DistinguisherOracle(func=func, q=q + 1, advantage=declared, seed=seed, params=params)


# ---------------------------------------------------------------------------
# active forgers and the rewinding wrapper
# ---------------------------------------------------------------------------

class ActiveForger:
    """Interactive forger against the blinded protocol.

    Query phase, q times: ``on_blinding(B) -> A`` then ``on_response(z)``.
    Challenge phase: ``commit_blinding() -> B_hat`` then ``respond(A) ->
    z_hat``, with ``snapshot``/``restore`` replaying identically on equal
    subsequent inputs.  The base class enforces the step order and raises
    on misuse.  Operands are views of the wrapper's checked batch or matrices
    it drew, and are not checked again.
    """

    def __init__(self, params: ProtocolParams):
        if not params.blinded:
            raise ParameterError("active forgers target the blinded protocols")
        self.params = params
        self._state: dict = {}

    def reset(self, seed: int) -> None:
        self._state = {"step": "blinding", "seed": seed, "round": 0}

    def _advance(self, step: str, then: str) -> None:
        """Move from the awaited ``step`` (``blinding``, ``response`` or
        ``challenge``) to ``then``; any other call is misuse."""
        if not self._state:
            raise ParameterError("forger used before reset()")
        if self._state["step"] != step:
            raise ParameterError("forger protocol misuse: awaiting %r" % self._state["step"])
        self._state["step"] = then

    def on_blinding(self, b) -> np.ndarray:
        self._advance("blinding", "response")
        return self._on_blinding(b)

    def on_response(self, z) -> None:
        self._advance("response", "blinding")
        self._state["round"] += 1
        self._on_response(z)

    def commit_blinding(self) -> np.ndarray:
        self._advance("blinding", "challenge")
        self._commit_blinding()
        b_hat = self._message_rng("b-hat", b"").uniform_matrix(self.params.k, self.params.n)
        self._state["b_hat"] = b_hat
        return b_hat

    def respond(self, a) -> np.ndarray:
        self._advance("challenge", "challenge")
        return self._respond(a)

    def snapshot(self) -> dict:
        return dict(self._state)

    def restore(self, state: dict) -> None:
        self._state = dict(state)

    # subclass hooks
    def _on_blinding(self, b):  # pragma: no cover - abstract
        raise NotImplementedError

    def _on_response(self, z) -> None:
        pass

    def _commit_blinding(self) -> None:
        """Work done once the query phase closes, before B_hat is drawn."""

    def _respond(self, a):  # pragma: no cover - abstract
        raise NotImplementedError

    def _prover_response(self, key: SecretKey, a, noisy: bool) -> np.ndarray:
        """The honest blinded prover's answer to ``a`` under ``key`` and B_hat.
        Its noise comes from coins tied to ``a``, so a rewound replay repeats it."""
        params, b_hat = self.params, self._state["b_hat"]
        if not noisy:
            return _expected(params, key, a, b_hat)
        noise = self._message_rng("noise", a.tobytes()).bernoulli_bits(params.d, params.eps)
        return _respond(params, key, *_payloads(a, b_hat), noise)

    def _message_rng(self, label: str, payload: bytes) -> RandomSource:
        """Coins tied to (seed, message): a restored snapshot replays the
        same message identically, yet distinct messages stay independent."""
        return RandomSource(derive_seed(self._state["seed"], label.encode() + payload))


class HonestActiveForger(ActiveForger):
    """Models a fully successful forger: an honest blinded prover holding
    (s1, s2).  Noise is drawn from message-tied coins so rewinding
    reproduces it exactly on a replayed challenge."""

    def __init__(self, params, key: SecretKey, noisy: bool = True):
        super().__init__(params)
        self.key = _check_key(params, key)
        self.noisy = noisy

    def _on_blinding(self, b):
        tag = b.tobytes() + int(self._state["round"]).to_bytes(4, "big")
        return self._message_rng("query-a", tag).uniform_matrix(self.params.k, self.params.n)

    def _respond(self, a):
        return self._prover_response(self.key, a, self.noisy)


class RandomActiveForger(ActiveForger):
    """No-information baseline: responses are message-tied uniform bits."""

    def _on_blinding(self, b):
        return self._message_rng("query-a", b.tobytes()).uniform_matrix(
            self.params.k, self.params.n
        )

    def _respond(self, a):
        return self._message_rng("z-hat", a.tobytes()).uniform_bits(self.params.d)


class ExtractingActiveForger(ActiveForger):
    """Forger that must *earn* its challenge-phase success from the query
    phase: it holds s1 as side information but learns s2 from the
    interaction.

    Strategy: send one fixed challenge matrix A* every query round, strip
    the known f(s1 . B) term, majority-vote the q noisy copies of
    f(s2 . A*) and brute-force s2 from the denoised image (k <= 16).  Fed
    genuine transcripts it recovers s2 and forges like an honest prover;
    fed garbage its estimate is uncorrelated with the real s2 and the
    forgeries miss.  This is the success/failure contrast the rewinding
    wrapper turns into a distinguisher.
    """

    def __init__(self, params: ProtocolParams, s1):
        super().__init__(params)
        if params.k > 16:
            raise ParameterError("extraction brute-forces 2^k candidates; need k <= 16")
        self.s1_key = SecretKey(s1=as_bits(s1, params.k))  # s1 alone, for f(s1 . B)

    def reset(self, seed: int) -> None:
        super().reset(seed)
        self._state["a_star"] = self._message_rng("a-star", b"").uniform_matrix(
            self.params.k, self.params.n
        )
        self._state["votes"] = np.zeros(self.params.d, dtype=np.int64)

    def _on_blinding(self, b):
        self._state["b_bar"] = b
        return self._state["a_star"]

    def _on_response(self, z):
        known = _expected(self.params, self.s1_key, self._state["b_bar"], None)
        # a new array, so the base class's shallow snapshot stays intact
        self._state["votes"] = self._state["votes"] + (z ^ known)

    def _commit_blinding(self):
        count = self._state["round"]
        if count == 0:
            raise ParameterError("extraction needs at least one query round")
        image = (2 * self._state["votes"] > count).astype(np.uint8)
        s2_hat, _ = brute_force_unld([(self._state["a_star"], image)], self.params.k, self.params.spec)
        self._state["key"] = SecretKey(s1=self.s1_key.s1, s2=s2_hat)  # built once, for every rewound call

    def _respond(self, a):
        return self._prover_response(self._state["key"], a, True)


def rewinding_distinguisher_interval(params: ProtocolParams):
    """Admissible open interval for the rewinding accept rate:
    ((1 - (1 - 2 eps')^2) / 2, 1/2) — the XOR of two tolerable error
    vectors must stay distinguishable from a fair coin."""
    epsp = params.eps_prime
    return (1 - (1 - 2 * epsp) ** 2) / 2, Fraction(1, 2)


def rewinding_s2(params: ProtocolParams, seed: int) -> np.ndarray:
    """The s2 that the rewinding wrapper built with ``seed`` simulates."""
    return RandomSource(seed).derive("rewind-s2").uniform_bits(params.k)


def active_forger_to_distinguisher(
    zp: ActiveForger, q: int, epsilon_1=None, *, seed: int = 0
) -> DistinguisherOracle:
    """Distinguisher from an active forger via rewinding.

    Input strings are read as single-secret transcripts (B, z_bar).  The
    wrapper samples its own s2 (:func:`rewinding_s2`), simulates the blinded
    prover toward zp in the query phase (z = z_bar + f(s2 . A)), then rewinds
    zp's challenge phase from one blinding commitment: the unknown
    f(s1 . B_hat) term is identical in both forged responses, so it cancels
    from their XOR, which is compared against f(s2 A1) + f(s2 A2) at
    threshold floor(eps1 * D).
    """
    params = zp.params
    if not params.blinded:
        raise ParameterError("rewinding wraps a forger for the blinded protocol")
    for method in ("snapshot", "restore"):
        if not callable(getattr(zp, method, None)):
            raise ParameterError("active forger lacks %s(): rewinding unsupported" % method)
    u_1, declared = _threshold(params, epsilon_1, rewinding_distinguisher_interval(params))
    s2 = SecretKey(s1=rewinding_s2(params, seed))  # s2 alone, for f(s2 . A)

    def func(strings):
        zp.reset(seed)
        for b_bar, z_bar in zip(*batch_views(strings, params)):
            a = zp.on_blinding(b_bar)
            zp.on_response(z_bar ^ _expected(params, s2, a, None))
        zp.commit_blinding()
        challenge_rng = RandomSource(derive_seed(seed, strings.tobytes()))
        a1 = challenge_rng.uniform_matrix(params.k, params.n)
        a2 = challenge_rng.uniform_matrix(params.k, params.n)
        state = zp.snapshot()
        z1 = zp.respond(a1)
        zp.restore(state)
        z2 = zp.respond(a2)
        target = _expected(params, s2, a1, None) ^ _expected(params, s2, a2, None)
        return int(np.count_nonzero(z1 ^ z2 != target) <= u_1)

    return DistinguisherOracle(func=func, q=q, advantage=declared, seed=seed, params=params)


# ---------------------------------------------------------------------------
# algorithm X: distinguisher -> key extractor
# ---------------------------------------------------------------------------

BATCH_SCHEDULE_CONSTANT = 24
"""Calibrated multiplier for the default batch count N = ceil(C * log2(2k) / delta^2).

The asymptotic schedule only fixes N up to a constant; this one is tuned so
the ideal-oracle and perfect-forger drivers pass their acceptance rates with
margin, and is exposed for callers that want the knob."""


def default_batch_count(k: int, delta: float) -> int:
    if not 0 < delta <= 1:
        raise ParameterError("advantage delta must be in (0, 1]")
    return int(math.ceil(BATCH_SCHEDULE_CONSTANT * math.log2(2 * k) / delta**2))


def algorithm_x(
    y_oracle: DistinguisherOracle, transcript_source, k: int, *, n_batches: int | None = None
) -> np.ndarray:
    """Extract the key from a transcript distinguisher, bit by bit.

    Estimates the distinguisher's accept rate p on uniform batches, then for
    each row i the rate p_i on honest batches with row i re-randomized.
    When s_i = 1 the hybrid is exactly uniform, so p_i stays within delta/4
    of p and the bit is set to 1; when s_i = 0 the hybrid is exactly honest
    and the distinguisher's advantage pushes p_i away, so the bit is 0.
    delta is the oracle's declared advantage.
    """
    params, q = y_oracle.params, y_oracle.q
    if k != params.k:
        raise ParameterError("k=%d disagrees with params.k=%d" % (k, params.k))
    delta = y_oracle.advantage
    if n_batches is None:
        n_batches = default_batch_count(k, min(delta, 1.0))
    if n_batches < 1:
        raise ParameterError("need at least one batch")
    rng = RandomSource(y_oracle.seed).derive("algorithm-x")

    uniform = uniform_string_source(params, rng)
    p_base = sum(y_oracle(uniform(q)) for _ in range(n_batches)) / n_batches

    recovered = np.zeros(k, dtype=np.uint8)
    for i in range(1, k + 1):
        hits = 0
        for _ in range(n_batches):
            # hybrid_sample checked the source's bits; only the count is left
            batch = hybrid_sample(transcript_source(q), i, params, rng)
            y_oracle._check_count(batch)
            hits += y_oracle.func(batch)
        recovered[i - 1] = abs(hits / n_batches - p_base) < delta / 4
    return recovered
