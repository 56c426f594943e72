"""Beta Shapley semivalues (Kwon & Zou, paper ref [43]).

Beta(α, β) Shapley generalizes the Shapley value by reweighting marginal
contributions by coalition size. Shapley weights all sizes equally;
Beta(α, β) with β > α emphasizes *small* coalitions, where the signal of a
mislabeled point is strongest and the estimator's noise is lowest —
Beta(16, 1) is the paper's recommended noise-reduced default for
mislabeled-data detection. Beta(1, 1) recovers the Shapley value exactly.

Estimation reuses permutation sampling: under a uniform random
permutation each coalition size j ∈ {0..n-1} occurs with probability 1/n,
so weighting the observed marginal at size j by ``n * p(j)`` — where
``p(j)`` is the Beta semivalue's size distribution — yields an unbiased
estimate of the semivalue.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.core.exceptions import ValidationError
from repro.core.rng import spawn_rngs
from repro.importance.base import (
    Utility,
    clt_stderr,
    emit_importance_run,
    hex_floats,
    open_checkpoint_session,
    partial_every,
    require_checkpoint_seed,
    resolve_partial,
    unhex_floats,
)
from repro.observe.observer import resolve_observer
from repro.runtime.cache import fingerprint


def beta_size_weights(n: int, alpha: float, beta: float) -> np.ndarray:
    """The probability that a Beta(α, β) semivalue draws coalition size j.

    Derived from the semivalue representation: the weight of a specific
    coalition S with |S| = j is ``w(j) = Beta(j+β, n-j-1+α) / Beta(α, β)``
    and there are C(n-1, j) such coalitions, so
    ``p(j) ∝ C(n-1, j) * Beta(j+β, n-j-1+α)``. For α = β = 1 this is the
    uniform distribution over sizes (the Shapley value).
    """
    if alpha <= 0 or beta <= 0:
        raise ValidationError("alpha and beta must be positive")
    # Imported here so importing the package does not load scipy.
    from scipy.special import betaln, gammaln

    j = np.arange(n)
    log_binom = gammaln(n) - gammaln(j + 1) - gammaln(n - j)
    log_weight = log_binom + betaln(j + beta, n - 1 - j + alpha) - betaln(alpha, beta)
    weight = np.exp(log_weight - log_weight.max())
    return weight / weight.sum()


class BetaShapley:
    """Permutation-sampling estimator for Beta(α, β) semivalues.

    Parameters
    ----------
    alpha, beta:
        Semivalue shape; ``(1, 1)`` is Shapley, ``(16, 1)`` the
        noise-reduced detection default.
    n_permutations:
        Sampled permutations (each walks the full prefix chain).
    seed:
        RNG seed.
    observer:
        Optional :class:`repro.observe.Observer`: spans :meth:`score`,
        counts permutations walked and utility evaluations, and logs a
        replayable ``importance.run`` event.
    checkpoint / checkpoint_every / resume_from:
        Durable snapshots of completed permutation walks, same contract
        as :class:`~repro.importance.MonteCarloShapley`: requires an
        integer ``seed``, and a resumed run is hex-identical to an
        uninterrupted one on any backend.
    partial:
        Optional anytime-results hook (see
        :func:`repro.importance.base.resolve_partial`): each folded walk
        publishes the running weighted estimate with per-player CLT
        standard errors over the size-weighted marginal samples;
        returning truthy stops early with the current estimate
        (snapshotted first when ``checkpoint=`` is active).
    """

    def __init__(self, alpha: float = 16.0, beta: float = 1.0,
                 n_permutations: int = 100, seed=None, observer=None,
                 checkpoint=None, checkpoint_every: int = 10,
                 resume_from=None, partial=None):
        if n_permutations < 1:
            raise ValidationError("n_permutations must be >= 1")
        self.alpha = alpha
        self.beta = beta
        self.n_permutations = n_permutations
        self.seed = seed
        self.observer = resolve_observer(observer)
        self.checkpoint = checkpoint
        self.checkpoint_every = checkpoint_every
        self.resume_from = resume_from
        self.partial = resolve_partial(partial)
        if checkpoint is not None or resume_from is not None:
            require_checkpoint_seed(seed, "beta_shapley")

    def score(self, utility: Utility) -> np.ndarray:
        """Estimate Beta Shapley values for every player of ``utility``.

        Permutations are drawn from per-permutation RNG streams (split
        from the root seed) and their walks submitted as one batch to
        ``utility.runtime``, so results are backend-invariant.
        """
        obs = self.observer
        if not obs.enabled:
            return self._score(utility)
        calls_before = utility.calls
        cache = utility.runtime.cache if utility.runtime is not None else None
        with obs.span("beta_shapley", cache=cache, players=utility.n_players):
            values = self._score(utility)
        obs.count("importance.permutations", self.n_permutations)
        emit_importance_run(
            obs, method="beta_shapley",
            params={"alpha": self.alpha, "beta": self.beta,
                    "n_permutations": self.n_permutations},
            seed=self.seed, utility=utility, calls_before=calls_before,
            values=values)
        return values

    def _identity(self, utility: Utility) -> str:
        return fingerprint("checkpoint.beta_shapley", self.alpha, self.beta,
                           self.n_permutations, int(self.seed),
                           utility.base_fingerprint())

    def _score(self, utility: Utility) -> np.ndarray:
        n = utility.n_players
        partial = self.partial
        # Importance weight: marginal at size j appears w.p. 1/n under
        # permutation sampling but should carry probability p(j).
        size_weight = n * beta_size_weights(n, self.alpha, self.beta)
        permutations = [rng.permutation(n)
                        for rng in spawn_rngs(self.seed, self.n_permutations)]
        session = open_checkpoint_session(
            utility, checkpoint=self.checkpoint,
            resume_from=self.resume_from, every=self.checkpoint_every,
            kind="importance.beta_shapley",
            identity=self._identity(utility)
            if (self.checkpoint is not None or self.resume_from is not None)
            else "", observer=self.observer)

        running = np.zeros(n)
        running_sq = np.zeros(n) if partial is not None else None
        folded = 0

        def fold(permutation, marginals) -> bool:
            """Fold one walk's size-weighted marginals in (walk order, so
            the float sums match a single-pass reduction bitwise), then
            publish; ``True`` when the hook requests an early stop."""
            nonlocal folded
            weighted = size_weight * marginals
            running[permutation] += weighted
            folded += 1
            if partial is None:
                return False
            running_sq[permutation] += weighted * weighted
            return bool(partial.publish(
                method="beta_shapley", completed=folded,
                total=self.n_permutations, values=running / folded,
                stderr=clt_stderr(running, running_sq, folded)))

        try:
            stopped = self._walk(utility, permutations, session, fold)
        finally:
            if session is not None:
                session.close()
        if stopped:
            return running / folded
        return running / self.n_permutations

    def _walk(self, utility, permutations, session, fold) -> bool:
        """Walk and fold permutations in order; one batch normally,
        cadence batches (restored prefix skipped) when checkpointing or
        publishing partials. Returns ``True`` on an anytime early stop
        (flushing a final resumable snapshot first)."""
        if session is None and self.partial is None:
            for permutation, marginals in zip(
                    permutations,
                    utility.walk_permutations(permutations,
                                              stage="beta_shapley")):
                fold(permutation, marginals)
            return False
        every = session.every if session is not None \
            else partial_every(self.partial)
        if self.partial is not None:
            every = min(every, partial_every(self.partial))
        walks: list[np.ndarray] = []
        replayed = 0
        if session is not None:
            payload = session.resume()
            if payload is not None:
                walks = [unhex_floats(m) for m in payload["marginals"]]
                replayed = len(walks)
                session.record_skipped(completed=replayed,
                                       total=self.n_permutations,
                                       method="beta_shapley")
        guard = session.session(
            lambda: len(walks),
            lambda: {"marginals": [hex_floats(m) for m in walks]},
        ) if session is not None else contextlib.nullcontext()
        with guard:
            for i in range(replayed):  # replay through the same folder
                if fold(permutations[i], walks[i]):
                    if session is not None:
                        session.flush()
                    return True
            while len(walks) < self.n_permutations:
                batch = permutations[len(walks):len(walks) + every]
                new_walks = utility.walk_permutations(
                    batch, stage="beta_shapley")
                walks.extend(new_walks)
                stopped = False
                for permutation, marginals in zip(batch, new_walks):
                    if fold(permutation, marginals):
                        stopped = True
                        break
                if stopped:
                    if session is not None:
                        session.flush()
                    return True
                if session is not None:
                    session.maybe_flush(len(walks))
        return False
