"""The three benchmark workloads. Why each exists is in ``NOTES.md``.

Each workload is built from the run seed in :meth:`setup` (inputs,
warm-up, pool or server start), then :meth:`run` drives a fixed amount
of work sized from ``--seconds`` and records one latency per operation:

- ``tutorial_session``: one operation is one pass over the TUTORIAL
  cells (Figures 2-4, attendee task 1, Part 4) on fresh data; the pass
  time is the sum of its timed acts.
- ``cleaning_pool``: one operation is one ``IterativeCleaner`` session
  on the shared thread ``Runtime``.
- ``serve_open_loop``: one operation is one burst of served jobs, timed
  from the moment it was due until its last job is done.

The closed loops run a fixed number of operations, not as many as fit
before a deadline, so figures that grow with the work done (peak
memory) do not move with the program's speed.

:meth:`check` runs after the timed phase and returns the output
mismatches; :meth:`summary` returns the workload's part of the metrics.
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback

import numpy as np

import repro as nde
from repro.cleaning import CleaningOracle, IterativeCleaner
from repro.core.api import _encode
from repro.core.exceptions import ValidationError
from repro.data import write_shards
from repro.datasets import make_blobs
from repro.importance import MonteCarloShapley, Utility, leave_one_out
from repro.ml import (ColumnTransformer, KNeighborsClassifier,
                      LogisticRegression, OneHotEncoder, Pipeline,
                      SimpleImputer)
from repro.pipelines import (DataPipeline, datascope_importance,
                             remove_and_evaluate, source)
from repro.runtime import FaultPolicy, FingerprintCache, Runtime
from repro.serve import AdmissionError, Server
from repro.text import SentenceEmbedder
from repro.unlearning import ShardedUnlearner

from host import calibrate, rss_mb

# Latency limits per operation, fixed here so slo_met_ratio compares
# like with like across commits.
SLO_MS = {"tutorial_session": 2500.0, "cleaning_pool": 20000.0,
          "serve_open_loop": 1000.0}


def _encoder_fn(frame):
    X, y, _, _ = _encode(frame)
    return X, y


def _validation(train_df, valid_df):
    _, _, encoder, columns = _encode(train_df)
    return (encoder.transform(valid_df.select(columns)),
            np.array(valid_df["sentiment"].to_list()))


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _detection_auc(suspicion, flipped) -> float:
    """Probability that a flipped row ranks as more suspicious (lower
    ``suspicion``) than a clean one; ties count half."""
    suspicion = np.asarray(suspicion, dtype=float)
    flipped = np.asarray(flipped, dtype=bool)
    bad, good = suspicion[flipped], suspicion[~flipped]
    below = (bad[:, None] < good[None, :]).mean()
    ties = (bad[:, None] == good[None, :]).mean()
    return float(below + 0.5 * ties)


def _trajectory(result) -> tuple:
    return tuple(_hex(result.scores)), tuple(result.cleaned_ids)


class Workload:
    def __init__(self, seed: int, seconds: float, workdir, workers: int):
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.workers = workers
        self.latencies_ms: list[float] = []
        self.op_cpu_s: list[float] = []    # closed loops: CPU per operation
        self.failed = 0
        self.calib_ms: list[float] = []
        self.details: dict = {}

    def close(self) -> None:
        pass

    def _operation(self, fn, *args):
        """Run one closed-loop operation; a failure is counted and
        reported, and the loop goes on."""
        cpu = time.process_time()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.op_cpu_s.append(time.process_time() - cpu)
        return result

    def runtimes(self) -> list:
        """Runtimes whose cache and fault counters the trace reports."""
        return []

    def layer_extras(self) -> dict:
        """Per-layer metrics that come from the workload, not spans."""
        return {"serve.queue_wait_p50_ms": 0.0,
                "serve.queue_wait_p90_ms": 0.0, "serve.run_p50_ms": 0.0,
                "serve.rejected": 0, "serve.share_error": 0.0,
                "serve.backlogged_dispatches": 0,
                "loadgen.lag_p90_ms": 0.0}


# -- tutorial_session -----------------------------------------------------

class TutorialSession(Workload):
    """One serial client replaying the TUTORIAL cells; no Runtime."""

    ACTS = ("fig2", "fig3", "fig4", "task1", "ooc")
    PASS_SECONDS = 1.0        # sizes the pass count from --seconds

    # Figure 3 trains on the letters of healthcare jobs only. Jobs get
    # one of five sectors at random, so a seed can leave a handful of
    # such letters (4 of 180 for data seed 22020), too few for
    # KNN-Shapley's k=5 or for a fit after removing the worst tenth.
    # Such seeds are skipped when inputs are generated.
    MIN_FILTERED_ROWS = 15
    MIN_FILTERED_CLASS = 3

    def setup(self) -> None:
        self.passes: list[dict] = []
        self.rss_mb: list[float] = []
        self.skipped_seeds = 0
        self.n_passes = max(2, int(round(self.seconds / self.PASS_SECONDS)))
        self._pass(self._inputs(self.seed * 1000 + 999))   # warm-up
        self._next_seed = self.seed * 1000

    def run(self) -> None:
        for _ in range(self.n_passes):
            inputs = self._inputs(self._next_seed)
            self._next_seed = inputs["seed"] + 1
            record = self._operation(self._pass, inputs)
            if record is not None:
                self.latencies_ms.append(sum(record["times"].values())
                                         * 1000)
                self.passes.append(record)
            self.rss_mb.append(rss_mb())
            self.calib_ms.append(calibrate())

    def _inputs(self, seed: int) -> dict:
        """Generate a pass's tables from the first usable data seed from
        ``seed`` on (untimed: this stands in for reading a dataset),
        skipping seeds Figure 3 cannot train on."""
        while True:
            train_df, valid_df, test_df = nde.load_recommendation_letters(
                seed=seed)
            jobdetail_df, social_df = nde.load_sidedata(seed=seed)
            healthcare = {job for job, sector in zip(
                jobdetail_df["job_id"].to_list(),
                jobdetail_df["sector"].to_list()) if sector == "healthcare"}
            labels = [label for job, label in zip(
                train_df["job_id"].to_list(), train_df["sentiment"].to_list())
                if job in healthcare]
            if len(labels) >= self.MIN_FILTERED_ROWS and min(
                    labels.count("positive"), labels.count("negative")) \
                    >= self.MIN_FILTERED_CLASS:
                return {"seed": seed, "train_df": train_df,
                        "valid_df": valid_df, "test_df": test_df,
                        "jobdetail_df": jobdetail_df, "social_df": social_df,
                        "blobs": make_blobs(120, n_features=3, centers=2,
                                            seed=seed)}
            self.skipped_seeds += 1
            seed += 1

    def _pass(self, inputs: dict) -> dict:
        times = {}
        clock = time.perf_counter
        data_seed = inputs["seed"]
        train_df, valid_df, test_df = (inputs["train_df"], inputs["valid_df"],
                                       inputs["test_df"])

        # Figure 2: inject, evaluate, KNN-Shapley, oracle clean, re-evaluate
        start = clock()
        dirty, report = nde.inject_labelerrors(train_df, fraction=0.1,
                                               seed=data_seed)
        nde.evaluate_model(dirty, validation=valid_df)
        values = nde.knn_shapley_values(dirty, validation=valid_df)
        lowest = np.argsort(values)[:25]
        cleaned = CleaningOracle(train_df).clean(dirty,
                                                 dirty.row_ids[lowest])
        nde.evaluate_model(cleaned, validation=valid_df)
        times["fig2"] = clock() - start
        auc = _detection_auc(values, np.isin(dirty.row_ids,
                                             list(report.row_ids())))

        # Figure 3: provenance pipeline, Datascope, remove-and-evaluate
        start = clock()
        encoder = ColumnTransformer([
            ("letter", SentenceEmbedder(dim=32), "letter_text"),
            ("degree", Pipeline([
                ("imputer", SimpleImputer(strategy="most_frequent")),
                ("onehot", OneHotEncoder())]), "degree"),
        ])
        jobdetail_df, social_df = inputs["jobdetail_df"], inputs["social_df"]
        plan = (source("train_df")
                .join(source("jobdetail_df"), on="job_id")
                .join(source("social_df"), on="person_id")
                .filter(("sector", "healthcare"))
                .map_column("has_twitter", lambda r: r["twitter"] is not None)
                .encode(encoder, label="sentiment"))
        pipeline = DataPipeline(plan)
        sources = {"train_df": dirty, "jobdetail_df": jobdetail_df,
                   "social_df": social_df}
        result = pipeline.run(sources, provenance=True)
        X_valid_p, y_valid_p = result.apply(
            {"train_df": valid_df, "jobdetail_df": jobdetail_df,
             "social_df": social_df})
        importances = datascope_importance(result, source="train_df",
                                           X_valid=X_valid_p,
                                           y_valid=y_valid_p)
        # The healthcare filter keeps 15-40 rows, depending on the seed;
        # removing a fixed 10 emptied a class on 4 of 60 seeds, so the
        # worst tenth is removed (no failure on 250 seeds).
        ranked = sorted(importances, key=importances.get)
        worst = ranked[:max(1, len(ranked) // 10)]
        remove_and_evaluate(pipeline, sources, source="train_df",
                            row_ids=worst, model=LogisticRegression(),
                            valid_frame=valid_df)
        times["fig3"] = clock() - start

        # Figure 4: Zorro at 5-25% MNAR
        start = clock()
        for percentage in (5, 10, 15, 20, 25):
            table = nde.encode_symbolic(
                train_df, uncertain_feature="employer_rating",
                missing_percentage=percentage, missingness="MNAR",
                seed=data_seed)
            nde.estimate_with_zorro(table, test_df)
        times["fig4"] = clock() - start

        # Attendee task 1: iterative KNN-Shapley cleaning, 5 rounds
        start = clock()
        X_valid, y_valid = _validation(train_df, valid_df)
        in_memory = IterativeCleaner(
            LogisticRegression(), "knn_shapley", CleaningOracle(train_df),
            encode=_encoder_fn, batch=10, seed=data_seed
        ).run(dirty, X_valid, y_valid, n_rounds=5)
        times["task1"] = clock() - start

        # Part 4: spill, score from shards, SISA unlearn, clean the spill
        start = clock()
        folder = self.workdir / f"pass-{data_seed}"
        Xd, yd = inputs["blobs"]
        train = write_shards(folder / "walkthrough", {"X": Xd[:90],
                                                      "y": yd[:90]},
                             rows_per_shard=16, mirror=True)
        utility = Utility.from_sharded(
            LogisticRegression(max_iter=30), train, Xd[90:], yd[90:],
            reader={"workers": self.workers,
                    "faults": FaultPolicy(retries=2)})
        shard_values = MonteCarloShapley(n_permutations=4,
                                         seed=data_seed).score(utility)
        unlearner = ShardedUnlearner(LogisticRegression(max_iter=30),
                                     seed=data_seed)
        unlearner.fit_sharded(train)
        unlearner.unlearn([int(i) for i in np.argsort(shard_values)[:5]])
        dirty.to_shards(folder / "dirty", rows_per_shard=32)
        spilled = IterativeCleaner(
            LogisticRegression(), "knn_shapley", CleaningOracle(train_df),
            encode=_encoder_fn, batch=10, seed=data_seed
        ).run(folder / "dirty", X_valid, y_valid, n_rounds=5,
              reader={"workers": self.workers})
        times["ooc"] = clock() - start
        shutil.rmtree(folder)

        return {"times": times, "auc": auc,
                "accuracy": in_memory.final,
                "in_memory": _trajectory(in_memory),
                "spilled": _trajectory(spilled),
                "alive": unlearner.n_alive}

    def check(self) -> list[str]:
        problems = []
        for i, record in enumerate(self.passes):
            if record["spilled"] != record["in_memory"]:
                problems.append(f"pass {i}: Part 4 trajectory differs from "
                                "the in-memory cleaner")
            if record["alive"] != 85:
                problems.append(f"pass {i}: unlearner kept "
                                f"{record['alive']} rows, expected 85")
        return problems

    def summary(self) -> dict:
        acts = {act: float(np.median([p["times"][act] for p in self.passes]))
                * 1000 for act in self.ACTS}
        self.details["act_p50_ms"] = acts
        self.details["passes"] = len(self.passes)
        self.details["skipped_seeds"] = self.skipped_seeds
        # Resident memory kept per pass (least-squares slope over the
        # passes): the tutorial path's growth stays visible, ungated.
        self.details["rss_growth_mb_per_pass"] = float(np.polyfit(
            np.arange(len(self.rss_mb)), self.rss_mb, 1)[0])
        return {"detection_auc":
                float(np.mean([p["auc"] for p in self.passes])),
                "cleaned_accuracy":
                float(np.mean([p["accuracy"] for p in self.passes]))}


# -- cleaning_pool --------------------------------------------------------

class CleaningPool(Workload):
    """The TUTORIAL's runtime block: shapley_mc cleaning sessions sharing
    one warm thread Runtime with a FingerprintCache.

    Every run cleans the TUTORIAL's own data (``load_recommendation_letters
    (120)``, 10% label errors) with a fixed panel of attendee cleaner
    seeds; the run seed sets the order in which they arrive. A session's
    work depends on its seed by up to 60x (truncation), so a seeded panel
    could not be averaged within one run; see NOTES.md.
    """

    SESSION_SECONDS = 3.3     # sizes the panel from --seconds

    def setup(self) -> None:
        self.train_df, valid_df, _ = nde.load_recommendation_letters(120)
        self.dirty, report = nde.inject_labelerrors(self.train_df,
                                                    fraction=0.1)
        self.flipped = np.isin(self.dirty.row_ids, list(report.row_ids()))
        self.X_valid, self.y_valid = _validation(self.train_df, valid_df)
        size = max(2, int(round(self.seconds / self.SESSION_SECONDS)))
        rng = np.random.default_rng(self.seed)
        self.panel = [int(s) for s in rng.permutation(size)]
        self.runtime = Runtime(backend="thread", max_workers=self.workers,
                               cache=FingerprintCache())
        self.sessions: list[dict] = []
        self._session(self.runtime, 10_000, n_rounds=1)    # warm-up

    def _session(self, runtime, cleaner_seed: int, *, n_rounds: int = 5):
        cleaner = IterativeCleaner(
            LogisticRegression(), "shapley_mc", CleaningOracle(self.train_df),
            encode=_encoder_fn, batch=10, seed=cleaner_seed, runtime=runtime)
        return cleaner.run(self.dirty, self.X_valid, self.y_valid,
                           n_rounds=n_rounds)

    def run(self) -> None:
        for cleaner_seed in self.panel:
            start = time.perf_counter()
            result = self._operation(self._session, self.runtime,
                                     cleaner_seed)
            if result is None:
                continue
            self.latencies_ms.append((time.perf_counter() - start) * 1000)
            self.sessions.append({"seed": cleaner_seed,
                                  "trajectory": _trajectory(result),
                                  "accuracy": result.final,
                                  "cleaned": list(result.cleaned_ids)})
            self.calib_ms.append(calibrate())

    def check(self) -> list[str]:
        quickest = int(np.argmin(self.latencies_ms))
        session = self.sessions[quickest]
        with Runtime(backend="serial", cache=FingerprintCache()) as serial:
            reference = self._session(serial, session["seed"])
        if _trajectory(reference) != session["trajectory"]:
            return [f"cleaner seed {session['seed']}: pooled trajectory "
                    "differs from backend='serial'"]
        return []

    def summary(self) -> dict:
        # A row's suspicion is the round that cleaned it; rows never
        # cleaned come last.
        auc = []
        for session in self.sessions:
            cleaned_round = {row: i // 10 for i, row in
                             enumerate(session["cleaned"])}
            suspicion = [cleaned_round.get(int(row), 5)
                         for row in self.dirty.row_ids]
            auc.append(_detection_auc(suspicion, self.flipped))
        return {"detection_auc": float(np.mean(auc)),
                "cleaned_accuracy":
                float(np.median([s["accuracy"] for s in self.sessions]))}

    def runtimes(self) -> list:
        return [self.runtime]

    def close(self) -> None:
        self.runtime.close()


# -- serve_open_loop ------------------------------------------------------

class _Job:
    __slots__ = ("due", "method", "tenant", "params", "X", "y", "flipped",
                 "job_id", "refused")

    def utility(self):
        return Utility(KNeighborsClassifier(n_neighbors=3),
                       self.X[:40], self.y[:40], self.X[40:], self.y[40:])


class ServeOpenLoop(Workload):
    """Bursts of jobs due on a fixed schedule into one Server; see
    NOTES.md."""

    BURST = 12               # jobs per burst: 2 of each method per tenant
    PERIOD_S = 1.0           # a burst is due every PERIOD_S seconds
    MIN_JOBS = 300
    METHODS = ("shapley_mc", "loo", "banzhaf")
    TENANTS = {"alice": {"weight": 2.0}, "bob": {"weight": 1.0}}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n_bursts = max(-(-self.MIN_JOBS // self.BURST),
                       int(round(self.seconds / self.PERIOD_S)))
        # Every burst offers the same mix: each (method, tenant) pair the
        # same number of times, in an order drawn from the seed.
        pairs = [(m, t) for m in self.METHODS for t in self.TENANTS]
        pairs = pairs * (self.BURST // len(pairs))
        self.bursts = []
        for index in range(n_bursts):
            due = index * self.PERIOD_S
            self.bursts.append([self._job(rng, due, *pairs[i])
                                for i in rng.permutation(len(pairs))])
        self.jobs = [job for burst in self.bursts for job in burst]
        self.server = Server(self.workdir / "serve", workers=self.workers,
                             tenants=self.TENANTS)
        for method in self.METHODS:
            warm = self._job(rng, 0.0, method, "alice")
            self.server.result(self._submit(warm), timeout=60)
        self.lag_ms: list[float] = []

    def _params(self, method, rng) -> dict:
        if method == "shapley_mc":
            return {"n_permutations": 20, "seed": int(rng.integers(2**31))}
        if method == "banzhaf":
            return {"n_samples": 60, "seed": int(rng.integers(2**31))}
        return {}

    def _job(self, rng, due: float, method: str, tenant: str) -> _Job:
        job = _Job()
        job.due = due
        job.method = method
        job.tenant = tenant
        job.params = self._params(method, rng)
        X, y = make_blobs(60, n_features=3, centers=2,
                          seed=int(rng.integers(2**31)))
        flipped = np.zeros(40, dtype=bool)
        flipped[rng.choice(40, size=4, replace=False)] = True
        y = y.copy()
        y[:40][flipped] = 1 - y[:40][flipped]
        job.X, job.y, job.flipped = X, y, flipped
        job.job_id = None
        job.refused = False
        return job

    def _submit(self, job: _Job) -> str:
        job.job_id = self.server.submit(job.method, job.utility,
                                        tenant=job.tenant, params=job.params)
        return job.job_id

    def run(self) -> None:
        self.calib_ms.append(calibrate())
        self.t0 = time.time()
        for burst in self.bursts:
            wait = self.t0 + burst[0].due - time.time()
            if wait > 0:
                time.sleep(wait)
            for job in burst:
                self.lag_ms.append(max(0.0, time.time() - self.t0
                                       - job.due) * 1000)
                try:
                    self._submit(job)
                except AdmissionError:
                    job.refused = True
        for job in self.jobs:
            if not job.refused:
                try:
                    self.server.result(job.job_id, timeout=120)
                except (ValidationError, TimeoutError):
                    pass            # counted below: no job.done event
        self.calib_ms.append(calibrate())
        events = {}
        for event in self.server.observer.runlog.events:
            if event["kind"] in ("job.submit", "job.start", "job.done"):
                events[(event["job_id"], event["kind"])] = event["ts"]
        self.events = events
        # One operation is one burst, done when its last job is done.
        job_ms = []
        for burst in self.bursts:
            done = [events.get((job.job_id, "job.done")) for job in burst]
            if any(job.refused for job in burst) or None in done:
                self.failed += 1
                continue
            self.latencies_ms.append((max(done) - self.t0 - burst[0].due)
                                     * 1000)
            job_ms.extend((ts - self.t0 - job.due) * 1000
                          for ts, job in zip(done, burst))
        if job_ms:
            self.details["job_p50_ms"] = float(np.percentile(job_ms, 50))
            self.details["job_p90_ms"] = float(np.percentile(job_ms, 90))

    def _done(self):
        return [job for job in self.jobs
                if not job.refused and (job.job_id, "job.done") in self.events]

    def check(self) -> list[str]:
        candidates = [job for job in self._done()
                      if job.method in ("shapley_mc", "loo")]
        job = candidates[self.seed % len(candidates)]
        served = self.server.result(job.job_id, timeout=60)
        if job.method == "loo":
            solo = leave_one_out(job.utility())
        else:
            solo = MonteCarloShapley(**job.params).score(job.utility())
        if _hex(served) != _hex(solo):
            return [f"{job.job_id} ({job.method}) differs from its solo call"]
        return []

    def summary(self) -> dict:
        auc, accuracy = [], []
        for job in self._done():
            values = self.server.result(job.job_id, timeout=60)
            auc.append(_detection_auc(values, job.flipped))
            lowest = np.argsort(values, kind="stable")[:4]
            utility = job.utility()
            accuracy.append(utility(np.setdiff1d(np.arange(40), lowest)))
        return {"detection_auc": float(np.mean(auc)),
                "cleaned_accuracy": float(np.mean(accuracy))}

    def _backlogged_share(self) -> tuple[float, int]:
        """Share of alice's dispatches among those made while both
        tenants had jobs queued, and how many such dispatches there were.
        Only then does the scheduler choose between tenants; at other
        times the dispatched share is the offered share."""
        ids = {j.job_id for j in self.jobs}
        queued = dict.fromkeys(self.TENANTS, 0)
        started = set()
        backlogged = alice = 0
        for event in self.server.observer.runlog.events:
            if event.get("job_id") not in ids:
                continue
            if event["kind"] == "job.submit":
                queued[event["tenant"]] += 1
            elif event["kind"] == "job.start" \
                    and event["job_id"] not in started:
                started.add(event["job_id"])
                if min(queued.values()) > 0:
                    backlogged += 1
                    alice += event["tenant"] == "alice"
                queued[event["tenant"]] -= 1
        return alice / max(1, backlogged), backlogged

    def layer_extras(self) -> dict:
        done = self._done()
        waits = [(self.events[(j.job_id, "job.start")]
                  - self.events[(j.job_id, "job.submit")]) * 1000
                 for j in done]
        runs = [(self.events[(j.job_id, "job.done")]
                 - self.events[(j.job_id, "job.start")]) * 1000
                for j in done]
        share, backlogged = self._backlogged_share()
        weights = {k: v["weight"] for k, v in self.TENANTS.items()}
        return {"serve.queue_wait_p50_ms": float(np.percentile(waits, 50)),
                "serve.queue_wait_p90_ms": float(np.percentile(waits, 90)),
                "serve.run_p50_ms": float(np.percentile(runs, 50)),
                "serve.rejected": sum(j.refused for j in self.jobs),
                "serve.share_error":
                    abs(share - weights["alice"] / sum(weights.values()))
                    if backlogged else 0.0,
                "serve.backlogged_dispatches": backlogged,
                "loadgen.lag_p90_ms": float(np.percentile(self.lag_ms, 90))}

    def runtimes(self) -> list:
        return [self.server.runtime]

    def close(self) -> None:
        self.server.close()


WORKLOADS = {"tutorial_session": TutorialSession,
             "cleaning_pool": CleaningPool,
             "serve_open_loop": ServeOpenLoop}
