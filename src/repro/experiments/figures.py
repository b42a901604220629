"""One entry point per table / figure of the paper's evaluation.

Every function returns a small result object carrying the raw numbers
plus ``format_table()``, which renders the same rows/series the paper
reports.  Benchmarks in ``benchmarks/`` call these functions and print
the tables; EXPERIMENTS.md records paper-vs-measured for each.

Scale note: the default ``scale`` arguments are reduced so the full
bench suite completes in minutes; pass ``scale=1.0`` (and the Table 4
worker counts) for paper-sized runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.baselines import RandomMV
from repro.core.assigner import TaskState, compute_top_worker_sets_fast, greedy_assign
from repro.core.config import GraphConfig, ICrowdConfig
from repro.core.estimator import AccuracyEstimator
from repro.core.graph import SimilarityGraph
from repro.core.optimal import approximation_error
from repro.core.qualification import select_random_tasks
from repro.core.streaming import FrozenGraph, GrowableGraph, StreamingAssigner
from repro.datasets import make_itemcompare, make_yahooqa
from repro.datasets.base import DatasetSpec
from repro.experiments.runner import run_approach
from repro.experiments.setups import ExperimentSetup, make_setup
from repro.platform import SimulatedPlatform
from repro.utils.rng import spawn_rng


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _mean_accuracy_row(
    approach: str,
    setup: ExperimentSetup,
    tag: str,
    repetitions: int,
    k: int | None = None,
) -> dict[str, float]:
    """Domain + ALL accuracies averaged over answer-noise repetitions.

    A single platform run carries substantial variance (each worker
    answer is one Bernoulli draw and assignment feedback compounds
    early luck), so every reported cell is a mean of ``repetitions``
    runs with independent answer noise on identical workloads.
    """
    totals: dict[str, float] = {}
    for rep in range(repetitions):
        result = run_approach(
            approach, setup, k=k, run_tag=f"{tag}-rep{rep}"
        )
        for domain, value in result.domain_accuracy.items():
            totals[domain] = totals.get(domain, 0.0) + value
        totals["ALL"] = totals.get("ALL", 0.0) + result.overall_accuracy
    return {key: value / repetitions for key, value in totals.items()}


def _accuracy_table(
    title: str,
    domains: list[str],
    rows: dict[str, dict[str, float]],
) -> str:
    """Render an approach × domain accuracy table with an ALL column."""
    header = ["approach"] + domains + ["ALL"]
    widths = [max(14, len(h) + 1) for h in header]
    lines = [title, "".join(h.ljust(w) for h, w in zip(header, widths))]
    for name, accs in rows.items():
        cells = [name] + [
            _fmt(accs.get(d, float("nan"))) for d in domains
        ] + [_fmt(accs.get("ALL", float("nan")))]
        lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 4 — dataset statistics
# ----------------------------------------------------------------------
@dataclass
class Table4Result:
    specs: list[DatasetSpec]
    num_workers: dict[str, int]

    def format_table(self) -> str:
        """Render the statistics table."""
        lines = ["Table 4: Dataset statistics"]
        lines.append(
            f"{'dataset':<14}{'# microtasks':<14}{'# domains':<12}"
            f"{'# workers':<10}"
        )
        for spec in self.specs:
            lines.append(
                f"{spec.name:<14}{spec.num_tasks:<14}{spec.num_domains:<12}"
                f"{self.num_workers[spec.name]:<10}"
            )
        return "\n".join(lines)


def table4_datasets(seed: int = 7) -> Table4Result:
    """Regenerate Table 4 (paper: 110/6/25 and 360/4/53)."""
    yahoo = make_yahooqa(seed=seed)
    item = make_itemcompare(seed=seed)
    return Table4Result(
        specs=[
            DatasetSpec.of("YahooQA", yahoo),
            DatasetSpec.of("ItemCompare", item),
        ],
        num_workers={"YahooQA": 25, "ItemCompare": 53},
    )


# ----------------------------------------------------------------------
# Figure 6 — accuracy diversity across domains
# ----------------------------------------------------------------------
@dataclass
class Fig6Result:
    dataset: str
    domains: list[str]
    #: worker → domain → (num answers, accuracy)
    per_worker: dict[str, dict[str, tuple[int, float]]]
    min_completed: int

    def diversity_span(self, worker_id: str) -> float:
        """Max-minus-min domain accuracy of one worker."""
        accs = [a for _, a in self.per_worker[worker_id].values()]
        return max(accs) - min(accs) if accs else 0.0

    def format_table(self) -> str:
        """Render the per-worker accuracy table."""
        lines = [
            f"Figure 6 ({self.dataset}): per-worker per-domain accuracy "
            f"(workers with > {self.min_completed} microtasks)"
        ]
        header = ["worker"] + self.domains
        widths = [max(12, len(h) + 1) for h in header]
        lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
        for worker_id, accs in sorted(self.per_worker.items()):
            cells = [worker_id] + [
                _fmt(accs[d][1]) if d in accs else "-" for d in self.domains
            ]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


def fig6_diversity(
    dataset: str = "itemcompare",
    seed: int = 7,
    scale: float = 0.33,
    min_completed: int = 20,
) -> Fig6Result:
    """Empirical accuracy diversity from a random answer collection.

    Mirrors Section 6.2: collect redundant answers (the paper set 10
    assignments per HIT), then compute each worker's accuracy per domain
    against ground truth.
    """
    setup = make_setup(dataset, seed=seed, scale=scale)
    policy = RandomMV(setup.tasks, k=9, seed=seed)
    pool = setup.fresh_pool("fig6")
    report = SimulatedPlatform(setup.tasks, pool, policy).run()
    domains = setup.tasks.domains()
    stats: dict[str, dict[str, list[int]]] = {}
    for event in report.events.answers():
        task = setup.tasks[event.task_id]
        per_domain = stats.setdefault(event.worker_id, {})
        counts = per_domain.setdefault(task.domain, [0, 0])
        counts[0] += 1
        if event.label == task.truth:
            counts[1] += 1
    per_worker: dict[str, dict[str, tuple[int, float]]] = {}
    for worker_id, per_domain in stats.items():
        total = sum(c[0] for c in per_domain.values())
        if total <= min_completed:
            continue
        per_worker[worker_id] = {
            domain: (c[0], c[1] / c[0]) for domain, c in per_domain.items()
        }
    return Fig6Result(
        dataset=dataset,
        domains=domains,
        per_worker=per_worker,
        min_completed=min_completed,
    )


# ----------------------------------------------------------------------
# Figure 7 — effect of qualification selection (RandomQF vs InfQF)
# ----------------------------------------------------------------------
@dataclass
class Fig7Result:
    dataset: str
    domains: list[str]
    accuracies: dict[str, dict[str, float]]  # strategy → domain/ALL → acc

    def format_table(self) -> str:
        """Render the strategy × domain accuracy table."""
        return _accuracy_table(
            f"Figure 7 ({self.dataset}): qualification selection",
            self.domains,
            self.accuracies,
        )


def fig7_qualification(
    dataset: str = "itemcompare",
    seed: int = 7,
    scale: float = 0.33,
    repetitions: int = 3,
) -> Fig7Result:
    """InfQF (Algorithm 4) vs RandomQF, both feeding full iCrowd.

    Accuracies are means over ``repetitions`` independent-noise runs.
    """
    setup = make_setup(dataset, seed=seed, scale=scale)
    rng = spawn_rng(seed, "fig7-random-qf")
    random_qual = tuple(
        select_random_tasks(
            len(setup.tasks),
            setup.config.qualification.num_qualification,
            rng,
        )
    )
    accuracies: dict[str, dict[str, float]] = {}
    for strategy, qualification in (
        ("RandomQF", random_qual),
        ("InfQF", setup.qualification_tasks),
    ):
        from dataclasses import replace

        variant = replace(setup, qualification_tasks=tuple(qualification))
        accuracies[strategy] = _mean_accuracy_row(
            "iCrowd", variant, f"fig7-{strategy}", repetitions
        )
    return Fig7Result(
        dataset=dataset,
        domains=setup.tasks.domains(),
        accuracies=accuracies,
    )


# ----------------------------------------------------------------------
# Figure 8 — effect of adaptive assignment
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    dataset: str
    domains: list[str]
    accuracies: dict[str, dict[str, float]]

    def format_table(self) -> str:
        """Render the strategy × domain accuracy table."""
        return _accuracy_table(
            f"Figure 8 ({self.dataset}): adaptive assignment strategies",
            self.domains,
            self.accuracies,
        )


def fig8_adaptive(
    dataset: str = "itemcompare",
    seed: int = 7,
    scale: float = 0.33,
    repetitions: int = 3,
) -> Fig8Result:
    """QF-Only vs BestEffort vs Adapt (full iCrowd), rep-averaged."""
    setup = make_setup(dataset, seed=seed, scale=scale)
    accuracies: dict[str, dict[str, float]] = {}
    for strategy, approach in (
        ("QF-Only", "QF-Only"),
        ("BestEffort", "BestEffort"),
        ("Adapt", "iCrowd"),
    ):
        accuracies[strategy] = _mean_accuracy_row(
            approach, setup, f"fig8-{strategy}", repetitions
        )
    return Fig8Result(
        dataset=dataset,
        domains=setup.tasks.domains(),
        accuracies=accuracies,
    )


# ----------------------------------------------------------------------
# Figure 9 — comparison with existing approaches
# ----------------------------------------------------------------------
@dataclass
class Fig9Result:
    dataset: str
    domains: list[str]
    accuracies: dict[str, dict[str, float]]

    def improvement_over_best_baseline(self) -> float:
        """iCrowd's ALL-accuracy gain over the best baseline."""
        icrowd = self.accuracies["iCrowd"]["ALL"]
        best = max(
            accs["ALL"]
            for name, accs in self.accuracies.items()
            if name != "iCrowd"
        )
        return icrowd - best

    def format_table(self) -> str:
        """Render the approach × domain accuracy table."""
        return _accuracy_table(
            f"Figure 9 ({self.dataset}): comparison with baselines",
            self.domains,
            self.accuracies,
        )


def fig9_comparison(
    dataset: str = "itemcompare",
    seed: int = 7,
    scale: float = 0.33,
    repetitions: int = 3,
) -> Fig9Result:
    """iCrowd vs RandomMV / RandomEM / AvgAccPV, rep-averaged."""
    setup = make_setup(dataset, seed=seed, scale=scale)
    accuracies: dict[str, dict[str, float]] = {}
    for approach in ("RandomMV", "RandomEM", "AvgAccPV", "iCrowd"):
        accuracies[approach] = _mean_accuracy_row(
            approach, setup, f"fig9-{approach}", repetitions
        )
    return Fig9Result(
        dataset=dataset,
        domains=setup.tasks.domains(),
        accuracies=accuracies,
    )


# ----------------------------------------------------------------------
# Figure 10 — scalability of assignment
# ----------------------------------------------------------------------
@dataclass
class Fig10Result:
    sizes: list[int]
    neighbor_bounds: list[int]
    #: (num_tasks, max_neighbors) → elapsed seconds for the request batch
    elapsed: dict[tuple[int, int], float]
    requests_per_size: int

    def series(self, max_neighbors: int) -> list[float]:
        """Elapsed-time series across sizes for one neighbour bound."""
        return [self.elapsed[(n, max_neighbors)] for n in self.sizes]

    def format_table(self) -> str:
        """Render the size × neighbour-bound timing table."""
        lines = [
            f"Figure 10: assignment time for {self.requests_per_size} "
            f"requests (seconds)"
        ]
        header = ["# microtasks"] + [
            f"nbrs={m}" for m in self.neighbor_bounds
        ]
        widths = [max(14, len(h) + 2) for h in header]
        lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
        for n in self.sizes:
            cells = [f"{n:,}"] + [
                f"{self.elapsed[(n, m)]:.3f}" for m in self.neighbor_bounds
            ]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


def random_normalized_graph(
    num_tasks: int, max_neighbors: int, seed: int
) -> sparse.csr_matrix:
    """Random bounded-degree similarity graph, symmetric-normalised.

    Mirrors the paper's Section 6.5 workload: "given a maximal neighbor
    number, say 40, and a microtask, we randomly selected 40 microtasks
    as neighbors of the microtask".
    """
    rng = spawn_rng(seed, f"fig10-graph-{num_tasks}-{max_neighbors}")
    rows = np.repeat(np.arange(num_tasks), max_neighbors)
    cols = rng.integers(0, num_tasks, size=num_tasks * max_neighbors)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    data = rng.uniform(0.5, 1.0, size=len(rows))
    matrix = sparse.csr_matrix(
        (data, (rows, cols)), shape=(num_tasks, num_tasks)
    )
    matrix = matrix.maximum(matrix.T)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d_inv = sparse.diags(inv_sqrt)
    return (d_inv @ matrix @ d_inv).tocsr()


def fig10_scalability(
    sizes: list[int] | None = None,
    neighbor_bounds: list[int] | None = None,
    num_workers: int = 50,
    requests_per_size: int = 2000,
    seed: int = 7,
) -> Fig10Result:
    """Assignment elapsed time as |T| grows, per neighbour bound.

    The paper inserts 0.2M tasks per step up to 1M; the default sizes
    here are scaled to keep the bench quick — pass the paper's sizes
    explicitly to run at full scale.  The expected shape is sub-linear
    growth in |T| (per-request work depends on the local neighbourhood,
    not the corpus size) and higher cost for larger neighbour bounds.
    """
    sizes = sizes or [25_000, 50_000, 100_000, 200_000]
    neighbor_bounds = neighbor_bounds or [20, 40]
    elapsed: dict[tuple[int, int], float] = {}
    for max_neighbors in neighbor_bounds:
        for num_tasks in sizes:
            normalized = random_normalized_graph(
                num_tasks, max_neighbors, seed
            )
            assigner = StreamingAssigner(
                FrozenGraph(normalized), damping=0.5, k=3
            )
            rng = spawn_rng(seed, f"fig10-run-{num_tasks}-{max_neighbors}")
            workers = [f"w{i}" for i in range(num_workers)]
            start = time.perf_counter()
            for r in range(requests_per_size):
                worker = workers[r % num_workers]
                task = assigner.request(worker)
                if task is None:
                    break
                assigner.answer(worker, task, float(rng.random()))
            elapsed[(num_tasks, max_neighbors)] = (
                time.perf_counter() - start
            )
    return Fig10Result(
        sizes=sizes,
        neighbor_bounds=neighbor_bounds,
        elapsed=elapsed,
        requests_per_size=requests_per_size,
    )


@dataclass
class Fig10InsertionResult:
    """Per-insertion-round assignment timing (the paper's protocol)."""

    batch_size: int
    rounds: int
    requests_per_round: int
    #: elapsed seconds of the request/answer loop after each insertion
    elapsed_per_round: list[float]

    def format_table(self) -> str:
        """Render the per-round timing table."""
        lines = [
            f"Figure 10 (insertion protocol): {self.requests_per_round} "
            f"requests per round, {self.batch_size:,} tasks inserted "
            f"per round"
        ]
        lines.append(f"{'round':<8}{'total tasks':<14}{'elapsed (s)':<12}")
        for index, elapsed in enumerate(self.elapsed_per_round):
            total = self.batch_size * (index + 1)
            lines.append(f"{index + 1:<8}{total:<14,}{elapsed:<12.3f}")
        return "\n".join(lines)


def fig10_insertion(
    batch_size: int = 25_000,
    rounds: int = 4,
    max_neighbors: int = 20,
    num_workers: int = 50,
    requests_per_round: int = 2000,
    seed: int = 7,
) -> Fig10InsertionResult:
    """Section 6.5's actual protocol: grow the task set batch by batch.

    "Initially, the entire microtask set was empty.  We inserted 0.2
    million microtasks at each time and ran iCrowd to evaluate the
    efficiency."  Each round inserts ``batch_size`` tasks with random
    bounded-degree edges (which may attach to earlier batches), then
    times a fixed block of assignment requests.  The expected shape is
    a flat per-round time — per-request work is neighbourhood-local, so
    the accumulated corpus size does not matter.
    """
    rng = spawn_rng(seed, "fig10-insertion")
    graph = GrowableGraph()
    assigner = StreamingAssigner(graph, damping=0.5, k=3)
    workers = [f"w{i}" for i in range(num_workers)]
    elapsed_per_round: list[float] = []
    for _ in range(rounds):
        start_id = graph.num_tasks
        new_ids = assigner.insert_tasks(batch_size)
        # random bounded-degree edges over the *whole* current corpus
        total = graph.num_tasks
        sources = np.repeat(
            np.arange(start_id, start_id + batch_size), max_neighbors // 2
        )
        targets = rng.integers(0, total, size=len(sources))
        weights = rng.uniform(0.5, 1.0, size=len(sources))
        for i, j, w in zip(sources, targets, weights):
            if int(i) != int(j):
                graph.add_edge(int(i), int(j), float(w))
        start = time.perf_counter()
        for r in range(requests_per_round):
            worker = workers[r % num_workers]
            task = assigner.request(worker)
            if task is None:
                break
            assigner.answer(worker, task, float(rng.random()))
        elapsed_per_round.append(time.perf_counter() - start)
    return Fig10InsertionResult(
        batch_size=batch_size,
        rounds=rounds,
        requests_per_round=requests_per_round,
        elapsed_per_round=elapsed_per_round,
    )


# ----------------------------------------------------------------------
# Figure 12 — similarity measures and thresholds (Appendix D.1)
# ----------------------------------------------------------------------
@dataclass
class Fig12Result:
    dataset: str
    measures: list[str]
    thresholds: list[float]
    #: (measure, threshold) → overall accuracy
    accuracy: dict[tuple[str, float], float]

    def format_table(self) -> str:
        """Render the threshold × measure accuracy grid."""
        lines = [f"Figure 12 ({self.dataset}): similarity measure sweep"]
        header = ["threshold"] + self.measures
        widths = [max(12, len(h) + 2) for h in header]
        lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
        for threshold in self.thresholds:
            cells = [f"{threshold:.1f}"] + [
                _fmt(self.accuracy[(m, threshold)]) for m in self.measures
            ]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


def fig12_similarity(
    dataset: str = "itemcompare",
    seed: int = 7,
    scale: float = 0.2,
    measures: list[str] | None = None,
    thresholds: list[float] | None = None,
) -> Fig12Result:
    """iCrowd accuracy per similarity measure × threshold grid."""
    measures = measures or ["jaccard", "tfidf", "topic"]
    thresholds = thresholds or [0.2, 0.4, 0.6, 0.8]
    base = make_setup(dataset, seed=seed, scale=scale)
    accuracy: dict[tuple[str, float], float] = {}
    for measure in measures:
        for threshold in thresholds:
            graph_config = GraphConfig(
                measure=measure, threshold=threshold
            )
            setup = _setup_with_graph(base, graph_config)
            result = run_approach(
                "iCrowd", setup, run_tag=f"fig12-{measure}-{threshold}"
            )
            accuracy[(measure, threshold)] = result.overall_accuracy
    return Fig12Result(
        dataset=dataset,
        measures=measures,
        thresholds=thresholds,
        accuracy=accuracy,
    )


def _setup_with_graph(
    base: ExperimentSetup, graph_config: GraphConfig
) -> ExperimentSetup:
    """Re-derive a setup on the same tasks/workers with a new graph."""
    from dataclasses import replace

    from repro.core.qualification import select_qualification_tasks

    config = ICrowdConfig(
        estimator=base.config.estimator,
        assigner=base.config.assigner,
        qualification=base.config.qualification,
        graph=graph_config,
        seed=base.seed,
    )
    graph = SimilarityGraph.from_tasks(
        list(base.tasks), graph_config, seed=base.seed
    )
    estimator = AccuracyEstimator(graph, config.estimator)
    qualification = tuple(
        select_qualification_tasks(
            estimator.basis, config.qualification.num_qualification
        )
    )
    return replace(
        base,
        config=config,
        graph=graph,
        estimator=estimator,
        qualification_tasks=qualification,
    )


# ----------------------------------------------------------------------
# Figure 13 — parameter alpha (Appendix D.2)
# ----------------------------------------------------------------------
@dataclass
class Fig13Result:
    dataset: str
    alphas: list[float]
    accuracy: dict[float, float]

    def best_alpha(self) -> float:
        """The alpha with the highest measured accuracy."""
        return max(self.alphas, key=lambda a: self.accuracy[a])

    def format_table(self) -> str:
        """Render the alpha sweep table."""
        lines = [f"Figure 13 ({self.dataset}): alpha sweep"]
        lines.append(f"{'alpha':<10}{'accuracy':<10}")
        for alpha in self.alphas:
            lines.append(f"{alpha:<10}{_fmt(self.accuracy[alpha]):<10}")
        return "\n".join(lines)


def fig13_alpha(
    dataset: str = "itemcompare",
    seed: int = 7,
    scale: float = 0.33,
    alphas: list[float] | None = None,
    repetitions: int = 3,
) -> Fig13Result:
    """iCrowd accuracy across the α spectrum, rep-averaged (the paper
    settles on α = 1.0)."""
    alphas = alphas if alphas is not None else [0.0, 0.1, 1.0, 10.0, 100.0]
    base = make_setup(dataset, seed=seed, scale=scale)
    accuracy: dict[float, float] = {}
    for alpha in alphas:
        setup = base.with_config(base.config.with_alpha(alpha))
        accuracy[alpha] = _mean_accuracy_row(
            "iCrowd", setup, f"fig13-{alpha}", repetitions
        )["ALL"]
    return Fig13Result(dataset=dataset, alphas=alphas, accuracy=accuracy)


# ----------------------------------------------------------------------
# Figure 14 — assignment size k (Appendix D.3)
# ----------------------------------------------------------------------
@dataclass
class Fig14Result:
    dataset: str
    ks: list[int]
    approaches: list[str]
    accuracy: dict[tuple[str, int], float]

    def series(self, approach: str) -> list[float]:
        """Accuracy series across k for one approach."""
        return [self.accuracy[(approach, k)] for k in self.ks]

    def format_table(self) -> str:
        """Render the k × approach accuracy table."""
        lines = [f"Figure 14 ({self.dataset}): assignment size sweep"]
        header = ["k"] + self.approaches
        widths = [max(12, len(h) + 2) for h in header]
        lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
        for k in self.ks:
            cells = [str(k)] + [
                _fmt(self.accuracy[(a, k)]) for a in self.approaches
            ]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


def fig14_assignment_size(
    dataset: str = "itemcompare",
    seed: int = 7,
    scale: float = 0.25,
    ks: list[int] | None = None,
    approaches: list[str] | None = None,
    repetitions: int = 3,
) -> Fig14Result:
    """Accuracy of the four compared approaches as k varies
    (rep-averaged)."""
    ks = ks or [1, 3, 5]
    approaches = approaches or ["RandomMV", "RandomEM", "AvgAccPV", "iCrowd"]
    setup = make_setup(dataset, seed=seed, scale=scale)
    accuracy: dict[tuple[str, int], float] = {}
    for k in ks:
        for approach in approaches:
            accuracy[(approach, k)] = _mean_accuracy_row(
                approach, setup, f"fig14-{approach}-{k}",
                repetitions, k=k,
            )["ALL"]
    return Fig14Result(
        dataset=dataset, ks=ks, approaches=approaches, accuracy=accuracy
    )


# ----------------------------------------------------------------------
# Table 5 — approximation error of the greedy assignment (Appendix D.4)
# ----------------------------------------------------------------------
@dataclass
class Table5Result:
    worker_counts: list[int]
    error_percent: dict[int, float]

    def format_table(self) -> str:
        """Render the approximation-error row."""
        lines = ["Table 5: greedy assignment approximation error"]
        header = "".join(
            f"{n:<8}" for n in ["workers"] + self.worker_counts
        )
        values = "".join(
            [f"{'err %':<8}"]
            + [f"{self.error_percent[n]:<8.2f}" for n in self.worker_counts]
        )
        lines.extend([header, values])
        return "\n".join(lines)


def table5_approximation(
    dataset: str = "itemcompare",
    seed: int = 7,
    scale: float = 1.0,
    worker_counts: list[int] | None = None,
    k: int = 3,
    max_tasks: int = 100,
    num_snapshots: int = 10,
) -> Table5Result:
    """Greedy (Algorithm 3) vs exact optimum, varying active workers.

    Reconstructs the Appendix D.4 snapshot: sample ``max_tasks``
    still-uncompleted tasks mid-run (some already holding assignments),
    estimate worker accuracies as true per-domain accuracies plus
    estimation noise, build all top worker sets and compare the greedy
    scheme against the exact optimum.  ``num_snapshots`` independent
    snapshots are averaged (a single snapshot usually has enough
    substitutable candidates for greedy to be exactly optimal).
    """
    worker_counts = worker_counts or [3, 4, 5, 6, 7]
    setup = make_setup(dataset, seed=seed, scale=scale)
    rng = spawn_rng(seed, "table5-noise")
    errors: dict[int, float] = {}
    for count in worker_counts:
        profiles = list(setup.profiles)[:count]
        workers = [p.worker_id for p in profiles]
        snapshot_errors = []
        for _ in range(num_snapshots):
            accuracies = {}
            for profile in profiles:
                # mid-run estimates: true accuracy + estimation noise
                noise = rng.normal(0.0, 0.1, size=len(setup.tasks))
                vector = np.array(
                    [
                        profile.accuracy(task.domain)
                        for task in setup.tasks
                    ]
                )
                accuracies[profile.worker_id] = np.clip(
                    vector + noise, 0, 1
                )
            # mid-run snapshot: a subset of tasks remains, some already
            # holding assignments, so top worker sets vary in size and
            # composition like they do in a live run
            pool = [
                t
                for t in setup.tasks.ids()
                if t not in set(setup.qualification_tasks)
            ]
            chosen = rng.choice(
                pool, size=min(max_tasks, len(pool)), replace=False
            )
            states = []
            for t in sorted(int(x) for x in chosen):
                already = int(rng.integers(0, min(3, count)))
                assigned = set(
                    rng.choice(workers, size=already, replace=False)
                )
                states.append(
                    TaskState(task_id=t, k=k, assigned_workers=assigned)
                )
            arrays = compute_top_worker_sets_fast(
                states, workers, accuracies
            )
            candidates = [arrays.top_set(i) for i in range(len(arrays))]
            snapshot_errors.append(
                approximation_error(candidates, greedy_assign(arrays))
            )
        errors[count] = float(np.mean(snapshot_errors))
    return Table5Result(worker_counts=worker_counts, error_percent=errors)


# ----------------------------------------------------------------------
# Figure 15 — assignment distribution over workers (Appendix D.5)
# ----------------------------------------------------------------------
@dataclass
class Fig15Result:
    dataset: str
    total_assignments: int
    #: (worker, completed assignments), descending
    top_workers: list[tuple[str, int]]

    def top_share(self, n: int = 15) -> float:
        """Fraction of all assignments completed by the top-n workers."""
        if self.total_assignments == 0:
            return 0.0
        top = sum(count for _, count in self.top_workers[:n])
        return top / self.total_assignments

    def format_table(self) -> str:
        """Render the per-worker assignment counts."""
        lines = [
            f"Figure 15 ({self.dataset}): assignments per top worker "
            f"(total {self.total_assignments})"
        ]
        lines.append(f"{'worker':<10}{'answers':<10}{'share':<8}")
        for worker_id, count in self.top_workers[:15]:
            share = count / max(self.total_assignments, 1)
            lines.append(f"{worker_id:<10}{count:<10}{share:<8.3f}")
        lines.append(f"top-15 share: {self.top_share(15):.3f}")
        return "\n".join(lines)


def fig15_distribution(
    dataset: str = "itemcompare", seed: int = 7, scale: float = 0.33
) -> Fig15Result:
    """Assignment counts per worker for a full iCrowd run."""
    setup = make_setup(dataset, seed=seed, scale=scale)
    result = run_approach("iCrowd", setup, run_tag="fig15")
    counts = result.report.events.assignment_counts()
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Fig15Result(
        dataset=dataset,
        total_assignments=sum(counts.values()),
        top_workers=ordered,
    )
