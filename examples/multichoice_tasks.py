"""Multi-choice microtasks: the Section 2.1 extension in action.

The paper presents binary tasks "for ease of presentation" and notes
the techniques extend to more choices.  This example runs a 4-choice
classification job (which cuisine does a dish belong to?) through
:class:`repro.core.ICrowd` itself: the task set carries the four
cuisines as its answer alphabet, warm-up grades workers on
qualification dishes, plurality voting resolves tasks, Eq. (5) over
four labels grades workers against the consensus, and the similarity
graph routes estimation and assignment exactly as in the binary case.

The script exits with status 1 unless every non-qualification dish
reaches consensus, so it doubles as an end-to-end check of the
m-choice path.

Run:  python examples/multichoice_tasks.py
"""

import sys

import numpy as np

from repro.core import ICrowd, ICrowdConfig, SimilarityGraph, Task, TaskSet
from repro.core.config import QualificationConfig
from repro.utils.rng import spawn_rng

CUISINES = ("italian", "japanese", "mexican", "indian")

#: (dish description, true cuisine, topical cluster)
DISHES = [
    ("wood fired margherita pizza basil", "italian", 0),
    ("spaghetti carbonara pancetta pecorino", "italian", 0),
    ("lasagna bolognese ragu parmesan", "italian", 0),
    ("risotto saffron parmesan butter", "italian", 0),
    ("tonkotsu ramen chashu noodles broth", "japanese", 1),
    ("salmon nigiri sushi rice wasabi", "japanese", 1),
    ("chicken katsu curry rice panko", "japanese", 1),
    ("miso soup tofu seaweed dashi", "japanese", 1),
    ("al pastor tacos pineapple tortilla", "mexican", 2),
    ("chicken enchiladas salsa verde", "mexican", 2),
    ("pozole hominy stew chile", "mexican", 2),
    ("tamales masa corn husk filling", "mexican", 2),
    ("butter chicken makhani naan", "indian", 3),
    ("palak paneer spinach cheese curry", "indian", 3),
    ("lamb biryani basmati saffron", "indian", 3),
    ("masala dosa potato chutney sambar", "indian", 3),
]

#: per-cluster accuracy of each worker: two regional experts, a
#: generalist and a guesser
EXPERTISE = {
    "marco": (0.95, 0.4, 0.4, 0.35),
    "yuki": (0.4, 0.95, 0.35, 0.9),
    "lupe": (0.5, 0.5, 0.95, 0.6),
    "sam": (0.75, 0.75, 0.75, 0.75),
    "pat": (0.55, 0.55, 0.55, 0.55),
}


def main() -> int:
    rng = spawn_rng(4, "multichoice-demo")
    tasks = TaskSet(
        [
            Task(task_id=i, text=text, domain=truth, truth=truth)
            for i, (text, truth, _) in enumerate(DISHES)
        ],
        CUISINES,
    )
    # similarity graph: cluster cliques (in practice: Jaccard on text)
    edges = []
    for cluster in range(len(CUISINES)):
        members = [i for i, (_, _, c) in enumerate(DISHES) if c == cluster]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                edges.append((members[a], members[b], 1.0))
    config = ICrowdConfig(
        qualification=QualificationConfig(
            num_qualification=4, qualification_threshold=0.25
        ),
        seed=4,
    )
    icrowd = ICrowd(
        tasks, config, graph=SimilarityGraph.from_edges(len(DISHES), edges)
    )
    print(f"qualification dishes: {icrowd.qualification_tasks}")

    def answer(worker, dish):
        _, truth, cluster = DISHES[dish]
        if rng.random() < EXPERTISE[worker][cluster]:
            return truth
        wrong = [c for c in CUISINES if c != truth]
        return wrong[int(rng.integers(0, len(wrong)))]

    # the request/answer loop a platform runs: workers take turns; a
    # request without active_workers plans over the activity window
    workers = list(EXPERTISE)
    answers = 0
    for step in range(400):
        if icrowd.is_finished():
            break
        worker = workers[step % len(workers)]
        assignment = icrowd.on_worker_request(worker)
        if assignment is None:
            continue
        icrowd.on_answer(
            worker,
            assignment.task_id,
            answer(worker, assignment.task_id),
            assignment.is_test,
        )
        answers += 1

    open_tasks = icrowd.uncompleted_tasks()
    predictions = icrowd.predictions()
    scored = [
        i for i in range(len(DISHES)) if i not in icrowd.qualification_tasks
    ]
    correct = sum(1 for i in scored if predictions[i] == DISHES[i][1])
    print(
        f"{len(scored) - len(open_tasks)}/{len(scored)} dishes reached "
        f"consensus after {answers} answers; plurality accuracy "
        f"{correct}/{len(scored)}"
    )
    rejected = [w for w in workers if icrowd.is_worker_rejected(w)]
    print(f"rejected in warm-up: {rejected or 'nobody'}")

    print("\nestimated accuracy by cuisine cluster:")
    print("  " + " " * 8 + "".join(f"{c:>10}" for c in CUISINES))
    for worker in workers:
        if worker in rejected:
            continue
        estimate = icrowd.estimate_for(worker)
        means = [
            np.mean([estimate[i] for i, d in enumerate(DISHES) if d[2] == c])
            for c in range(len(CUISINES))
        ]
        print(f"  {worker:<8}" + "".join(f"{m:>10.3f}" for m in means))

    if open_tasks:
        print(f"dishes left without consensus: {open_tasks}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
