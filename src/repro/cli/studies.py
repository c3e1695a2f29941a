"""Studies of the system: ``classify``, ``scenarios``, ``experiments``,
``trace``.

``classify probe`` classifies a federation's databases by query probing
(hit counts only) and can persist the router beside a model store;
``classify bench`` and ``scenarios bench`` write the committed
``BENCH_classify.json`` / ``BENCH_scenarios.json``; ``experiments``
regenerates the paper's figures and tables; ``trace`` renders the
per-database report of a ``--trace`` file (:mod:`repro.obs`).
"""

from __future__ import annotations

from repro.cli import _federation_servers, _UsageError
from repro.obs import format_trace_report, read_trace
from repro.synth.profiles import PROFILES_BY_NAME
from repro.utils.table import format_table


def cmd_classify_probe(args) -> int:
    from repro.classify import (
        ClassifyParameters,
        QueryProbeClassifier,
        TopicRouter,
        build_probe_set,
        save_router,
    )

    try:
        params = ClassifyParameters(
            tau_coverage=args.tau_coverage,
            tau_specificity=args.tau_specificity,
            probes_per_topic=args.probes_per_topic,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    servers = _federation_servers(args)
    space = PROFILES_BY_NAME[args.profile]().topic_space(
        seed=args.seed, scale=args.scale
    )
    probe_set = build_probe_set(space, seed=args.seed)
    classifier = QueryProbeClassifier(probe_set, params)
    classifications = classifier.classify_all(servers)
    rows = [
        {
            "database": name,
            "assigned": ",".join(c.assigned) or "-",
            "confidence": round(c.confidence, 3),
            "probes": c.probes_issued,
        }
        for name, c in classifications.items()
    ]
    print(
        format_table(
            rows,
            title=f"Classification over {len(probe_set.topics)} topics "
            f"(budget {args.probes_per_topic} probes/topic)",
        )
    )
    diffuse = [name for name, c in classifications.items() if not c.assigned]
    if diffuse:
        print(f"topically diffuse (will broadcast): {', '.join(diffuse)}")
    if args.save_router:
        router = TopicRouter.from_probes(probe_set, classifications)
        path = save_router(router, args.save_router)
        print(f"saved classifications -> {path}")
    return 0


def cmd_classify_bench(args) -> int:
    from repro.experiments.classify_bench import (
        format_classify_bench,
        run_classify_bench,
        write_classify_bench,
    )

    if args.databases < 2:
        raise _UsageError("--databases must be >= 2")
    if any(budget <= 0 for budget in args.budgets):
        raise _UsageError("--budgets must be positive")
    report = run_classify_bench(
        profile=args.profile,
        num_databases=args.databases,
        scale=args.scale,
        seeds=tuple(args.seeds),
        budgets=tuple(args.budgets),
        databases_per_query=args.databases_per_query,
        n=args.n,
    )
    print(format_classify_bench(report))
    write_classify_bench(report, args.output)
    print(f"\nwrote {args.output}")
    return 0


def cmd_scenarios_list(args) -> int:
    from repro.scenarios import SCENARIO_SPECS

    for spec in SCENARIO_SPECS:
        print(f"{spec.name}: {spec.description}")
        print(f"  breaks: {spec.breaks}")
        print(f"  signal: {spec.signal}")
    return 0


def cmd_scenarios_bench(args) -> int:
    from repro.scenarios import (
        format_scenarios_bench,
        run_scenarios_bench,
        scenario_names,
        write_scenarios_bench,
    )

    if args.scale <= 0:
        raise _UsageError("--scale must be positive")
    if args.only:
        unknown = sorted(set(args.only) - set(scenario_names()))
        if unknown:
            raise _UsageError(
                f"unknown scenarios: {', '.join(unknown)} "
                f"(known: {', '.join(scenario_names())})"
            )
    report = run_scenarios_bench(scale=args.scale, seed=args.seed, only=args.only)
    print(format_scenarios_bench(report))
    write_scenarios_bench(report, args.output)
    print(f"\nwrote {args.output}")
    return 0 if report.all_passed else 1


def cmd_experiments(args) -> int:
    # Imported lazily: the experiments package pulls in the synthetic
    # corpus machinery, which the file-based subcommands never need.
    from repro.experiments import (
        Testbed,
        curve_series,
        figure1_and_2_curves,
        figure3_strategy_curves,
        figure4_rdiff_series,
        format_series,
        table2_docs_per_query,
    )

    if args.workers < 1:
        raise _UsageError("--workers must be >= 1")
    wanted = set(args.only) if args.only else {"fig1", "fig3", "fig4", "table2", "table3"}
    seeds = tuple(args.seeds)
    testbed = Testbed(seed=args.seed, scale=args.scale)
    if "fig1" in wanted:
        curves = figure1_and_2_curves(testbed, seeds=seeds, workers=args.workers)
        for metric, title in (
            ("percentage_learned", "Figure 1a: fraction of terms learned"),
            ("ctf_ratio", "Figure 1b: ctf ratio"),
            ("spearman", "Figure 2: Spearman rank correlation"),
        ):
            print(format_series(curve_series(curves, metric), title=title))
            print()
    run_fig3 = "fig3" in wanted
    if run_fig3 or "table3" in wanted:
        results = figure3_strategy_curves(testbed, seeds=seeds, workers=args.workers)
        if run_fig3:
            strategy_curves = {label: curve for label, (curve, _) in results.items()}
            print(
                format_series(
                    curve_series(strategy_curves, "ctf_ratio"),
                    title="Figure 3: ctf ratio by query-selection strategy (wsj88)",
                )
            )
            print()
        if "table3" in wanted:
            rows = [
                {"strategy": label, "mean_queries": round(queries, 1)}
                for label, (_, queries) in results.items()
            ]
            print(format_table(rows, title="Table 3: queries to exhaust the budget"))
            print()
    if "fig4" in wanted:
        series = figure4_rdiff_series(testbed, seeds=seeds, workers=args.workers)
        print(format_series(series, title="Figure 4: rdiff between snapshots"))
        print()
    if "table2" in wanted:
        rows = table2_docs_per_query(testbed, seeds=seeds, workers=args.workers)
        print(format_table(rows, title="Table 2: effect of docs per query (N)"))
        print()
    return 0


def cmd_trace(args) -> int:
    try:
        records = read_trace(args.trace_file)
    except OSError as exc:
        raise _UsageError(f"cannot read trace file: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(f"invalid trace file: {exc}") from exc
    print(format_trace_report(records))
    return 0
