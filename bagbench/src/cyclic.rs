//! `cyclic_cli`: Theorem 4's NP-complete branch through the CLI.
//!
//! One `bagcons check` process per instance of the fixed suite of
//! [`crate::inputs::CYCLIC_SUITE`]: planted C3 (3DCT margins) and C4
//! instances, bumped copies, and planted-plus-Tseitin-gadget instances
//! (pairwise consistent, globally inconsistent — the paper's
//! obstruction). Each instance is saved as a snapshot during set-up and
//! checked from it; the exact search does almost all of the work.

use crate::calib::{Calib, Timed};
use crate::inputs::{self, Instance};
use crate::proc::{children_peak_rss_mb, Run};
use crate::trace::Tracer;
use crate::verify::{self, PairRule};
use crate::{session, stats, Ctx, Report, SETUP_REPS};
use bagcons::global::globally_consistent_via_ilp;
use bagcons::report::{Render, ReportFormat};
use bagcons::session::Decision;
use bagcons_core::Bag;
use bagcons_lp::IlpOutcome;
use std::path::Path;
use std::time::Instant;

fn generate(ctx: &Ctx, report: &mut Report) -> Result<Vec<Instance>, String> {
    let suite = inputs::cyclic(&ctx.scale, ctx.seed, &ctx.dir).map_err(|e| e.to_string())?;
    report.param("instances", suite.len());
    report.param(
        "c3",
        "planted_family(cycle(3)) domain 6, witness support 45, mult <= 4",
    );
    report.param(
        "c4",
        "planted_family(cycle(4)) domain 5, witness support 80, mult <= 4",
    );
    let order: Vec<String> = suite.iter().map(Instance::label).collect();
    report.param("order", order.join(","));
    Ok(suite)
}

/// `bagcons snapshot save` of every instance; the pass's wall time in s.
fn save_all(ctx: &mut Ctx, suite: &[Instance]) -> Result<f64, String> {
    let mut total_ms = 0.0;
    for inst in suite {
        let mut args = vec![Path::new("save"), inst.snapshot.as_path()];
        args.extend(inst.texts.iter().map(|p| p.as_path()));
        let run = ctx
            .bin
            .run("snapshot", &args)
            .map_err(|e| format!("snapshot save: {e}"))?;
        ctx.ledger.record(if run.code == 0 {
            Ok(())
        } else {
            Err(format!("snapshot save exited {}", run.code))
        });
        total_ms += run.ms;
    }
    Ok(total_ms / 1e3)
}

fn check(ctx: &Ctx, inst: &Instance) -> Result<Run, String> {
    ctx.bin
        .run_with("check", &["--format", "json"], &[inst.snapshot.as_path()])
        .map_err(|e| format!("check: {e}"))
}

/// The ground truth of `inst`, as a check on the report.
fn verify_check(run: &Run, inst: &Instance) -> Result<(), String> {
    verify::check_report(run, inst.consistent, PairRule::IfReported(inst.pair))
        .map_err(|e| format!("{}: {e}", inst.label()))
}

pub fn end_to_end(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let suite = generate(ctx, &mut report)?;
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setup.push(save_all(ctx, &suite)?);
    }
    for inst in &suite {
        ctx.ledger
            .record(verify::loads_as(&inst.snapshot, &inst.bags));
    }
    report.setup(&setup);

    let mut calib = Calib::new();
    let [mut planted, mut refuted, mut passes]: [Timed; 3] = Default::default();
    // The first pass warms the page cache and is not measured.
    let mut start = Instant::now();
    let mut pass = 0;
    while pass == 0 || !ctx.out_of_time(start) {
        if pass == 1 {
            for timed in [&mut planted, &mut refuted, &mut passes] {
                timed.clear();
            }
            start = Instant::now();
        }
        pass += 1;
        let mut this_pass = Timed::default();
        for inst in &suite {
            let probe = calib.probe();
            let run = check(ctx, inst)?;
            ctx.ledger.record(verify_check(&run, inst));
            this_pass.push(run.ms, probe);
            if inst.consistent {
                planted.push(run.ms, probe);
            } else {
                refuted.push(run.ms, probe);
            }
        }
        passes.push_total(&this_pass);
    }
    report.throughput(planted.len() + refuted.len(), &[&planted, &refuted]);
    report.median_probes("check_p50", &planted);
    report.median_probes("refute_p50", &refuted);
    report.median_probes("heavy_p50", &passes);
    report.probe(&calib);
    let ops = suite.len() * passes.len();
    report.set(
        "rss_mb",
        children_peak_rss_mb(),
        ops + SETUP_REPS * suite.len(),
    );
    Ok(report)
}

/// One in-process replay of the suite: the set-up's text parse, each
/// instance's `check` as the CLI runs it, and the layer calls that make
/// up the cyclic branch of `Session::check`.
fn replay(t: &mut Tracer, suite: &[Instance], ledger: &mut crate::Ledger) {
    t.op("suite_parse", |t| {
        for inst in suite {
            let mut s = session();
            for f in &inst.texts {
                let bags = t
                    .span("core.io.parse_seal", || s.load_path(f))
                    .expect("generated text loads");
                t.count(
                    "core.io.rows",
                    bags.iter().map(Bag::support_size).sum::<usize>() as f64,
                );
            }
        }
    });
    let decisions = t.op("suite_check", |t| {
        let mut decisions = Vec::with_capacity(suite.len());
        for inst in suite {
            let mut s = session();
            let bags = t
                .span("snap.open", || s.load_path(&inst.snapshot))
                .expect("snapshot loads");
            let bytes = std::fs::metadata(&inst.snapshot).map_or(0, |m| m.len());
            t.count("snap.bytes", bytes as f64);
            let refs: Vec<&Bag> = bags.iter().collect();
            let out = t
                .span("consistency.session.check", || s.check(&refs))
                .expect("check succeeds");
            let json = t.span("consistency.report.render", || {
                out.render(ReportFormat::Json, s.names())
            });
            t.count("consistency.report.bytes", json.len() as f64);
            decisions.push(out.decision);
        }
        decisions
    });
    for (inst, got) in suite.iter().zip(decisions) {
        let want = if inst.consistent {
            Decision::Consistent
        } else {
            Decision::Inconsistent
        };
        ledger.record(if got == want {
            Ok(())
        } else {
            Err(format!(
                "in-process check of {} decided {got:?}",
                inst.label()
            ))
        });
    }
    let outcomes = t.op("suite_layers", |t| {
        let mut outcomes = Vec::with_capacity(suite.len());
        for inst in suite {
            let s = session();
            let refs: Vec<&Bag> = inst.bags.iter().collect();
            let schema = t.span("hypergraph.schema", || s.schema_report(&refs));
            assert!(!schema.acyclic, "cycles are cyclic");
            let decision = t
                .span("lp.ilp.search", || {
                    globally_consistent_via_ilp(&refs, s.solver())
                })
                .expect("search runs");
            t.count("lp.ilp.search_nodes", decision.stats.nodes as f64);
            let decided = !matches!(decision.outcome, IlpOutcome::Aborted(_));
            t.count("lp.ilp.decided", f64::from(u8::from(decided)));
            t.count("lp.ilp.instances", 1.0);
            outcomes.push(decision.outcome.is_sat());
        }
        outcomes
    });
    for (inst, sat) in suite.iter().zip(outcomes) {
        ledger.record(if sat == inst.consistent {
            Ok(())
        } else {
            Err(format!(
                "in-process search of {} answered sat={sat}",
                inst.label()
            ))
        });
    }
}

pub fn traced(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let suite = generate(ctx, &mut report)?;
    save_all(ctx, &suite)?;
    let start = Instant::now();

    // Traced and untraced replays alternate; their difference is the
    // tracing overhead. Each round also runs one untraced suite pass of
    // processes, the reference for `cli.overhead_ms`.
    let mut cli_ms = Vec::new();
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    while on_ms.is_empty() || !ctx.out_of_time(start) {
        let mut pass_ms = 0.0;
        for inst in &suite {
            let run = check(ctx, inst)?;
            ctx.ledger.record(verify_check(&run, inst));
            pass_ms += run.ms;
        }
        cli_ms.push(pass_ms);
        for (tracer, times) in [(&mut on, &mut on_ms), (&mut off, &mut off_ms)] {
            let t0 = Instant::now();
            replay(tracer, &suite, &mut ctx.ledger);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    on.write_jsonl(&ctx.spans_path())
        .map_err(|e| format!("write spans: {e}"))?;

    let t = &on;
    report.span_median(
        t,
        "core.io.parse_seal_ms",
        "suite_parse",
        "core.io.parse_seal",
        1.0,
    );
    report.count_median(t, "core.io.rows", "suite_parse", "core.io.rows");
    report.span_median(t, "snap.open_ms", "suite_check", "snap.open", 1.0);
    report.count_median(t, "snap.bytes", "suite_check", "snap.bytes");
    report.span_median(
        t,
        "hypergraph.schema_us",
        "suite_layers",
        "hypergraph.schema",
        1e3,
    );
    report.span_median(
        t,
        "consistency.session.check_ms",
        "suite_check",
        "consistency.session.check",
        1.0,
    );
    report.span_median(
        t,
        "consistency.report.render_ms",
        "suite_check",
        "consistency.report.render",
        1.0,
    );
    report.count_median(
        t,
        "consistency.report.bytes",
        "suite_check",
        "consistency.report.bytes",
    );
    report.span_median(t, "lp.ilp.search_ms", "suite_layers", "lp.ilp.search", 1.0);
    report.count_median(
        t,
        "lp.ilp.search_nodes",
        "suite_layers",
        "lp.ilp.search_nodes",
    );
    if let (Some(nodes), Some(ms)) = (
        report.get("lp.ilp.search_nodes"),
        report.get("lp.ilp.search_ms"),
    ) {
        report.set("lp.ilp.nodes_per_ms", nodes / ms, on_ms.len());
    }
    let decided: f64 = t
        .per_op_count("suite_layers", "lp.ilp.decided")
        .iter()
        .sum();
    let tried: f64 = t
        .per_op_count("suite_layers", "lp.ilp.instances")
        .iter()
        .sum();
    report.set("lp.ilp.decided_ratio", decided / tried, tried as usize);

    let in_process: f64 = [
        "snap.open",
        "consistency.session.check",
        "consistency.report.render",
    ]
    .iter()
    .filter_map(|span| stats::median(&t.per_op_ms("suite_check", span)))
    .sum();
    if let Some(cli) = stats::median(&cli_ms) {
        report.set(
            "cli.overhead_ms",
            (cli - in_process) / suite.len() as f64,
            cli_ms.len(),
        );
    }
    if let (Some(schema), Some(search), Some(check)) = (
        report.get("hypergraph.schema_us"),
        report.get("lp.ilp.search_ms"),
        report.get("consistency.session.check_ms"),
    ) {
        report.set(
            "trace.check_accounted_ratio",
            (schema / 1e3 + search) / check,
            on_ms.len(),
        );
    }
    report.finish_trace(&on, &on_ms, &off_ms);
    Ok(report)
}
