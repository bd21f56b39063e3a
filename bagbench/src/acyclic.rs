//! `acyclic_cli`: Theorem 4's polynomial branch through the CLI.
//!
//! A `planted_family` over `path(6)` (five bags, witness support =
//! domain = 2^14, multiplicities up to 2^12) is written as scrambled
//! text and, during set-up, as one `bagcons snapshot save` file. A copy
//! has one tuple of the *last* bag bumped, so the pairwise screen walks
//! the pairs before bag 4's first one refuses. The loop cycles `check`
//! (text), `check` (snapshot), `check` (bumped text), and `witness`
//! (snapshot, output consumed and verified).

use crate::calib::{Calib, Timed};
use crate::inputs::{self, AcyclicInputs};
use crate::proc::{children_peak_rss_mb, Run};
use crate::trace::Tracer;
use crate::verify::{self, PairRule};
use crate::{session, stats, Ctx, Report, SETUP_REPS};
use bagcons::acyclic::WitnessStrategy;
use bagcons::report::{Render, ReportFormat};
use bagcons::session::{Decision, Session};
use bagcons_core::Bag;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn paths(v: &[PathBuf]) -> Vec<&Path> {
    v.iter().map(PathBuf::as_path).collect()
}

/// `bagcons snapshot save` of the family; returns its wall time in s.
fn save_snapshot(ctx: &mut Ctx, inp: &AcyclicInputs) -> Result<f64, String> {
    let mut args = vec![Path::new("save"), inp.snapshot.as_path()];
    args.extend(paths(&inp.texts));
    let run = ctx
        .bin
        .run("snapshot", &args)
        .map_err(|e| format!("snapshot save: {e}"))?;
    ctx.ledger.record(if run.code == 0 {
        Ok(())
    } else {
        Err(format!("snapshot save exited {}", run.code))
    });
    Ok(run.ms / 1e3)
}

fn check(ctx: &Ctx, files: &[&Path]) -> Result<Run, String> {
    ctx.bin
        .run_with("check", &["--format", "json"], files)
        .map_err(|e| format!("check: {e}"))
}

fn generate(ctx: &Ctx, report: &mut Report) -> Result<AcyclicInputs, String> {
    let inp = inputs::acyclic(&ctx.scale, ctx.seed, &ctx.dir).map_err(|e| e.to_string())?;
    report.param("family", "planted_family(path(6))");
    report.param("witness_support", ctx.scale.acyclic_support);
    report.param("domain", ctx.scale.acyclic_support);
    report.param("max_mult", ctx.scale.path_max_mult);
    report.param(
        "input_rows",
        inp.bags.iter().map(Bag::support_size).sum::<usize>(),
    );
    report.param("bumped_bag", inp.bags.len() - 1);
    Ok(inp)
}

pub fn end_to_end(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let inp = generate(ctx, &mut report)?;

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setup.push(save_snapshot(ctx, &inp)?);
    }
    ctx.ledger
        .record(verify::loads_as(&inp.snapshot, &inp.bags));
    report.setup(&setup);

    let texts = paths(&inp.texts);
    let bumped = paths(&inp.bumped_texts);
    let snap = [inp.snapshot.as_path()];
    let mut calib = Calib::new();
    let [mut check_t, mut snap_t, mut refute_t, mut witness_t]: [Timed; 4] = Default::default();
    // The first cycle warms the page cache and is not measured.
    let mut start = Instant::now();
    let mut cycle = 0;
    while cycle == 0 || !ctx.out_of_time(start) {
        if cycle == 1 {
            for timed in [&mut check_t, &mut snap_t, &mut refute_t, &mut witness_t] {
                timed.clear();
            }
            start = Instant::now();
        }
        cycle += 1;
        let probe = calib.probe();
        let run = check(ctx, &texts)?;
        ctx.ledger
            .record(verify::check_report(&run, true, PairRule::Exactly(None)));
        check_t.push(run.ms, probe);

        let probe = calib.probe();
        let run = check(ctx, &snap)?;
        ctx.ledger
            .record(verify::check_report(&run, true, PairRule::Exactly(None)));
        snap_t.push(run.ms, probe);

        let probe = calib.probe();
        let run = check(ctx, &bumped)?;
        ctx.ledger.record(verify::check_report(
            &run,
            false,
            PairRule::Exactly(Some(inp.bumped_pair)),
        ));
        refute_t.push(run.ms, probe);

        let probe = calib.probe();
        let run = ctx
            .bin
            .run("witness", &snap)
            .map_err(|e| format!("witness: {e}"))?;
        ctx.ledger.record(verify::witness_output(&run, &inp.bags));
        witness_t.push(run.ms, probe);
    }
    let ops = 4 * check_t.len();
    report.throughput(ops, &[&check_t, &snap_t, &refute_t, &witness_t]);
    report.median_probes("check_p50", &check_t);
    report.median_probes("refute_p50", &refute_t);
    report.median_probes("heavy_p50", &witness_t);
    report.median_probes("check_snapshot_p50", &snap_t);
    report.probe(&calib);
    report.set("rss_mb", children_peak_rss_mb(), ops + SETUP_REPS);
    Ok(report)
}

/// Loads `files` as the CLI does, one `core.io.parse_seal` (text) or
/// `snap.open` (snapshot) span per file.
fn load(t: &mut Tracer, s: &mut Session, files: &[PathBuf], span: &'static str) -> Vec<Bag> {
    let mut bags = Vec::new();
    for f in files {
        let loaded = t
            .span(span, || s.load_path(f))
            .expect("generated inputs load");
        let rows: usize = loaded.iter().map(Bag::support_size).sum();
        bags.extend(loaded);
        match span {
            "snap.open" => {
                let bytes = std::fs::metadata(f).map_or(0, |m| m.len());
                t.count("snap.bytes", bytes as f64);
            }
            _ => t.count("core.io.rows", rows as f64),
        }
    }
    bags
}

/// `check` as the CLI runs it: load, decide, render the JSON report.
fn check_op(t: &mut Tracer, files: &[PathBuf], span: &'static str) -> Decision {
    let mut s = session();
    let bags = load(t, &mut s, files, span);
    let refs: Vec<&Bag> = bags.iter().collect();
    let out = t
        .span("consistency.session.check", || s.check(&refs))
        .expect("check succeeds");
    let json = t.span("consistency.report.render", || {
        out.render(ReportFormat::Json, s.names())
    });
    t.count("consistency.report.bytes", json.len() as f64);
    out.decision
}

/// One in-process replay of every operation the loop runs, plus the
/// layer calls that make up `Session::check` and the witness chain.
fn replay(t: &mut Tracer, inp: &AcyclicInputs, ledger: &mut crate::Ledger) {
    let snap = std::slice::from_ref(&inp.snapshot);
    let decided = t.op("check_text", |t| {
        check_op(t, &inp.texts, "core.io.parse_seal")
    });
    ledger.record(expect(decided, Decision::Consistent));
    let decided = t.op("check_snap", |t| check_op(t, snap, "snap.open"));
    ledger.record(expect(decided, Decision::Consistent));
    let decided = t.op("refute_text", |t| {
        check_op(t, &inp.bumped_texts, "core.io.parse_seal")
    });
    ledger.record(expect(decided, Decision::Inconsistent));

    let refs: Vec<&Bag> = inp.bags.iter().collect();
    let witness_rows = t.op("check_layers", |t| {
        let s = session();
        let schema = t.span("hypergraph.schema", || s.schema_report(&refs));
        assert!(schema.acyclic, "path(6) is acyclic");
        let pair = t
            .span("consistency.pairwise.screen", || {
                s.first_inconsistent_pair(&refs)
            })
            .expect("screen succeeds");
        let n = refs.len();
        t.count("consistency.pairwise.pairs", (n * (n - 1) / 2) as f64);
        assert!(pair.is_none(), "planted families are pairwise consistent");
        let w = t
            .span("consistency.acyclic.witness", || {
                s.acyclic_global_witness(&refs, WitnessStrategy::Saturated)
            })
            .expect("acyclic witness exists");
        t.count("consistency.acyclic.witness_rows", w.support_size() as f64);
        w.support_size()
    });
    ledger.record(if witness_rows > 0 {
        Ok(())
    } else {
        Err("empty acyclic witness".to_string())
    });

    let witness = t.op("witness_snap", |t| {
        let mut s = session();
        let bags = load(t, &mut s, snap, "snap.open");
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = t
            .span("consistency.session.witness", || s.witness(&refs))
            .expect("witness succeeds");
        let text = t.span("consistency.report.render", || out.text(s.names()));
        t.count("consistency.report.bytes", text.len() as f64);
        out.check.witness
    });
    ledger.record(match witness {
        Some(w) if matches!(session().is_global_witness(&w, &refs), Ok(true)) => Ok(()),
        _ => Err("in-process witness does not verify".to_string()),
    });

    let pairs = t.op("pair_witness", |t| {
        let s = session();
        let mut pairs = 0;
        for (i, r) in refs.iter().enumerate() {
            for q in &refs[i + 1..] {
                // The overlapping pairs of a path are its join-tree edges.
                if r.schema().intersection(q.schema()).arity() == 0 {
                    continue;
                }
                let w = t.span("consistency.pair_witness", || s.consistency_witness(r, q));
                assert!(matches!(w, Ok(Some(_))), "join-tree pairs are consistent");
                pairs += 1;
            }
        }
        t.count("consistency.pair_witness_pairs", pairs as f64);
        pairs
    });
    ledger.record(if pairs > 0 {
        Ok(())
    } else {
        Err("no join-tree pairs".to_string())
    });
}

fn expect(got: Decision, want: Decision) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "in-process check decided {got:?}, expected {want:?}"
        ))
    }
}

pub fn traced(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let inp = generate(ctx, &mut report)?;
    save_snapshot(ctx, &inp)?;
    ctx.ledger
        .record(verify::loads_as(&inp.snapshot, &inp.bags));
    let start = Instant::now();

    // Traced and untraced replays alternate; their difference is the
    // tracing overhead. Each round also runs the same `check` as an
    // untraced process, the reference for `cli.overhead_ms`.
    let texts = paths(&inp.texts);
    let mut cli_ms = Vec::new();
    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    while on_ms.is_empty() || !ctx.out_of_time(start) {
        let run = check(ctx, &texts)?;
        ctx.ledger
            .record(verify::check_report(&run, true, PairRule::Exactly(None)));
        cli_ms.push(run.ms);
        for (tracer, times) in [(&mut on, &mut on_ms), (&mut off, &mut off_ms)] {
            let t0 = Instant::now();
            replay(tracer, &inp, &mut ctx.ledger);
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    on.write_jsonl(&ctx.spans_path())
        .map_err(|e| format!("write spans: {e}"))?;

    let t = &on;
    report.span_median(
        t,
        "core.io.parse_seal_ms",
        "check_text",
        "core.io.parse_seal",
        1.0,
    );
    report.count_median(t, "core.io.rows", "check_text", "core.io.rows");
    report.span_median(t, "snap.open_ms", "check_snap", "snap.open", 1.0);
    report.count_median(t, "snap.bytes", "check_snap", "snap.bytes");
    report.span_median(
        t,
        "hypergraph.schema_us",
        "check_layers",
        "hypergraph.schema",
        1e3,
    );
    report.span_median(
        t,
        "consistency.pairwise.screen_ms",
        "check_layers",
        "consistency.pairwise.screen",
        1.0,
    );
    report.count_median(
        t,
        "consistency.pairwise.pairs",
        "check_layers",
        "consistency.pairwise.pairs",
    );
    report.span_median(
        t,
        "consistency.acyclic.witness_ms",
        "check_layers",
        "consistency.acyclic.witness",
        1.0,
    );
    report.count_median(
        t,
        "consistency.acyclic.witness_rows",
        "check_layers",
        "consistency.acyclic.witness_rows",
    );
    let input_rows: usize = inp.bags.iter().map(Bag::support_size).sum();
    if let Some(rows) = report.get("consistency.acyclic.witness_rows") {
        report.set(
            "consistency.acyclic.rows_per_input_row",
            rows / input_rows as f64,
            1,
        );
    }
    report.span_median(
        t,
        "consistency.pair_witness_ms",
        "pair_witness",
        "consistency.pair_witness",
        1.0,
    );
    report.count_median(
        t,
        "consistency.pair_witness_pairs",
        "pair_witness",
        "consistency.pair_witness_pairs",
    );
    report.span_median(
        t,
        "consistency.report.render_ms",
        "witness_snap",
        "consistency.report.render",
        1.0,
    );
    report.count_median(
        t,
        "consistency.report.bytes",
        "witness_snap",
        "consistency.report.bytes",
    );
    report.span_median(
        t,
        "consistency.session.check_ms",
        "check_text",
        "consistency.session.check",
        1.0,
    );
    report.span_median(
        t,
        "consistency.session.witness_ms",
        "witness_snap",
        "consistency.session.witness",
        1.0,
    );

    // cli.overhead_ms: the process minus what it does in-process.
    let in_process = [
        stats::median(&t.per_op_ms("check_text", "core.io.parse_seal")),
        stats::median(&t.per_op_ms("check_text", "consistency.session.check")),
        stats::median(&t.per_op_ms("check_text", "consistency.report.render")),
    ];
    if let (Some(cli), [Some(a), Some(b), Some(c)]) = (stats::median(&cli_ms), in_process) {
        report.set("cli.overhead_ms", cli - a - b - c, cli_ms.len());
    }
    if let (Some(schema), Some(screen), Some(witness), Some(check)) = (
        report.get("hypergraph.schema_us"),
        report.get("consistency.pairwise.screen_ms"),
        report.get("consistency.acyclic.witness_ms"),
        report.get("consistency.session.check_ms"),
    ) {
        report.set(
            "trace.check_accounted_ratio",
            (schema / 1e3 + screen + witness) / check,
            on_ms.len(),
        );
    }
    report.finish_trace(&on, &on_ms, &off_ms);
    Ok(report)
}
