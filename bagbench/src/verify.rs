//! Correctness checks on program outputs, keyed on what must not change:
//! decisions, exit codes, the reported inconsistent pair, and witness
//! validity. Witness rows are never compared to a golden — a valid
//! witness is any bag that marginalizes back to the inputs.

use crate::json::Json;
use crate::proc::Run;
use bagcons_core::Bag;

/// What the reported `inconsistent_pair` must be.
#[derive(Clone, Copy, Debug)]
pub enum PairRule {
    /// Exactly this (`None` = the report must carry no pair).
    Exactly(Option<(usize, usize)>),
    /// If the report names a pair it must be this one (the cyclic branch
    /// may decide by search without screening pairs first).
    IfReported(Option<(usize, usize)>),
}

/// Checks a `bagcons check --format json` process against the ground
/// truth: exit code, decision (never `unknown`), and inconsistent pair.
pub fn check_report(run: &Run, consistent: bool, pair: PairRule) -> Result<(), String> {
    let want = if consistent {
        "consistent"
    } else {
        "inconsistent"
    };
    let want_code = if consistent { 0 } else { 1 };
    let report = Json::parse(run.stdout.trim()).map_err(|e| format!("check output: {e}"))?;
    let decision = report
        .get("decision")
        .and_then(Json::as_str)
        .unwrap_or("missing");
    if decision != want || run.code != want_code {
        return Err(format!(
            "check decided {decision} (exit {}), expected {want} (exit {want_code})",
            run.code
        ));
    }
    let reported = match report.get("inconsistent_pair") {
        None | Some(Json::Null) => None,
        Some(p) => match p
            .as_arr()
            .map(|a| a.iter().map(Json::as_f64).collect::<Vec<_>>())
        {
            Some(v) if v.len() == 2 && v.iter().all(Option::is_some) => {
                Some((v[0].unwrap_or(0.0) as usize, v[1].unwrap_or(0.0) as usize))
            }
            _ => return Err(format!("malformed inconsistent_pair {p:?}")),
        },
    };
    let ok = match pair {
        PairRule::Exactly(truth) => reported == truth,
        PairRule::IfReported(truth) => reported.is_none() || reported == truth,
    };
    if !ok {
        return Err(format!(
            "check reported inconsistent_pair {reported:?}, expected {pair:?}"
        ));
    }
    Ok(())
}

/// Checks a `bagcons witness` process: exit 0, and its stdout re-loads
/// as a global witness of `bags`.
pub fn witness_output(run: &Run, bags: &[Bag]) -> Result<(), String> {
    if run.code != 0 {
        return Err(format!("witness exited {}", run.code));
    }
    let mut session = crate::session();
    let witness = session
        .load_bag(&run.stdout)
        .map_err(|e| format!("witness output does not parse: {e}"))?;
    let refs: Vec<&Bag> = bags.iter().collect();
    match session.is_global_witness(&witness, &refs) {
        Ok(true) => Ok(()),
        Ok(false) => Err("witness output does not marginalize to the inputs".to_string()),
        Err(e) => Err(format!("witness check: {e}")),
    }
}

/// Checks that `path` loads (as the program would load it) into exactly
/// `bags`.
pub fn loads_as(path: &std::path::Path, bags: &[Bag]) -> Result<(), String> {
    let mut session = crate::session();
    let loaded = session
        .load_path(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if loaded != bags {
        return Err(format!(
            "{} does not hold the generated bags",
            path.display()
        ));
    }
    Ok(())
}
