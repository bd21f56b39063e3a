//! The five characterizations of Lemma 2, computed independently.
//!
//! Lemma 2: for bags `R(X)` and `S(Y)` the following are equivalent —
//! (1) `R` and `S` are consistent; (2) `R[X∩Y] = S[X∩Y]`;
//! (3) `P(R,S)` is feasible over ℚ; (4) feasible over ℤ;
//! (5) `N(R,S)` admits a saturated flow.
//!
//! [`Lemma2Report`] evaluates each side with a *different* mechanism —
//! the crate's keyed marginal difference ([`crate::pairwise`]), the
//! closed-form rational point, the exact integer search, and the max-flow
//! saturation test — so the equivalence can be cross-validated
//! mechanically (experiment E2).

use crate::pairwise::bags_consistent;
use bagcons_core::{AttrNames, Bag, CoreError, ExecConfig, Result};
use bagcons_flow::ConsistencyNetwork;
use bagcons_lp::ilp::{solve, IlpOutcome, SolverConfig};
use bagcons_lp::{rational_solution, ConsistencyProgram};
use std::fmt;

/// Output formats a report can render to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Human-readable text (the CLI's default).
    #[default]
    Text,
    /// Machine-readable JSON (hand-rolled writer — the build environment
    /// is offline, so no serde).
    Json,
}

impl std::str::FromStr for ReportFormat {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "text" => Ok(ReportFormat::Text),
            "json" => Ok(ReportFormat::Json),
            other => Err(format!("unknown format {other:?} (expected text|json)")),
        }
    }
}

/// Renders a typed outcome to both human text and machine-readable JSON.
///
/// Every [`crate::session::Session`] outcome implements this; the CLI is
/// a thin `print(outcome.render(format, names))` on top. Attribute names
/// travel separately (in [`AttrNames`], usually
/// [`crate::session::Session::names`]) because outcomes hold only
/// interned [`bagcons_core::Attr`] ids.
pub trait Render {
    /// Human-readable rendering.
    fn text(&self, names: &AttrNames) -> String;

    /// Machine-readable JSON rendering: one object, single-line, no
    /// trailing newline (append your own separator when streaming).
    fn json(&self, names: &AttrNames) -> String;

    /// Dispatches on `format`.
    fn render(&self, format: ReportFormat, names: &AttrNames) -> String {
        match format {
            ReportFormat::Text => self.text(names),
            ReportFormat::Json => self.json(names),
        }
    }
}

/// A minimal hand-rolled JSON writer (the offline build has no serde).
///
/// Push-style: `begin_object`/`end_object`, `begin_array`/`end_array`,
/// `key`, and scalar emitters; commas and string escaping are handled
/// internally. The writer does not validate nesting — callers own the
/// shape — but the session outcomes' tests pin well-formedness.
///
/// ```
/// use bagcons::report::Json;
/// let mut j = Json::new();
/// j.begin_object();
/// j.key("decision");
/// j.string("consistent");
/// j.key("nodes");
/// j.u64(42);
/// j.end_object();
/// assert_eq!(j.finish(), "{\"decision\":\"consistent\",\"nodes\":42}");
/// ```
#[derive(Debug, Default)]
pub struct Json {
    buf: String,
    /// Per-open-container flag: does the next element need a `,`?
    needs_comma: Vec<bool>,
    /// The next value completes a `"key":` — suppress its comma.
    after_key: bool,
}

impl Json {
    /// An empty writer.
    pub fn new() -> Self {
        Json::default()
    }

    fn pre_value(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(top) = self.needs_comma.last_mut() {
            if *top {
                self.buf.push(',');
            }
            *top = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.buf.push('{');
        self.needs_comma.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.needs_comma.pop();
        self.buf.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.buf.push('[');
        self.needs_comma.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.needs_comma.pop();
        self.buf.push(']');
    }

    /// Emits an object key; the next emitted value becomes its value.
    pub fn key(&mut self, k: &str) {
        self.pre_value();
        self.write_escaped(k);
        self.buf.push(':');
        self.after_key = true;
    }

    /// Emits a string value (escaped).
    pub fn string(&mut self, v: &str) {
        self.pre_value();
        self.write_escaped(v);
    }

    /// Emits an unsigned integer value.
    pub fn u64(&mut self, v: u64) {
        self.pre_value();
        bagcons_core::io::push_decimal(&mut self.buf, v);
    }

    /// Emits a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Emits `null`.
    pub fn null(&mut self) {
        self.pre_value();
        self.buf.push_str("null");
    }

    /// `"k": "v"` shorthand.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.string(v);
    }

    /// `"k": v` shorthand for unsigned integers.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64(v);
    }

    /// `"k": v` for an unsigned integer that may pass `u64::MAX`, such as
    /// a bag's unary size.
    pub(crate) fn field_u128(&mut self, k: &str, v: u128) {
        self.key(k);
        self.pre_value();
        bagcons_core::io::push_decimal(&mut self.buf, v);
    }

    /// `"k": v` shorthand for booleans.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.bool(v);
    }

    fn write_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// The accumulated JSON.
    pub fn finish(self) -> String {
        self.buf
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.buf)
    }
}

/// Truth values of Lemma 2's five statements for a concrete pair of bags.
#[derive(Clone, Debug)]
pub struct Lemma2Report {
    /// (2) `R[X∩Y] = S[X∩Y]`.
    pub marginals_equal: bool,
    /// (3) `P(R,S)` feasible over the rationals (closed-form point).
    pub rational_feasible: bool,
    /// (4) `P(R,S)` feasible over the integers (exact search).
    pub integral_feasible: bool,
    /// (5) `N(R,S)` admits a saturated flow.
    pub saturated_flow: bool,
    /// (1) a consistency witness, when one exists (from the flow).
    pub witness: Option<Bag>,
}

impl Lemma2Report {
    /// Evaluates all five characterizations independently under explicit
    /// solver and execution configurations. The public entry is
    /// [`crate::session::Session::pairwise_report`]. The witness seal
    /// shards across threads when `exec` permits, the max-flow of
    /// `N(R,S)` honours `exec`'s deadline, and the exact integer search
    /// honors `solver`'s node budget and deadline. A search that aborts
    /// leaves (4) unknown, so the whole report fails with
    /// [`CoreError::Aborted`] and its reason.
    pub(crate) fn compute_with(
        r: &Bag,
        s: &Bag,
        solver: &SolverConfig,
        exec: &ExecConfig,
    ) -> Result<Lemma2Report> {
        let marginals_equal = bags_consistent(r, s)?;

        let rational_feasible = rational_solution(r, s)?.is_some();

        let prog = ConsistencyProgram::build(&[r, s])?;
        let integral_feasible = match solve(&prog, solver).0 {
            IlpOutcome::Sat(_) => true,
            IlpOutcome::Unsat => false,
            IlpOutcome::Aborted(reason) => return Err(CoreError::Aborted(reason)),
        };

        let witness = ConsistencyNetwork::build(r, s)?.solve_with(exec)?;
        let saturated_flow = witness.is_some();

        Ok(Lemma2Report {
            marginals_equal,
            rational_feasible,
            integral_feasible,
            saturated_flow,
            witness,
        })
    }

    /// True iff all five statements carry the same truth value — what
    /// Lemma 2 asserts must always hold.
    pub fn all_agree(&self) -> bool {
        let v = self.marginals_equal;
        self.rational_feasible == v
            && self.integral_feasible == v
            && self.saturated_flow == v
            && self.witness.is_some() == v
    }

    /// The common truth value (consistency), assuming agreement.
    pub fn consistent(&self) -> bool {
        debug_assert!(self.all_agree());
        self.marginals_equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bagcons_core::{Attr, Schema};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn agree_on_consistent_pair() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        let rep = Session::default().pairwise_report(&r, &s).unwrap().report;
        assert!(rep.all_agree());
        assert!(rep.consistent());
        let w = rep.witness.unwrap();
        assert_eq!(w.marginal(r.schema()).unwrap(), r);
    }

    #[test]
    fn agree_on_inconsistent_pair() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1)]).unwrap();
        let rep = Session::default().pairwise_report(&r, &s).unwrap().report;
        assert!(rep.all_agree());
        assert!(!rep.consistent());
        assert!(rep.witness.is_none());
    }

    #[test]
    fn agree_on_fractional_lp_instance() {
        // The closed-form rational point is fractional (1/2 everywhere)
        // yet integral feasibility still holds — total unimodularity in
        // action.
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 1), (&[2, 1][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 5][..], 1), (&[1, 6][..], 1)]).unwrap();
        let rep = Session::default().pairwise_report(&r, &s).unwrap().report;
        assert!(rep.all_agree());
        assert!(rep.consistent());
    }

    #[test]
    fn agree_on_empty_bags() {
        let r = Bag::new(schema(&[0, 1]));
        let s = Bag::new(schema(&[1, 2]));
        let rep = Session::default().pairwise_report(&r, &s).unwrap().report;
        assert!(rep.all_agree());
        assert!(rep.consistent());
    }
}
