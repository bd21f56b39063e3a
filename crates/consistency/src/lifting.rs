//! Lifting bag collections backwards along safe deletions (Lemma 4).
//!
//! Lemma 4: if `H₀` is obtained from `H₁` by safe deletions, then every
//! collection `D₀` of bags over `H₀` lifts to a collection `D₁` over `H₁`
//! that is `k`-wise consistent **iff** `D₀` is, for every `k`. The two
//! base moves, copied from the proof:
//!
//! * **covered-edge deletion** `H₀ = H₁ \ X` with `X ⊆ X_j`: keep every
//!   bag; for the restored edge set `R_X := S_{X_j}[X]` (a marginal);
//! * **vertex deletion** `H₀ = H₁ \ A`: pick a default value `u₀`; each
//!   bag over `Y_i = X_i \ {A}` is extended to `X_i` by pinning `A = u₀`.
//!
//! Combined with [`crate::tseitin`] and the obstruction finder this yields
//! [`pairwise_consistent_globally_inconsistent`]: for **any** cyclic
//! hypergraph, an explicit collection of bags that is pairwise consistent
//! but not globally consistent — the constructive heart of Theorem 2's
//! (e) ⇒ (a) direction.
//!
//! Intermediate schema collections here may legitimately contain the empty
//! schema (an edge all of whose vertices were deleted); [`Hypergraph`]
//! cannot represent that, so lifting tracks plain `Vec<Schema>` states.

use crate::tseitin::{tseitin_bags, TseitinError};
use bagcons_core::{Attr, Bag, CoreError, ExecConfig, FxHashMap, Schema, Value};
use bagcons_hypergraph::{find_obstruction, Hypergraph, SafeDeletion};
use std::fmt;

/// Why a lift failed.
#[derive(Debug)]
pub enum LiftError {
    /// No bag with the required schema exists in the source collection.
    MissingSchema(Schema),
    /// The underlying Tseitin construction was inapplicable.
    Tseitin(TseitinError),
    /// A core operation failed (overflow etc.).
    Core(CoreError),
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiftError::MissingSchema(s) => write!(f, "no bag with schema {s} to lift from"),
            LiftError::Tseitin(e) => write!(f, "{e}"),
            LiftError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LiftError {}

impl From<CoreError> for LiftError {
    fn from(e: CoreError) -> Self {
        LiftError::Core(e)
    }
}

impl From<TseitinError> for LiftError {
    fn from(e: TseitinError) -> Self {
        LiftError::Tseitin(e)
    }
}

/// Applies a safe deletion to a schema collection, keeping empty schemas
/// (unlike [`Hypergraph`], which drops them) and deduplicating.
pub fn apply_to_schemas(schemas: &[Schema], op: &SafeDeletion) -> Vec<Schema> {
    let mut out: Vec<Schema> = match op {
        SafeDeletion::Vertex(a) => schemas.iter().map(|s| s.without(*a)).collect(),
        SafeDeletion::CoveredEdge { edge, .. } => {
            schemas.iter().filter(|s| *s != edge).cloned().collect()
        }
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// One backward lift step: given bags `d0` aligned with
/// `apply_to_schemas(targets, op)`, produces bags aligned with `targets`.
/// The covered-edge restore is a marginal of the covering bag, which
/// shards across threads when that bag is sealed and `cfg` permits.
pub fn lift_step_with(
    d0: &[Bag],
    targets: &[Schema],
    op: &SafeDeletion,
    u0: Value,
    cfg: &ExecConfig,
) -> Result<Vec<Bag>, LiftError> {
    let by_schema: FxHashMap<&Schema, &Bag> = d0.iter().map(|b| (b.schema(), b)).collect();
    let find = |s: &Schema| -> Result<&Bag, LiftError> {
        by_schema
            .get(s)
            .copied()
            .ok_or_else(|| LiftError::MissingSchema(s.clone()))
    };
    match op {
        SafeDeletion::Vertex(a) => {
            // One row-assembly buffer serves every target bag of the step.
            let mut scratch = Vec::new();
            let mut out = Vec::with_capacity(targets.len());
            for x in targets {
                let source = find(&x.without(*a))?;
                let lifted = if x.contains(*a) {
                    extend_with_default(source, x, *a, u0, &mut scratch)?
                } else {
                    source.clone()
                };
                out.push(lifted);
            }
            Ok(out)
        }
        SafeDeletion::CoveredEdge { edge, cover } => targets
            .iter()
            .map(|x| {
                if x == edge {
                    Ok(find(cover)?.marginal_with(edge, cfg)?)
                } else {
                    Ok(find(x)?.clone())
                }
            })
            .collect(),
    }
}

/// Extends a bag over `Y = X \ {a}` to `X` by pinning `a = u0`
/// (the vertex-deletion lift of Lemma 4's proof). `scratch` is a reused
/// row-assembly buffer (cleared per row).
fn extend_with_default(
    source: &Bag,
    x: &Schema,
    a: Attr,
    u0: Value,
    scratch: &mut Vec<Value>,
) -> Result<Bag, CoreError> {
    debug_assert!(x.contains(a));
    let y = x.without(a);
    debug_assert_eq!(source.schema(), &y);
    let pos = x.position(a).expect("a ∈ X");
    let mut out = Bag::with_capacity(x.clone(), source.support_size());
    for (row, m) in source.iter() {
        scratch.clear();
        scratch.extend_from_slice(&row[..pos]);
        scratch.push(u0);
        scratch.extend_from_slice(&row[pos..]);
        out.insert_row(scratch, m)?;
    }
    Ok(out)
}

/// Lifts a collection through an entire deletion sequence: `d_final` is
/// aligned with the schemas obtained by applying all of `ops` to
/// `start_schemas`; the result is aligned with `start_schemas`. `cfg` is
/// threaded into every [`lift_step_with`].
pub fn lift_through_sequence_with(
    start_schemas: &[Schema],
    ops: &[SafeDeletion],
    d_final: &[Bag],
    u0: Value,
    cfg: &ExecConfig,
) -> Result<Vec<Bag>, LiftError> {
    // Forward schema states s_0 .. s_n.
    let mut states: Vec<Vec<Schema>> = Vec::with_capacity(ops.len() + 1);
    let mut s: Vec<Schema> = {
        let mut v = start_schemas.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    };
    states.push(s.clone());
    for op in ops {
        s = apply_to_schemas(&s, op);
        states.push(s.clone());
    }
    // Backward lifting.
    let mut bags: Vec<Bag> = d_final.to_vec();
    for (i, op) in ops.iter().enumerate().rev() {
        bags = lift_step_with(&bags, &states[i], op, u0, cfg)?;
    }
    Ok(bags)
}

/// Theorem 2, Step 2 end-to-end: for a **cyclic** hypergraph `h`, builds a
/// collection of bags over `h`'s hyperedges (in `h.edges()` order) that is
/// pairwise consistent but **not** globally consistent. Returns `None`
/// when `h` is acyclic (no such collection exists, by Theorem 2).
///
/// ```
/// use bagcons::lifting::pairwise_consistent_globally_inconsistent;
/// use bagcons::session::Session;
/// use bagcons_hypergraph::{cycle, path};
///
/// let paradox = pairwise_consistent_globally_inconsistent(&cycle(5)).unwrap().unwrap();
/// let refs: Vec<_> = paradox.iter().collect();
/// assert!(Session::default().pairwise_consistent(&refs).unwrap());
///
/// // acyclic schemas have the local-to-global property: no paradox exists
/// assert!(pairwise_consistent_globally_inconsistent(&path(5)).unwrap().is_none());
/// ```
pub fn pairwise_consistent_globally_inconsistent(
    h: &Hypergraph,
) -> Result<Option<Vec<Bag>>, LiftError> {
    let Some(ob) = find_obstruction(h) else {
        return Ok(None);
    };
    let seed = tseitin_bags(&ob.target)?;
    // The schema-collection walk may retain an empty schema that the
    // hypergraph walk dropped; pad the seed with the matching total-count
    // bag over ∅, which is consistent with everything.
    let final_schemas = {
        let mut s: Vec<Schema> = h.edges().to_vec();
        for op in &ob.deletions {
            s = apply_to_schemas(&s, op);
        }
        s
    };
    let mut d_final: Vec<Bag> = Vec::with_capacity(final_schemas.len());
    let total: u64 = seed
        .first()
        .map(|b| u64::try_from(b.unary_size()).expect("d^{k-1} fits u64"))
        .unwrap_or(0);
    let by_schema: FxHashMap<&Schema, &Bag> = seed.iter().map(|b| (b.schema(), b)).collect();
    for s in &final_schemas {
        match by_schema.get(s) {
            Some(b) => d_final.push((*b).clone()),
            None if s.is_empty() => d_final.push(Bag::of_empty_tuple(total)),
            None => return Err(LiftError::MissingSchema(s.clone())),
        }
    }
    let lifted = lift_through_sequence_with(
        h.edges(),
        &ob.deletions,
        &d_final,
        Value(0),
        &ExecConfig::default(),
    )?;
    Ok(Some(lifted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::globally_consistent_via_ilp;
    use crate::session::Session;
    use bagcons_core::Attr;
    use bagcons_hypergraph::{cycle, full_clique_complement, path};
    use bagcons_lp::ilp::{IlpOutcome, SolverConfig};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn vertex_lift_pins_default() {
        let y = schema(&[1]);
        let source = Bag::from_u64s(y, [(&[5u64][..], 3)]).unwrap();
        let x = schema(&[0, 1]);
        let lifted = lift_step_with(
            &[source],
            std::slice::from_ref(&x),
            &SafeDeletion::Vertex(Attr::new(0)),
            Value(9),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(lifted[0].schema(), &x);
        assert_eq!(lifted[0].multiplicity(&[Value(9), Value(5)]), 3);
        assert_eq!(lifted[0].unary_size(), 3);
    }

    #[test]
    fn covered_edge_lift_uses_marginal_of_cover() {
        let cover = schema(&[0, 1]);
        let edge = schema(&[1]);
        let big = Bag::from_u64s(cover.clone(), [(&[1u64, 7][..], 2), (&[2, 7][..], 3)]).unwrap();
        let lifted = lift_step_with(
            std::slice::from_ref(&big),
            &[edge.clone(), cover.clone()],
            &SafeDeletion::CoveredEdge {
                edge: edge.clone(),
                cover: cover.clone(),
            },
            Value(0),
            &ExecConfig::default(),
        )
        .unwrap();
        assert_eq!(lifted.len(), 2);
        assert_eq!(lifted[0], big.marginal(&edge).unwrap());
        assert_eq!(lifted[1], big);
    }

    #[test]
    fn missing_schema_is_reported() {
        let res = lift_step_with(
            &[],
            &[schema(&[0, 1])],
            &SafeDeletion::Vertex(Attr::new(0)),
            Value(0),
            &ExecConfig::default(),
        );
        assert!(matches!(res, Err(LiftError::MissingSchema(_))));
    }

    #[test]
    fn counterexample_on_pure_cycles() {
        for n in 3u32..7 {
            let h = cycle(n);
            let bags = pairwise_consistent_globally_inconsistent(&h)
                .unwrap()
                .unwrap();
            assert_eq!(bags.len(), h.num_edges());
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(
                Session::default().pairwise_consistent(&refs).unwrap(),
                "C_{n} lift not pairwise consistent"
            );
            let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
            assert_eq!(
                dec.outcome,
                IlpOutcome::Unsat,
                "C_{n} lift must be globally inconsistent"
            );
        }
    }

    #[test]
    fn counterexample_on_hn() {
        for n in [3u32, 4] {
            let h = full_clique_complement(n);
            let bags = pairwise_consistent_globally_inconsistent(&h)
                .unwrap()
                .unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(Session::default().pairwise_consistent(&refs).unwrap());
            let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
            assert_eq!(dec.outcome, IlpOutcome::Unsat);
        }
    }

    #[test]
    fn counterexample_on_decorated_cycle() {
        // cyclic hypergraph that needs real lifting: C4 core plus pendant
        // path hanging off vertex 0, plus a covered edge.
        let h = Hypergraph::from_edges([
            schema(&[0, 1]),
            schema(&[1, 2]),
            schema(&[2, 3]),
            schema(&[3, 0]),
            schema(&[0, 10]),
            schema(&[10, 11]),
            schema(&[1]), // covered by {0,1} and {1,2}
        ]);
        let bags = pairwise_consistent_globally_inconsistent(&h)
            .unwrap()
            .unwrap();
        assert_eq!(bags.len(), h.num_edges());
        // schemas align with h.edges()
        for (bag, edge) in bags.iter().zip(h.edges()) {
            assert_eq!(bag.schema(), edge);
        }
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(Session::default().pairwise_consistent(&refs).unwrap());
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert_eq!(dec.outcome, IlpOutcome::Unsat);
    }

    #[test]
    fn counterexample_with_fully_deleted_component() {
        // a disconnected acyclic component far from the triangle: its
        // vertices are all deleted, exercising the empty-schema padding.
        let h = Hypergraph::from_edges([
            schema(&[0, 1]),
            schema(&[1, 2]),
            schema(&[0, 2]),
            schema(&[20, 21]),
        ]);
        let bags = pairwise_consistent_globally_inconsistent(&h)
            .unwrap()
            .unwrap();
        assert_eq!(bags.len(), 4);
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(Session::default().pairwise_consistent(&refs).unwrap());
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert_eq!(dec.outcome, IlpOutcome::Unsat);
    }

    #[test]
    fn acyclic_yields_none() {
        assert!(pairwise_consistent_globally_inconsistent(&path(5))
            .unwrap()
            .is_none());
    }

    #[test]
    fn lift_preserves_k_wise_consistency_on_triangle_extension() {
        // Lemma 4 sanity: lift the parity triangle through a vertex
        // deletion (adding a fresh vertex to every edge is the inverse);
        // here we lift from C3's bags to a decorated hypergraph and check
        // pairwise (2-wise) consistency is preserved, and global
        // inconsistency (3-wise failure) is preserved too.
        let h = Hypergraph::from_edges([
            schema(&[0, 1]),
            schema(&[1, 2]),
            schema(&[0, 2]),
            schema(&[2, 5]),
        ]);
        let bags = pairwise_consistent_globally_inconsistent(&h)
            .unwrap()
            .unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        // 2-wise holds
        assert!(Session::default().pairwise_consistent(&refs).unwrap());
        // m-wise fails
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert_eq!(dec.outcome, IlpOutcome::Unsat);
    }
}
