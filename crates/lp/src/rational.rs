//! Exact rationals and the closed-form rational solution of Lemma 2.
//!
//! The proof of (2) ⇒ (3) in Lemma 2 exhibits an explicit rational
//! feasible point of `P(R,S)` whenever `R[Z] = S[Z]` for `Z = X ∩ Y`:
//!
//! ```text
//! x_t = R(t[X]) · S(t[Y]) / R(t[Z])
//! ```
//!
//! We reproduce that construction with exact arithmetic (`u128`
//! numerators/denominators, always reduced), so the feasibility claim can
//! be verified without floating-point slack. This also documents the
//! paper's observation that no LP solver is needed for `m = 2`.

use crate::ConsistencyProgram;
use bagcons_core::{Bag, FxHashMap, Result, Row, Schema};

/// A non-negative exact rational, always in lowest terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rational {
    num: u128,
    den: u128,
}

impl Rational {
    /// `num / den`, reduced.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: u128, den: u128) -> Self {
        assert!(den != 0, "zero denominator");
        if num == 0 {
            return Rational { num: 0, den: 1 };
        }
        let g = gcd(num, den);
        Rational {
            num: num / g,
            den: den / g,
        }
    }

    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };

    /// The integer `n`.
    pub fn from_int(n: u128) -> Self {
        Rational { num: n, den: 1 }
    }

    /// Numerator (lowest terms).
    pub fn numer(&self) -> u128 {
        self.num
    }

    /// Denominator (lowest terms).
    pub fn denom(&self) -> u128 {
        self.den
    }

    /// True iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Checked addition (None on overflow of intermediate products).
    pub fn checked_add(self, other: Rational) -> Option<Rational> {
        let g = gcd(self.den, other.den);
        let lcm = (self.den / g).checked_mul(other.den)?;
        let a = self.num.checked_mul(lcm / self.den)?;
        let b = other.num.checked_mul(lcm / other.den)?;
        Some(Rational::new(a.checked_add(b)?, lcm))
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl std::fmt::Display for Rational {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// `bag[Z]` with `u128` counts, keyed by the `Z`-projection at `z_idx`.
/// A key group of a legal bag can sum past `u64::MAX` (a bag has under
/// 2^32 rows of multiplicity under 2^64), so the `u64`
/// [`Bag::marginal`] cannot serve here.
fn wide_marginal(bag: &Bag, z_idx: &[usize]) -> FxHashMap<Row, u128> {
    let mut out: FxHashMap<Row, u128> = FxHashMap::default();
    for (row, m) in bag.iter() {
        let key: Row = z_idx.iter().map(|&i| row[i]).collect();
        *out.entry(key).or_insert(0) += m as u128;
    }
    out
}

/// The Lemma 2 closed-form rational solution of `P(R,S)`, or `None` when
/// `R[X∩Y] ≠ S[X∩Y]` (in which case the program is infeasible).
///
/// The returned vector is indexed by the variables of
/// [`ConsistencyProgram::build`]`(&[r, s])` in their sorted order, and is
/// verified to satisfy every constraint exactly before being returned.
/// Every legal pair gets an answer: the marginals are summed in `u128`,
/// and each numerator `R(t[X]) · S(t[Y])` is a product of two `u64`s.
pub fn rational_solution(r: &Bag, s: &Bag) -> Result<Option<(ConsistencyProgram, Vec<Rational>)>> {
    let z: Schema = r.schema().intersection(s.schema());
    let rz = wide_marginal(r, &r.schema().projection_indices(&z)?);
    if rz != wide_marginal(s, &s.schema().projection_indices(&z)?) {
        return Ok(None);
    }
    let prog = ConsistencyProgram::build(&[r, s])?;
    let join_schema = prog.join_schema().clone();
    let x_idx = join_schema.projection_indices(r.schema())?;
    let y_idx = join_schema.projection_indices(s.schema())?;
    let z_idx = join_schema.projection_indices(&z)?;

    let mut xs = Vec::with_capacity(prog.num_variables());
    for v in 0..prog.num_variables() {
        let t = prog.variable(v);
        let tx: Vec<_> = x_idx.iter().map(|&i| t[i]).collect();
        let ty: Vec<_> = y_idx.iter().map(|&i| t[i]).collect();
        let tz: Vec<_> = z_idx.iter().map(|&i| t[i]).collect();
        let num = (r.multiplicity(&tx) as u128) * (s.multiplicity(&ty) as u128);
        let den = rz[tz.as_slice()];
        xs.push(Rational::new(num, den));
    }

    debug_assert!(
        verify_rational_point(&prog, &xs),
        "Lemma 2's closed form must satisfy P(R,S) exactly"
    );
    Ok(Some((prog, xs)))
}

/// A running row sum `whole + frac` with `0 ≤ frac < 1`.
///
/// A row's sum can reach `2^64` over a denominator near `2^65`, past what
/// one `u128` numerator holds, so the integer part is carried apart. The
/// fraction then only needs the lowest common denominator of the terms
/// seen so far. For [`rational_solution`]'s points every term of a row
/// has a denominator dividing the same `R[Z](k)`, so that always fits.
#[derive(Clone, Copy)]
struct MixedSum {
    whole: u128,
    frac: Rational,
}

impl MixedSum {
    const ZERO: MixedSum = MixedSum {
        whole: 0,
        frac: Rational::ZERO,
    };

    /// Adds `x`; `None` if the whole part or the common denominator
    /// overflows.
    fn checked_add(self, x: Rational) -> Option<MixedSum> {
        let mut whole = self.whole.checked_add(x.num / x.den)?;
        let (a, b) = (self.frac, x.num % x.den);
        let lcm = (a.den / gcd(a.den, x.den)).checked_mul(x.den)?;
        // Both scaled numerators are below `lcm`, so neither product
        // overflows; their sum might, so test it against `lcm` by
        // subtraction and carry one into the whole part.
        let p = a.num * (lcm / a.den);
        let q = b * (lcm / x.den);
        let num = if p >= lcm - q {
            whole = whole.checked_add(1)?;
            p - (lcm - q)
        } else {
            p + q
        };
        Some(MixedSum {
            whole,
            frac: Rational::new(num, lcm),
        })
    }
}

/// Verifies `Ax = b` exactly for a rational point. Each row is summed as
/// an integer part plus a proper fraction, so every point
/// [`rational_solution`] returns verifies without overflow; a point whose
/// row sums overflow anyway is rejected.
pub fn verify_rational_point(prog: &ConsistencyProgram, x: &[Rational]) -> bool {
    if x.len() != prog.num_variables() {
        return false;
    }
    let mut sums = vec![MixedSum::ZERO; prog.num_constraints()];
    for (v, &xv) in x.iter().enumerate() {
        for &row in prog.rows_of(v) {
            match sums[row as usize].checked_add(xv) {
                Some(s) => sums[row as usize] = s,
                None => return false,
            }
        }
    }
    sums.iter()
        .zip(prog.rhs())
        .all(|(s, b)| s.frac == Rational::ZERO && s.whole == b as u128)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::Attr;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn rational_reduces() {
        assert_eq!(Rational::new(4, 8), Rational::new(1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
        assert!(Rational::new(6, 3).is_integer());
        assert_eq!(Rational::new(6, 3).numer(), 2);
    }

    #[test]
    fn rational_add() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a.checked_add(b).unwrap(), Rational::new(5, 6));
        assert_eq!(
            Rational::new(1, 2)
                .checked_add(Rational::new(1, 2))
                .unwrap(),
            Rational::from_int(1)
        );
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::from_int(7).to_string(), "7");
    }

    #[test]
    fn closed_form_on_consistent_pair() {
        // R(AB) = {(1,1):2,(1,2):1}, S(BC) = {(1,5):1,(1,6):1,(2,5):1}
        // R[B] = {1:2, 2:1} = S[B] ✓
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 2), (&[1, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(
            schema(&[1, 2]),
            [(&[1u64, 5][..], 1), (&[1, 6][..], 1), (&[2, 5][..], 1)],
        )
        .unwrap();
        let (prog, xs) = rational_solution(&r, &s).unwrap().expect("consistent");
        assert!(verify_rational_point(&prog, &xs));
        // genuinely fractional: x for t=(1,1,5) is 2·1/2 = 1; for (1,1,6) 1.
        // All integral here; build a fractional case:
        let r2 = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 1), (&[2, 1][..], 1)]).unwrap();
        let s2 = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 5][..], 1), (&[1, 6][..], 1)]).unwrap();
        let (prog2, xs2) = rational_solution(&r2, &s2).unwrap().expect("consistent");
        assert!(verify_rational_point(&prog2, &xs2));
        // every x_t = 1·1/2
        assert!(xs2.iter().all(|x| *x == Rational::new(1, 2)));
        assert_eq!(prog2.num_variables(), 4);
    }

    #[test]
    fn closed_form_rejects_inconsistent_pair() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 5][..], 1)]).unwrap();
        assert!(rational_solution(&r, &s).unwrap().is_none());
    }

    #[test]
    fn disjoint_schemas_closed_form() {
        // Z = ∅: x_t = R(tx)·S(ty)/total
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 2), (&[2][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[7u64][..], 4)]).unwrap();
        let (prog, xs) = rational_solution(&r, &s).unwrap().expect("totals match");
        assert!(verify_rational_point(&prog, &xs));
        assert!(xs.iter().all(|x| *x == Rational::from_int(2)));
    }

    #[test]
    fn closed_form_is_exact_past_u64_group_sums() {
        // R[B](1) = 2^64 and 2·(2^64 − 1) + 1: both past `u64::MAX`. In
        // the second pair the terms are about 2^63 over a denominator
        // near 2^65, so a row sum's numerator passes `u128::MAX`.
        for (m, extra) in [(1u64 << 63, 0), (u64::MAX, 1)] {
            let r = Bag::from_u64s(
                schema(&[0, 1]),
                [(&[1u64, 1][..], m), (&[2, 1][..], m), (&[3, 1][..], extra)],
            )
            .unwrap();
            let s = Bag::from_u64s(
                schema(&[1, 2]),
                [(&[1u64, 1][..], m), (&[1, 2][..], m), (&[1, 3][..], extra)],
            )
            .unwrap();
            let (prog, xs) = rational_solution(&r, &s).unwrap().expect("consistent");
            assert!(verify_rational_point(&prog, &xs));
            // one term off by the smallest step no longer verifies
            let mut off = xs.clone();
            off[0] = Rational::new(off[0].numer() + 1, off[0].denom());
            assert!(!verify_rational_point(&prog, &off));
        }
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        Rational::new(1, 0);
    }
}
