//! Plain-text serialization of bags and relations.
//!
//! The format mirrors the paper's tabular notation (Section 2):
//!
//! ```text
//! A B #
//! a1 b1 : 2
//! a2 b2 : 1
//! a3 b3 : 5
//! ```
//!
//! * The header names the attributes; `#` marks the multiplicity column.
//!   A name that is `A` followed by the plain decimal of an id below
//!   `2³⁰` (no sign, no leading zero) maps to that [`Attr`] id directly;
//!   any other name is interned in order of first appearance.
//! * Each data row lists one value per attribute and, after a `:`, the
//!   multiplicity. Omitting `: m` means multiplicity 1, so the same file
//!   format reads relations.
//! * Values must be unsigned integers (intern symbolic values upstream).
//! * Blank lines and `%`-comments are ignored.
//!
//! Round-tripping is exact; ordering is canonical (sorted rows) on write.

use crate::{Attr, AttrNames, Bag, CoreError, Relation, Schema, Value};
use std::fmt;

/// Parse errors with 1-based line numbers.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The input had no header line.
    MissingHeader,
    /// The header repeated an attribute name.
    DuplicateAttribute(String),
    /// A data row had the wrong number of values.
    WrongArity {
        /// 1-based line number.
        line: usize,
        /// Values expected (the header's attribute count).
        expected: usize,
        /// Values found.
        got: usize,
    },
    /// A value or multiplicity failed to parse as an unsigned integer.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A relation was requested but some multiplicity exceeded 1.
    NotARelation,
    /// Accumulating a duplicate row's multiplicity exceeded `u64::MAX`.
    ///
    /// Carried separately from [`ParseError::Core`] so the failing line
    /// is reported — the accumulate happens per data row, and a silent
    /// wrap here would corrupt every downstream consistency answer.
    MultiplicityOverflow {
        /// 1-based line number of the row whose accumulate overflowed.
        line: usize,
    },
    /// A core-level failure (e.g. an arity mismatch against the header).
    Core(CoreError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing header line"),
            ParseError::DuplicateAttribute(a) => write!(f, "duplicate attribute {a:?}"),
            ParseError::WrongArity {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: expected {expected} values, got {got}")
            }
            ParseError::BadNumber { line, token } => {
                write!(f, "line {line}: {token:?} is not an unsigned integer")
            }
            ParseError::NotARelation => {
                write!(
                    f,
                    "input has multiplicities > 1 but a relation was requested"
                )
            }
            ParseError::MultiplicityOverflow { line } => {
                write!(f, "line {line}: accumulated multiplicity exceeds u64::MAX")
            }
            ParseError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<CoreError> for ParseError {
    fn from(e: CoreError) -> Self {
        ParseError::Core(e)
    }
}

/// Interns attribute names to [`Attr`] ids **consistently across files**:
/// the same name always maps to the same attribute. A canonical name —
/// `A` and the plain decimal of an id below `2³⁰` (`A0`, `A17`, not
/// `A05` or `A+5`) — keeps its numeric id; every other name is symbolic
/// and gets an id from `2³⁰` up, so no two names share an attribute.
#[derive(Default, Debug)]
pub struct NameInterner {
    by_name: crate::FxHashMap<String, Attr>,
    names: AttrNames,
    next_symbolic: u32,
}

impl NameInterner {
    /// Fresh interner.
    pub fn new() -> Self {
        NameInterner {
            by_name: Default::default(),
            names: AttrNames::new(),
            next_symbolic: 1 << 30,
        }
    }

    /// The attribute for `token`, allocating on first sight.
    pub fn attr(&mut self, token: &str) -> Attr {
        if let Some(&a) = self.by_name.get(token) {
            return a;
        }
        let attr = match canonical_id(token) {
            Some(id) => Attr::new(id),
            None => {
                let a = Attr::new(self.next_symbolic);
                self.next_symbolic += 1;
                a
            }
        };
        self.names.set(attr, token);
        self.by_name.insert(token.to_string(), attr);
        attr
    }

    /// The accumulated display names.
    pub fn names(&self) -> &AttrNames {
        &self.names
    }

    /// Every known `(attribute, name)` binding, sorted by attribute id —
    /// a deterministic serialization order for snapshot writers.
    pub fn entries(&self) -> Vec<(Attr, String)> {
        let mut out: Vec<(Attr, String)> = self
            .by_name
            .iter()
            .map(|(name, &attr)| (attr, name.clone()))
            .collect();
        out.sort_by_key(|(attr, _)| attr.id());
        out
    }

    /// Re-binds a persisted `(attribute, name)` pair (snapshot loading).
    /// The first binding of a name wins — a live session's names are
    /// never clobbered by a loaded file. Restoring a symbolic attribute
    /// advances the allocator past it so later fresh names cannot
    /// collide with restored ids.
    pub fn restore(&mut self, attr: Attr, name: &str) {
        if self.by_name.contains_key(name) {
            return;
        }
        self.names.set(attr, name);
        self.by_name.insert(name.to_string(), attr);
        if attr.id() >= 1 << 30 {
            self.next_symbolic = self.next_symbolic.max(attr.id() + 1);
        }
    }
}

/// The id a canonical name `A<id>` denotes: the digits are the plain
/// decimal of an id below `2³⁰` (where symbolic ids start), with no sign
/// and no leading zero, so each id has exactly one canonical name.
fn canonical_id(token: &str) -> Option<u32> {
    let digits = token.strip_prefix('A')?;
    let plain = !digits.is_empty()
        && digits.bytes().all(|b| b.is_ascii_digit())
        && (digits == "0" || !digits.starts_with('0'));
    plain
        .then(|| digits.parse::<u32>().ok())
        .flatten()
        .filter(|&id| id < 1 << 30)
}

/// Parses a bag from the tabular text format. Returns the bag plus the
/// attribute-name registry built from the header. For multi-file inputs
/// that must share attribute identities, use [`parse_bag_with`].
pub fn parse_bag(text: &str) -> Result<(Bag, AttrNames), ParseError> {
    let mut interner = NameInterner::new();
    let bag = parse_bag_with(text, &mut interner)?;
    Ok((bag, interner.names))
}

/// Parses a bag, resolving attribute names through a shared interner.
pub fn parse_bag_with(text: &str, interner: &mut NameInterner) -> Result<Bag, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.split('%').next().unwrap_or("").trim()))
        .filter(|(_, l)| !l.is_empty());

    let (_, header) = lines.next().ok_or(ParseError::MissingHeader)?;
    let mut attrs: Vec<Attr> = Vec::new();
    let mut seen: Vec<String> = Vec::new();
    for token in header.split_whitespace() {
        if token == "#" {
            break;
        }
        if seen.iter().any(|s| s == token) {
            return Err(ParseError::DuplicateAttribute(token.to_string()));
        }
        seen.push(token.to_string());
        attrs.push(interner.attr(token));
    }
    let schema = Schema::from_attrs(attrs.iter().copied());
    if schema.arity() != attrs.len() {
        // two distinct names mapped to the same id (e.g. "A1" twice caught
        // above, but "A1" and a fresh name colliding cannot happen since
        // fresh ids start above all seen ids — still guard)
        return Err(ParseError::DuplicateAttribute(header.to_string()));
    }
    // positions of header columns inside the sorted schema
    let positions: Vec<usize> = attrs
        .iter()
        .map(|a| schema.position(*a).expect("attr in schema"))
        .collect();

    let mut bag = Bag::new(schema.clone());
    for (line_no, line) in lines {
        let (vals_part, mult_part) = match line.split_once(':') {
            Some((v, m)) => (v, Some(m)),
            None => (line, None),
        };
        let tokens: Vec<&str> = vals_part.split_whitespace().collect();
        if tokens.len() != attrs.len() {
            return Err(ParseError::WrongArity {
                line: line_no,
                expected: attrs.len(),
                got: tokens.len(),
            });
        }
        let mut row = vec![Value(0); attrs.len()];
        for (col, token) in tokens.iter().enumerate() {
            let v: u64 = token.parse().map_err(|_| ParseError::BadNumber {
                line: line_no,
                token: token.to_string(),
            })?;
            row[positions[col]] = Value(v);
        }
        let mult: u64 = match mult_part {
            Some(m) => {
                let m = m.trim();
                m.parse().map_err(|_| ParseError::BadNumber {
                    line: line_no,
                    token: m.to_string(),
                })?
            }
            None => 1,
        };
        // Duplicate rows accumulate; surface an overflowing accumulate
        // with the line that tipped it over instead of a bare core error.
        match bag.insert(row, mult) {
            Ok(()) => {}
            Err(CoreError::MultiplicityOverflow) => {
                return Err(ParseError::MultiplicityOverflow { line: line_no })
            }
            Err(e) => return Err(ParseError::Core(e)),
        }
    }
    Ok(bag)
}

/// Parses one line of the `watch` delta format:
///
/// ```text
/// <bag-index> <v1> ... <vk> : <±delta>
/// ```
///
/// `bag-index` selects a bag of the stream (0-based, in load order);
/// the values are in the bag's schema order (the order [`write_bag`]
/// prints); the signed `delta` after the `:` bumps the row's
/// multiplicity (`: +1` / `: -2`; omitting `: delta` means `+1`).
/// Blank lines and `%`-comments yield `Ok(None)`.
pub fn parse_delta_line(
    line: &str,
    line_no: usize,
) -> Result<Option<(usize, Vec<Value>, i64)>, ParseError> {
    let line = line.split('%').next().unwrap_or("").trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (vals_part, delta_part) = match line.split_once(':') {
        Some((v, d)) => (v, Some(d)),
        None => (line, None),
    };
    let mut tokens = vals_part.split_whitespace();
    let index_token = tokens.next().ok_or(ParseError::WrongArity {
        line: line_no,
        expected: 1,
        got: 0,
    })?;
    let index: usize = index_token.parse().map_err(|_| ParseError::BadNumber {
        line: line_no,
        token: index_token.to_string(),
    })?;
    let mut row = Vec::new();
    for token in tokens {
        let v: u64 = token.parse().map_err(|_| ParseError::BadNumber {
            line: line_no,
            token: token.to_string(),
        })?;
        row.push(Value(v));
    }
    let delta: i64 = match delta_part {
        Some(d) => {
            let d = d.trim();
            d.parse().map_err(|_| ParseError::BadNumber {
                line: line_no,
                token: d.to_string(),
            })?
        }
        None => 1,
    };
    Ok(Some((index, row, delta)))
}

/// Writes a bag in the tabular text format (canonical: sorted rows).
///
/// The text goes into one `String` sized up front: a first pass counts
/// the digits, the second writes them with [`push_decimal`], so no
/// per-row or per-value string is allocated.
pub fn write_bag(bag: &Bag, names: &AttrNames) -> String {
    let header: Vec<String> = bag.schema().iter().map(|a| names.name(a)).collect();
    // Per row: the values, the spaces between them, " : ", m, "\n" —
    // counted in storage order, which needs no sort.
    let body: usize = bag
        .iter()
        .map(|(row, m)| {
            row.iter().map(|v| decimal_len(v.get())).sum::<usize>()
                + row.len().saturating_sub(1)
                + 4
                + decimal_len(m)
        })
        .sum();
    let mut out =
        String::with_capacity(header.iter().map(|h| h.len() + 1).sum::<usize>() + 2 + body);
    for name in &header {
        out.push_str(name);
        out.push(' ');
    }
    out.push_str("#\n");
    for (row, m) in bag.iter_sorted() {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            push_decimal(&mut out, v.get());
        }
        out.push_str(" : ");
        push_decimal(&mut out, m);
        out.push('\n');
    }
    out
}

/// Appends the decimal digits of `v` to `out` without allocating — the
/// number writer behind the bag text and the JSON reports.
pub fn push_decimal(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// The number of decimal digits [`push_decimal`] writes for `v`.
fn decimal_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Parses a relation (multiplicities, if present, must be 1).
pub fn parse_relation(text: &str) -> Result<(Relation, AttrNames), ParseError> {
    let (bag, names) = parse_bag(text)?;
    if !bag.is_relation() {
        return Err(ParseError::NotARelation);
    }
    Ok((bag.support(), names))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_example() {
        let text = "A B #\n1 10 : 2\n2 20 : 1\n3 30 : 5\n";
        let (bag, names) = parse_bag(text).unwrap();
        assert_eq!(bag.support_size(), 3);
        assert_eq!(bag.unary_size(), 8);
        assert_eq!(names.name(bag.schema().attrs()[0]), "A");
        assert_eq!(names.name(bag.schema().attrs()[1]), "B");
    }

    #[test]
    fn roundtrip_is_exact() {
        let text = "A0 A1 #\n1 2 : 7\n3 4 : 1\n";
        let (bag, names) = parse_bag(text).unwrap();
        let written = write_bag(&bag, &names);
        let (bag2, _) = parse_bag(&written).unwrap();
        assert_eq!(bag, bag2);
    }

    #[test]
    fn canonical_attr_names_keep_ids() {
        let text = "A5 A2 #\n1 2 : 1\n";
        let (bag, _) = parse_bag(text).unwrap();
        // header order A5 A2, but schema sorts: value 2 belongs to A2
        assert_eq!(bag.schema().attrs(), &[Attr::new(2), Attr::new(5)]);
        assert_eq!(bag.multiplicity(&[Value(2), Value(1)]), 1);
    }

    #[test]
    fn only_plain_canonical_names_keep_their_id() {
        let mut interner = NameInterner::new();
        assert_eq!(interner.attr("A5"), Attr::new(5));
        assert_eq!(interner.attr("A0"), Attr::new(0));
        assert_eq!(interner.attr("A1073741823"), Attr::new((1 << 30) - 1));
        // Aliases of A5, a name past the canonical range, and the first
        // symbolic name must all be distinct attributes.
        let others = ["A05", "A+5", "A00", "A", "A1073741824", "Z"];
        let ids: Vec<Attr> = others.iter().map(|name| interner.attr(name)).collect();
        for (i, a) in ids.iter().enumerate() {
            assert!(a.id() >= 1 << 30, "{} must be symbolic", others[i]);
            assert!(!ids[..i].contains(a), "{} aliases another name", others[i]);
        }
        let (bag, names) = parse_bag("A1073741824 Z #\n5 6 : 1\n").unwrap();
        assert_eq!(bag.schema().arity(), 2);
        assert_eq!(names.name(bag.schema().attrs()[0]), "A1073741824");
    }

    #[test]
    fn default_multiplicity_is_one_and_accumulates() {
        let text = "X #\n1\n1\n2 : 3\n";
        let (bag, _) = parse_bag(text).unwrap();
        assert_eq!(bag.multiplicity(&[Value(1)]), 2);
        assert_eq!(bag.multiplicity(&[Value(2)]), 3);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "% a bag\n\nA #\n% data follows\n1 : 4\n\n";
        let (bag, _) = parse_bag(text).unwrap();
        assert_eq!(bag.multiplicity(&[Value(1)]), 4);
    }

    #[test]
    fn errors_carry_line_numbers() {
        assert_eq!(parse_bag(""), Err(ParseError::MissingHeader));
        let wrong = parse_bag("A B #\n1 : 1\n");
        assert_eq!(
            wrong,
            Err(ParseError::WrongArity {
                line: 2,
                expected: 2,
                got: 1
            })
        );
        let bad = parse_bag("A #\nx : 1\n");
        assert!(matches!(bad, Err(ParseError::BadNumber { line: 2, .. })));
        let badm = parse_bag("A #\n1 : y\n");
        assert!(matches!(badm, Err(ParseError::BadNumber { line: 2, .. })));
        let dup = parse_bag("A A #\n1 1 : 1\n");
        assert_eq!(dup, Err(ParseError::DuplicateAttribute("A".into())));
    }

    #[test]
    fn accumulate_overflow_reports_line() {
        let text = format!("A #\n1 : {}\n1 : 1\n", u64::MAX);
        assert_eq!(
            parse_bag(&text),
            Err(ParseError::MultiplicityOverflow { line: 3 })
        );
        let msg = parse_bag(&text).unwrap_err().to_string();
        assert!(msg.contains("line 3"), "{msg}");
        // comments shift physical line numbers and must be counted
        let text = format!("% c\nA #\n\n1 : {}\n% c\n1 : 1\n", u64::MAX);
        assert_eq!(
            parse_bag(&text),
            Err(ParseError::MultiplicityOverflow { line: 6 })
        );
    }

    #[test]
    fn delta_lines_parse() {
        assert_eq!(parse_delta_line("", 1).unwrap(), None);
        assert_eq!(parse_delta_line("  % comment", 2).unwrap(), None);
        assert_eq!(
            parse_delta_line("0 1 2 : +1", 3).unwrap(),
            Some((0, vec![Value(1), Value(2)], 1))
        );
        assert_eq!(
            parse_delta_line("2 7 : -3", 4).unwrap(),
            Some((2, vec![Value(7)], -3))
        );
        assert_eq!(
            parse_delta_line("1 5 5", 5).unwrap(),
            Some((1, vec![Value(5), Value(5)], 1)),
            "omitted delta defaults to +1"
        );
        assert_eq!(
            parse_delta_line("0 : 1", 6).unwrap(),
            Some((0, vec![], 1)),
            "empty-schema bags take zero values"
        );
        assert!(matches!(
            parse_delta_line("x 1 : 1", 7),
            Err(ParseError::BadNumber { line: 7, .. })
        ));
        assert!(matches!(
            parse_delta_line("0 1 : ++2", 8),
            Err(ParseError::BadNumber { line: 8, .. })
        ));
    }

    #[test]
    fn symbolic_names_are_interned() {
        let text = "Origin Dest #\n0 1 : 120\n0 2 : 80\n";
        let (bag, names) = parse_bag(text).unwrap();
        assert_eq!(bag.support_size(), 2);
        let a = bag.schema().attrs()[0];
        let b = bag.schema().attrs()[1];
        assert_eq!(names.name(a), "Origin");
        assert_eq!(names.name(b), "Dest");
    }

    #[test]
    fn parse_relation_rejects_multiplicities() {
        assert!(parse_relation("A #\n1 : 1\n2 : 1\n").is_ok());
        assert!(parse_relation("A #\n1 : 2\n").is_err());
    }

    #[test]
    fn shared_interner_keeps_names_consistent_across_files() {
        let mut interner = NameInterner::new();
        let r = parse_bag_with("A B #\n0 0 : 1\n", &mut interner).unwrap();
        let s = parse_bag_with("B C #\n0 0 : 1\n", &mut interner).unwrap();
        // "B" must denote the same attribute in both bags
        let shared = r.schema().intersection(s.schema());
        assert_eq!(shared.arity(), 1);
        assert_eq!(interner.names().name(shared.attrs()[0]), "B");
        // canonical and symbolic ids do not collide
        let t = parse_bag_with("A0 D #\n1 2 : 1\n", &mut interner).unwrap();
        assert_eq!(t.schema().arity(), 2);
    }

    #[test]
    fn empty_bag_roundtrip() {
        let (bag, names) = parse_bag("A B #\n").unwrap();
        assert!(bag.is_empty());
        let written = write_bag(&bag, &names);
        let (bag2, _) = parse_bag(&written).unwrap();
        assert_eq!(bag, bag2);
    }
}
