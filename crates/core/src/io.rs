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
//!   format reads relations. Repeated rows add up.
//! * Values must be unsigned integers (intern symbolic values upstream).
//! * Blank lines and `%`-comments are ignored.
//!
//! The exact grammar, line by line. Lines end at `\n` and are numbered
//! from 1, blank and comment lines included.
//!
//! * A `%` starts a comment that runs to the end of the line. The text
//!   before it is trimmed of Unicode whitespace (`char::is_whitespace`,
//!   so `\r`, VT, NBSP and U+2003 too); a line with nothing left is
//!   blank. The first non-blank line is the header: names split on
//!   whitespace, up to a `#` token.
//! * In a data row, the first `:` splits the values from the
//!   multiplicity; a later `:` belongs to the multiplicity token. The
//!   values split on Unicode whitespace, and there must be exactly one
//!   per attribute. Each value, and the trimmed multiplicity, is read as
//!   `u64::from_str` reads it: decimal digits with an optional leading
//!   `+`, below `2⁶⁴`.
//! * The first failing line is reported. Within a line a wrong value
//!   count ([`ParseError::WrongArity`]) comes before a bad token
//!   ([`ParseError::BadNumber`]). A row whose repeated copies sum past
//!   `u64::MAX` fails at the line that tips it over
//!   ([`ParseError::MultiplicityOverflow`]).
//!
//! Parsed bags arrive sealed ([`parse_bag_with`]). Round-tripping is
//! exact; ordering is canonical (sorted rows) on write.

use crate::{Attr, AttrNames, Bag, CoreError, ExecConfig, Relation, Schema, Value};
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
    /// A delta line's delta failed to parse as a signed integer.
    BadDelta {
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
            ParseError::BadDelta { line, token } => {
                write!(f, "line {line}: {token:?} is not a signed integer")
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
    let bag = parse_bag_with(text, &mut interner, &ExecConfig::sequential())?;
    Ok((bag, interner.names))
}

/// Parses a bag, resolving attribute names through a shared interner.
///
/// The rows go into one row-major arena, already in schema order, with
/// a multiplicity column beside it. [`Bag::from_arena`] adopts that
/// arena as it stands when its rows already ascend strictly (as a file
/// [`write_bag`] wrote does, read back under the same attribute ids),
/// and otherwise sorts it once under `cfg`,
/// merges duplicate rows and adopts the result, so the bag arrives
/// sealed. No row is hashed on the way: any row whose copies
/// overflow `u64` also overflows the checked running total of all
/// multiplicities, and only then are the rows re-scanned to find the
/// line at which the overflow happened.
pub fn parse_bag_with(
    text: &str,
    interner: &mut NameInterner,
    cfg: &ExecConfig,
) -> Result<Bag, ParseError> {
    let mut lines = Lines {
        text,
        pos: 0,
        no: 0,
    };
    let header = lines
        .by_ref()
        .map(|(_, line)| content(line))
        .find(|line| !line.is_empty())
        .ok_or(ParseError::MissingHeader)?;
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

    let body = lines;
    let mut data: Vec<Value> = Vec::new();
    let mut mults: Vec<u64> = Vec::new();
    let mut total = 0u64;
    let mut overflowed = false;
    let mut failed = None;
    while lines.pos < text.len() {
        let mult = match scan_row(text.as_bytes(), lines.pos, &positions, &mut data) {
            Some((next, mult)) => {
                lines.pos = next;
                lines.no += 1;
                mult
            }
            None => {
                let (line_no, line) = lines.next().expect("unread text holds a line");
                let line = content(line);
                if line.is_empty() {
                    continue;
                }
                match parse_row(line, line_no, &positions, &mut data) {
                    Ok(m) => Some(m),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
        };
        if let Some(m) = mult {
            mults.push(m);
            let (sum, carry) = total.overflowing_add(m);
            total = sum;
            overflowed |= carry;
        }
    }
    // An overflow on a line before the failing one, if any, comes first.
    if overflowed {
        if let Some(line) = overflow_line(body, positions.len(), &data, &mults) {
            return Err(ParseError::MultiplicityOverflow { line });
        }
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(Bag::from_arena(schema, data, mults, cfg)?),
    }
}

/// The physical lines of a text from byte offset `pos` on, numbered as
/// `str::lines` numbers them; `no` is the number of the line before
/// `pos`.
#[derive(Clone, Copy)]
struct Lines<'t> {
    text: &'t str,
    pos: usize,
    no: usize,
}

impl<'t> Iterator for Lines<'t> {
    type Item = (usize, &'t str);

    fn next(&mut self) -> Option<(usize, &'t str)> {
        let rest = self.text.get(self.pos..).filter(|r| !r.is_empty())?;
        let len = rest.find('\n').unwrap_or(rest.len());
        self.pos += len + 1;
        self.no += 1;
        Some((self.no, &rest[..len]))
    }
}

/// A line's content: the text before its first `%`, trimmed. A line
/// with no content is blank.
fn content(line: &str) -> &str {
    line.split('%').next().unwrap_or("").trim()
}

/// Scans the line that starts at byte `i` when, up to its first `%`, it
/// holds only ASCII digits, `+`, `:` and the whitespace bytes other than
/// `\n` (`\t`, VT, FF, `\r`, space), and is blank or a well-formed row.
/// The row's values go to `data` at their schema positions. Returns the
/// position after the line and the row's multiplicity, `None` for a
/// blank line. Any other line returns `None` with `data` as it was;
/// [`parse_row`] then reads it by the `str` rules, errors included.
fn scan_row(
    bytes: &[u8],
    mut i: usize,
    positions: &[usize],
    data: &mut Vec<Value>,
) -> Option<(usize, Option<u64>)> {
    let arity = positions.len();
    let base = data.len();
    data.resize(base + arity, Value(0));
    let mut col = 0;
    let mut mult = None;
    let scanned = loop {
        while bytes.get(i).is_some_and(|&b| is_space(b)) {
            i += 1;
        }
        match bytes.get(i) {
            None | Some(b'\n' | b'%') => break true,
            Some(b':') if col == arity && mult.is_none() => {
                i += 1;
                while bytes.get(i).is_some_and(|&b| is_space(b)) {
                    i += 1;
                }
                mult = scan_u64(bytes, &mut i);
                if mult.is_none() {
                    break false;
                }
            }
            Some(_) if col < arity && mult.is_none() => match scan_u64(bytes, &mut i) {
                Some(v) => {
                    data[base + positions[col]] = Value(v);
                    col += 1;
                }
                None => break false,
            },
            Some(_) => break false,
        }
    };
    let row = match (scanned, col, mult) {
        (true, 0, None) => Some(None),
        (true, c, m) if c == arity => Some(Some(m.unwrap_or(1))),
        _ => None,
    };
    if !matches!(row, Some(Some(_))) {
        data.truncate(base);
    }
    let next = bytes[i..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(bytes.len(), |n| i + n + 1);
    Some((next, row?))
}

/// The whitespace bytes `char::is_whitespace` accepts, except `\n`.
/// Unlike `u8::is_ascii_whitespace`, this includes VT (`0x0B`).
fn is_space(b: u8) -> bool {
    matches!(b, b'\t' | 0x0B | 0x0C | b'\r' | b' ')
}

/// Reads a token of an optional `+` and decimal digits at byte `i`,
/// as `u64::from_str` does, and moves `i` past it. `None` when the token
/// is not such a number, overflows, or does not end at whitespace, `:`,
/// `%` or the end of the line.
fn scan_u64(bytes: &[u8], i: &mut usize) -> Option<u64> {
    if bytes.get(*i) == Some(&b'+') {
        *i += 1;
    }
    let start = *i;
    let mut v = 0u64;
    while let Some(&b @ b'0'..=b'9') = bytes.get(*i) {
        v = v.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        *i += 1;
    }
    let ends = match bytes.get(*i) {
        None => true,
        Some(&b) => b == b'\n' || b == b':' || b == b'%' || is_space(b),
    };
    (*i > start && ends).then_some(v)
}

/// Reads one non-blank line's content by the `str` rules: the first `:`
/// splits the values from the multiplicity, the values split on Unicode
/// whitespace, and each token parses with `u64::from_str`. The values go
/// to `data` at their schema positions; returns the multiplicity. A
/// wrong value count is reported before any bad number.
fn parse_row(
    line: &str,
    line_no: usize,
    positions: &[usize],
    data: &mut Vec<Value>,
) -> Result<u64, ParseError> {
    let (vals_part, mult_part) = match line.split_once(':') {
        Some((v, m)) => (v, Some(m)),
        None => (line, None),
    };
    let got = vals_part.split_whitespace().count();
    if got != positions.len() {
        return Err(ParseError::WrongArity {
            line: line_no,
            expected: positions.len(),
            got,
        });
    }
    let base = data.len();
    data.resize(base + positions.len(), Value(0));
    for (token, &p) in vals_part.split_whitespace().zip(positions) {
        data[base + p] = Value(number(token, line_no)?);
    }
    mult_part.map_or(Ok(1), |m| number(m.trim(), line_no))
}

/// `token` as a `u64`, or [`ParseError::BadNumber`] naming it.
fn number(token: &str, line: usize) -> Result<u64, ParseError> {
    token.parse().map_err(|_| ParseError::BadNumber {
        line,
        token: token.to_string(),
    })
}

/// The line of the first row whose accumulated multiplicity overflows
/// `u64`, reading the rows of `data`/`mults` in line order, as inserting
/// them one by one would meet it. `body` is positioned after the header;
/// row `k` came from its `k`-th non-blank line. Runs only once the
/// running total has overflowed, so it is the one place that hashes
/// rows.
fn overflow_line(body: Lines<'_>, arity: usize, data: &[Value], mults: &[u64]) -> Option<usize> {
    let mut sums: std::collections::HashMap<&[Value], u64> = Default::default();
    let row = (0..mults.len()).position(|r| {
        let sum = sums.entry(&data[r * arity..(r + 1) * arity]).or_insert(0);
        sum.checked_add(mults[r]).map(|s| *sum = s).is_none()
    })?;
    body.filter(|(_, line)| !content(line).is_empty())
        .nth(row)
        .map(|(no, _)| no)
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
            d.parse().map_err(|_| ParseError::BadDelta {
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
/// The text goes into one byte buffer sized up front: a first pass
/// counts the digits, the second writes them as bytes, and one
/// UTF-8 check turns the buffer into the `String`. No per-row or
/// per-value string is allocated.
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
    let mut out = Vec::with_capacity(header.iter().map(|h| h.len() + 1).sum::<usize>() + 2 + body);
    for name in &header {
        out.extend_from_slice(name.as_bytes());
        out.push(b' ');
    }
    out.extend_from_slice(b"#\n");
    for (row, m) in bag.iter_sorted() {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(b' ');
            }
            push_digits(&mut out, v.get());
        }
        out.extend_from_slice(b" : ");
        push_digits(&mut out, m);
        out.push(b'\n');
    }
    String::from_utf8(out).expect("attribute names are UTF-8 and the rest is ASCII")
}

/// Appends the decimal digits of `v` to the byte buffer `out`.
fn push_digits(out: &mut Vec<u8>, mut v: u64) {
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
    out.extend_from_slice(&buf[i..]);
}

/// Appends the decimal digits of `v` to `out` without allocating — the
/// number writer behind the bag text and the JSON reports. Takes any
/// unsigned width up to `u128` (a bag's unary size can pass `u64::MAX`).
pub fn push_decimal(out: &mut String, v: impl Into<u128>) {
    let mut buf = [0u8; 39];
    let mut i = buf.len();
    // Digits above the u64 range take u128 divisions; the rest stay on
    // the cheaper u64 path.
    let mut wide = v.into();
    while wide > u64::MAX as u128 {
        i -= 1;
        buf[i] = b'0' + (wide % 10) as u8;
        wide /= 10;
    }
    let mut v = wide as u64;
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
    use proptest::prelude::*;

    /// The row-at-a-time parser the arena scan replaced, kept verbatim
    /// as the oracle: it interns every row through [`Bag::insert`] and
    /// reports an overflow at the insert that meets it.
    fn parse_rowwise(text: &str, interner: &mut NameInterner) -> Result<Bag, ParseError> {
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
            return Err(ParseError::DuplicateAttribute(header.to_string()));
        }
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

    /// Asserts that the arena parser, sequential and sharded, returns
    /// what the oracle returns and then seals to: the same error, or a
    /// sealed bag with the same rows in the same layout.
    fn assert_matches_oracle(text: &str) {
        let want = parse_rowwise(text, &mut NameInterner::new()).map(|mut bag| {
            bag.seal();
            bag
        });
        let par = ExecConfig::builder()
            .threads(2)
            .min_parallel_support(1)
            .build()
            .unwrap();
        for cfg in [ExecConfig::sequential(), par] {
            let got = parse_bag_with(text, &mut NameInterner::new(), &cfg);
            assert_eq!(got, want, "{text:?}");
            if let (Ok(got), Ok(want)) = (&got, &want) {
                assert!(got.is_sealed());
                assert_eq!(got.store().values(), want.store().values(), "{text:?}");
                assert!(got.iter().eq(want.iter()), "{text:?}");
            }
        }
    }

    const HEADERS: [&str; 5] = ["#", "A #", "B A #", "Z X Y #", "A2 A0 A1"];
    const SPACES: [&str; 8] = [
        "\t", "\u{0B}", "\u{0C}", " \r ", "\u{A0}", "\u{2003}", "\u{85}", "  ",
    ];
    const JUNK: [&str; 14] = [
        "+",
        "++",
        "++1",
        "+7",
        "1:2",
        "5%",
        "1+2",
        "-1",
        "x",
        "",
        "18446744073709551616",
        "000018446744073709551615",
        "99999999999999999999999",
        "\u{663}",
    ];

    /// One line of generated text: a row over `arity` values (small, so
    /// rows repeat) with a multiplicity that is small, zero or near
    /// `u64::MAX`, written with assorted separators; or a blank or
    /// comment line; or, for `kind` 7 and up, a row with a junk value,
    /// a junk multiplicity, the wrong number of values, values joined by
    /// a non-space byte, or a stray `:`.
    fn text_line(arity: usize, (kind, a, b, c): (u8, u64, u64, u64)) -> String {
        let sep = if b % 3 == 0 {
            SPACES[(b / 3 % 8) as usize]
        } else {
            " "
        };
        let mut vals: Vec<String> = (0..arity).map(|k| (a >> (2 * k) & 3).to_string()).collect();
        let mult = match c % 4 {
            0 => u64::MAX - c / 4 % 3,
            1 => c / 4 % 3,
            _ => c,
        };
        let junk = JUNK[(c % 14) as usize];
        let colon = [" : ", ":", " :", ": ", "\t:\u{A0}"][(a % 5) as usize];
        let mut line = match kind {
            0..=3 => format!("{}{colon}{mult}", vals.join(sep)),
            4 => vals.join(sep),
            5 => ["", "   ", "% only a comment", "  % ü : 1", "\t\u{A0}"][(c % 5) as usize].into(),
            6 => format!("{}{colon}+{mult} % note: 1 ü", vals.join(sep)),
            7 if arity > 0 => {
                vals[(b % arity as u64) as usize] = junk.into();
                format!("{}{colon}{mult}", vals.join(sep))
            }
            7 | 8 => format!("{}{colon}{junk}", vals.join(sep)),
            9 if b % 2 == 0 => {
                vals.push("1".into());
                vals[(b % (arity as u64 + 1)) as usize..].join(sep)
            }
            9 => vals.join(["+", "\u{1C}", "\u{1F}", "-"][(c % 4) as usize]),
            _ => format!("{}{colon}{mult}{colon}1", vals.join(sep)),
        };
        line.push_str(if a % 7 == 0 { "\r\n" } else { "\n" });
        line
    }

    fn text_of(header: usize, lines: Vec<(u8, u64, u64, u64)>) -> String {
        let header = HEADERS[header];
        let arity = header.split_whitespace().filter(|t| *t != "#").count();
        let mut text = format!("% generated\n{header}\n");
        for line in lines {
            text.push_str(&text_line(arity, line));
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arena_parser_matches_rowwise_oracle_on_bags(
            header in 0..5usize,
            lines in collection::vec((0..7u8, 0..64u64, 0..64u64, 0..200u64), 0..24),
        ) {
            assert_matches_oracle(&text_of(header, lines));
        }

        #[test]
        fn arena_parser_matches_rowwise_oracle_on_hostile_text(
            header in 0..5usize,
            lines in collection::vec((0..11u8, 0..64u64, 0..64u64, 0..200u64), 0..24),
        ) {
            assert_matches_oracle(&text_of(header, lines));
        }
    }

    #[test]
    fn push_decimal_writes_every_width_exactly() {
        for v in [0u128, 7, 10, u64::MAX as u128, 1 << 64, u128::MAX] {
            let mut out = String::new();
            push_decimal(&mut out, v);
            assert_eq!(out, v.to_string());
        }
        let mut out = String::from("x");
        push_decimal(&mut out, 42u64);
        assert_eq!(out, "x42");
    }

    #[test]
    fn leading_plus_parses_as_u64_from_str_does() {
        let (bag, _) = parse_bag("A B #\n+1 2 : +3\n+01\t+2\n").unwrap();
        assert_eq!(bag.multiplicity(&[Value(1), Value(2)]), 4);
        // `+` inside a token does not split it
        assert_eq!(
            parse_bag("A B #\n1+2 : 1\n"),
            Err(ParseError::WrongArity {
                line: 2,
                expected: 2,
                got: 1
            })
        );
        for (text, token) in [
            ("A #\n+ : 1\n", "+"),
            ("A #\n++1 : 1\n", "++1"),
            ("A #\n1+2 : 1\n", "1+2"),
            ("A #\n1 : +\n", "+"),
            ("A #\n1 : 2+\n", "2+"),
        ] {
            assert_eq!(
                parse_bag(text),
                Err(ParseError::BadNumber {
                    line: 2,
                    token: token.into()
                }),
                "{text:?}"
            );
        }
    }

    #[test]
    fn unicode_whitespace_separates_values() {
        // NBSP, EM SPACE, NEL, VT and FF all split values, as
        // `split_whitespace` splits them; CRLF line ends are trimmed.
        let text = "A B #\r\n1\u{A0}2 : 3\r\n1\u{2003}2\u{85}:\u{0C}4\n5\u{0B}6\n";
        let (bag, _) = parse_bag(text).unwrap();
        assert_eq!(bag.multiplicity(&[Value(1), Value(2)]), 7);
        assert_eq!(bag.multiplicity(&[Value(5), Value(6)]), 1);
        // a non-ASCII digit is a bad token, reported whole
        assert_eq!(
            parse_bag("A #\n\u{663} : 1\n"),
            Err(ParseError::BadNumber {
                line: 2,
                token: "\u{663}".into()
            })
        );
    }

    #[test]
    fn first_failing_line_wins_overflow_or_syntax() {
        let max = u64::MAX;
        // the overflowing accumulate (line 3) precedes a bad number
        assert_eq!(
            parse_bag(&format!("A #\n1 : {max}\n1 : 1\nx\n")),
            Err(ParseError::MultiplicityOverflow { line: 3 })
        );
        // a bad number (line 3) precedes the overflowing accumulate
        assert_eq!(
            parse_bag(&format!("A #\n1 : {max}\nx\n1 : 1\n")),
            Err(ParseError::BadNumber {
                line: 3,
                token: "x".into()
            })
        );
        // the running total overflows but no row does: the syntax error
        // stands, and without one the bag parses
        assert_eq!(
            parse_bag(&format!("A #\n1 : {max}\n2 : 1\n1 2\n")),
            Err(ParseError::WrongArity {
                line: 4,
                expected: 1,
                got: 2
            })
        );
        let (bag, _) = parse_bag(&format!("A #\n1 : {max}\n2 : 1\n")).unwrap();
        assert_eq!(bag.multiplicity(&[Value(1)]), max);
        // within a line, a wrong value count comes before a bad number
        assert_eq!(
            parse_bag("A B #\nx : y\n"),
            Err(ParseError::WrongArity {
                line: 2,
                expected: 2,
                got: 1
            })
        );
    }

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
            Err(ParseError::BadDelta { line: 8, .. })
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
        let seq = ExecConfig::sequential();
        let r = parse_bag_with("A B #\n0 0 : 1\n", &mut interner, &seq).unwrap();
        let s = parse_bag_with("B C #\n0 0 : 1\n", &mut interner, &seq).unwrap();
        // "B" must denote the same attribute in both bags
        let shared = r.schema().intersection(s.schema());
        assert_eq!(shared.arity(), 1);
        assert_eq!(interner.names().name(shared.attrs()[0]), "B");
        // canonical and symbolic ids do not collide
        let t = parse_bag_with("A0 D #\n1 2 : 1\n", &mut interner, &seq).unwrap();
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
