//! # `bagcons-snap` — versioned binary snapshot container
//!
//! Sealed bags enter the system today through text parsing followed by a
//! full seal (sort + re-layout + packed-view rebuild). This crate is the
//! persistence format that skips all of it on the way back in: a
//! snapshot file stores each bag's columnar arena, multiplicity column,
//! and schema — plus the session's attribute-name table — as
//! length-prefixed, 8-byte-aligned, content-hashed sections. Loading
//! validates the header and every section hash, then reconstructs
//! [`Bag`]s by **bulk-moving** the arena bytes through
//! [`RowStore::from_sorted_rows`]: no re-interning, no re-sorting. The
//! sealed sorted-run invariant is *checked* (one adjacent-pair pass
//! doubles as the distinctness certificate), never recomputed.
//!
//! Hand-rolled like `report::Json` — the build environment is offline,
//! so no serde.
//!
//! # Format (version 1)
//!
//! ```text
//! header   (32 B): magic "BAGSNAP1" · version u32 · section_count u32
//!                  · file_len u64 · table_hash u64
//! table    (section_count × 32 B): kind u32 · index u32 · offset u64
//!                  · len u64 · hash u64
//! payloads: 8-byte-aligned, zero-padded between sections
//! ```
//!
//! All integers are little-endian. `table_hash` covers the raw table
//! bytes; each entry's `hash` covers its payload bytes (padding
//! excluded). Hashes are a four-lane striped variant of the workspace
//! Fx hash (lane digests and the payload length folded through a final
//! Fx round) — deterministic across runs and thread counts, so
//! canonical bytes double as content identity, and wide enough to keep
//! load-time verification off the critical path.
//!
//! Section kinds: `META` (bag/pair counts + flags), per-bag `SCHEMA`
//! (attr ids, strictly ascending), `ARENA` (row-major values), `MULTS`
//! (dense multiplicity column — its length defines the row count),
//! `NAMES` (attribute display names), per-pair `FLOWS` (retired).
//!
//! `FLOWS` is retired: earlier writers stored per-pair middle-edge flow
//! columns there. The writer never emits it and records a zero pair
//! count and clear flags in `META`; the reader verifies a `FLOWS`
//! section's hash like any other and ignores its payload, so such files
//! still load. [`SnapInfo`] reports the recorded pair count and flag.
//!
//! Corruption never panics: truncation, bad magic, wrong version, and
//! flipped bytes all surface as typed [`SnapError`] variants, and the
//! structural decode runs only over hash-verified bytes with checked
//! arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bagcons_core::hash::FxHasher;
use bagcons_core::{Attr, Bag, Relation, RowStore, Schema, Value};
use std::fmt;
use std::hash::Hasher;
use std::path::Path;

/// File magic: identifies a bagcons snapshot (any version).
pub const MAGIC: [u8; 8] = *b"BAGSNAP1";

/// Current format version. Readers reject other versions with
/// [`SnapError::UnsupportedVersion`]; new section kinds or layout
/// changes require a bump.
pub const VERSION: u32 = 1;

const HEADER_LEN: usize = 32;
const ENTRY_LEN: usize = 32;

/// Section kind tags (the `kind` field of a table entry).
mod kind {
    pub const META: u32 = 1;
    pub const SCHEMA: u32 = 2;
    pub const ARENA: u32 = 3;
    pub const MULTS: u32 = 4;
    pub const NAMES: u32 = 5;
    pub const FLOWS: u32 = 6;
}

fn kind_name(kind: u32) -> &'static str {
    match kind {
        kind::META => "meta",
        kind::SCHEMA => "schema",
        kind::ARENA => "arena",
        kind::MULTS => "mults",
        kind::NAMES => "names",
        kind::FLOWS => "flows",
        _ => "unknown",
    }
}

/// Typed snapshot failures. Every corruption mode maps onto one of
/// these; the loader never panics on untrusted bytes.
#[derive(Debug)]
pub enum SnapError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The first eight bytes are not [`MAGIC`].
    BadMagic,
    /// The header names a version this reader does not speak.
    UnsupportedVersion(u32),
    /// The byte length on hand differs from what the header (or the
    /// minimum header size) requires — truncated or padded files.
    Truncated {
        /// Bytes the header requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section's content hash does not match its table entry.
    HashMismatch {
        /// Section kind name (`"table"` for the section table itself).
        section: &'static str,
        /// The failing entry's index field.
        index: u32,
    },
    /// Hash-valid bytes that decode to an inconsistent structure.
    Malformed(&'static str),
    /// [`SnapshotWriter::add_bag`] was handed an unsealed bag.
    Unsealed,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io(e) => write!(f, "i/o error: {e}"),
            SnapError::BadMagic => write!(f, "not a bagcons snapshot (bad magic)"),
            SnapError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (reader speaks {VERSION})"
                )
            }
            SnapError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated snapshot: expected {expected} bytes, have {actual}"
                )
            }
            SnapError::HashMismatch { section, index } => {
                write!(
                    f,
                    "content hash mismatch in {section} section (index {index})"
                )
            }
            SnapError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
            SnapError::Unsealed => write!(f, "cannot snapshot an unsealed bag"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapError {
    fn from(e: std::io::Error) -> Self {
        SnapError::Io(e)
    }
}

/// Content hash of a payload: four interleaved Fx lanes over 32-byte
/// blocks (lane `k` hashes words `k, k+4, k+8, …`), the sub-block tail
/// hashed separately, then the lane digests and the payload length
/// folded through one final Fx round. The striping exists because a
/// single Fx chain is latency-bound (each step's rotate-xor-multiply
/// depends on the last); four independent chains let wide cores verify
/// multi-megabyte arenas at load time without dominating the open.
/// Deterministic across runs (the workspace hasher is unseeded).
fn content_hash(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; 4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            let word =
                u64::from_le_bytes(block[8 * k..8 * k + 8].try_into().expect("8-byte slice"));
            *lane = (lane.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
        }
    }
    let mut tail = FxHasher::default();
    tail.write(blocks.remainder());
    let mut h = FxHasher::default();
    for lane in lanes {
        h.write_u64(lane);
    }
    h.write_u64(tail.finish());
    h.write_u64(bytes.len() as u64);
    h.finish()
}

/// The Fx multiplier (the workspace `FxHasher`'s constant), restated
/// here for the unrolled lane loop of [`content_hash`].
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a verified payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapError::Malformed("section shorter than its contents"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// True iff `bytes` begins with the snapshot magic — the sniff used by
/// `DatasetSource` auto-detection. A short or text file is simply "not
/// a snapshot", never an error.
pub fn looks_like_snapshot(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

struct BagParts {
    attrs: Vec<Attr>,
    values: Vec<Value>,
    mults: Vec<u64>,
}

/// Serializes sealed bags (plus names) into the canonical snapshot byte
/// string.
#[derive(Default)]
pub struct SnapshotWriter {
    bags: Vec<BagParts>,
    names: Vec<(Attr, String)>,
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends a bag. The bag must be sealed: the format persists the
    /// sorted-run layout verbatim, and only a seal certifies it.
    pub fn add_bag(&mut self, bag: &Bag) -> Result<(), SnapError> {
        if !bag.is_sealed() {
            return Err(SnapError::Unsealed);
        }
        let rows = bag.store().len();
        self.bags.push(BagParts {
            attrs: bag.schema().attrs().to_vec(),
            values: bag.store().values().to_vec(),
            mults: (0..rows as u32).map(|i| bag.mult_of(i)).collect(),
        });
        Ok(())
    }

    /// Sets the attribute-name table (typically
    /// `NameInterner::entries()`), replacing any previous one.
    pub fn set_names(&mut self, names: Vec<(Attr, String)>) {
        self.names = names;
    }

    /// The canonical snapshot bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sections: Vec<(u32, u32, Vec<u8>)> = Vec::new();

        let mut meta = Vec::with_capacity(16);
        push_u32(&mut meta, self.bags.len() as u32);
        push_u32(&mut meta, 0); // flags: no flows
        push_u32(&mut meta, 0); // pair count: no flows
        push_u32(&mut meta, 0); // reserved
        sections.push((kind::META, 0, meta));

        for (i, parts) in self.bags.iter().enumerate() {
            let mut schema = Vec::with_capacity(4 + 4 * parts.attrs.len());
            push_u32(&mut schema, parts.attrs.len() as u32);
            for a in &parts.attrs {
                push_u32(&mut schema, a.id());
            }
            sections.push((kind::SCHEMA, i as u32, schema));

            let mut arena = Vec::with_capacity(8 * parts.values.len());
            for v in &parts.values {
                push_u64(&mut arena, v.get());
            }
            sections.push((kind::ARENA, i as u32, arena));

            let mut mults = Vec::with_capacity(8 * parts.mults.len());
            for &m in &parts.mults {
                push_u64(&mut mults, m);
            }
            sections.push((kind::MULTS, i as u32, mults));
        }

        let mut names = Vec::new();
        push_u32(&mut names, self.names.len() as u32);
        for (attr, name) in &self.names {
            push_u32(&mut names, attr.id());
            push_u32(&mut names, name.len() as u32);
            names.extend_from_slice(name.as_bytes());
            while names.len() % 4 != 0 {
                names.push(0);
            }
        }
        sections.push((kind::NAMES, 0, names));

        // Lay out: header · table · 8-aligned payloads.
        let table_len = sections.len() * ENTRY_LEN;
        let mut offset = (HEADER_LEN + table_len) as u64;
        let mut table = Vec::with_capacity(table_len);
        let mut offsets = Vec::with_capacity(sections.len());
        for (k, index, payload) in &sections {
            offset = (offset + 7) & !7;
            offsets.push(offset);
            push_u32(&mut table, *k);
            push_u32(&mut table, *index);
            push_u64(&mut table, offset);
            push_u64(&mut table, payload.len() as u64);
            push_u64(&mut table, content_hash(payload));
            offset += payload.len() as u64;
        }
        let file_len = offset;

        let mut out = Vec::with_capacity(file_len as usize);
        out.extend_from_slice(&MAGIC);
        push_u32(&mut out, VERSION);
        push_u32(&mut out, sections.len() as u32);
        push_u64(&mut out, file_len);
        push_u64(&mut out, content_hash(&table));
        out.extend_from_slice(&table);
        for ((_, _, payload), off) in sections.iter().zip(offsets) {
            out.resize(off as usize, 0);
            out.extend_from_slice(payload);
        }
        debug_assert_eq!(out.len() as u64, file_len);
        out
    }

    /// Writes the snapshot to `path`.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), SnapError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// One validated section-table entry.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// Raw kind tag.
    pub kind: u32,
    /// Human-readable kind name (`"unknown"` for unrecognized tags).
    pub name: &'static str,
    /// Entry index (bag index for per-bag kinds, pair index for flows).
    pub index: u32,
    /// Payload offset from the start of the file.
    pub offset: u64,
    /// Payload length in bytes (padding excluded).
    pub len: u64,
    /// Recorded content hash.
    pub hash: u64,
}

/// Header-level description of a snapshot file.
#[derive(Debug, Clone)]
pub struct SnapInfo {
    /// Format version from the header.
    pub version: u32,
    /// Total file length from the header.
    pub file_len: u64,
    /// Number of bags recorded in the meta section.
    pub bag_count: u32,
    /// Number of stream pairs recorded in the meta section (nonzero
    /// only in files written with the retired flow sections).
    pub pair_count: u32,
    /// Whether the meta section flags flow sections (see the module
    /// docs: they are verified and ignored).
    pub has_flows: bool,
    /// The section table, in file order.
    pub sections: Vec<SectionInfo>,
}

/// Header + table validation shared by [`inspect`], [`verify`], and
/// [`Snapshot::from_bytes`]. Checks magic, version, length, table
/// bounds, and the table hash; per-payload hashes are the caller's
/// second pass.
fn read_table(bytes: &[u8]) -> Result<(u32, Vec<SectionInfo>), SnapError> {
    // The magic first: a short file that is not a prefix of it is no
    // snapshot, while a prefix of a real one (the empty file too) is a
    // truncated one.
    let magic = bytes.len().min(MAGIC.len());
    if bytes[..magic] != MAGIC[..magic] {
        return Err(SnapError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(SnapError::Truncated {
            expected: HEADER_LEN as u64,
            actual: bytes.len() as u64,
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if version != VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    let section_count = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
    let file_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8-byte slice"));
    if file_len != bytes.len() as u64 {
        return Err(SnapError::Truncated {
            expected: file_len,
            actual: bytes.len() as u64,
        });
    }
    let table_hash = u64::from_le_bytes(bytes[24..32].try_into().expect("8-byte slice"));
    let table_len = (section_count as usize)
        .checked_mul(ENTRY_LEN)
        .filter(|&t| HEADER_LEN + t <= bytes.len())
        .ok_or(SnapError::Malformed("section table out of bounds"))?;
    let table = &bytes[HEADER_LEN..HEADER_LEN + table_len];
    if content_hash(table) != table_hash {
        return Err(SnapError::HashMismatch {
            section: "table",
            index: 0,
        });
    }
    let mut sections = Vec::with_capacity(section_count as usize);
    for entry in table.chunks_exact(ENTRY_LEN) {
        let kind = u32::from_le_bytes(entry[0..4].try_into().expect("4-byte slice"));
        let index = u32::from_le_bytes(entry[4..8].try_into().expect("4-byte slice"));
        let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8-byte slice"));
        let len = u64::from_le_bytes(entry[16..24].try_into().expect("8-byte slice"));
        let hash = u64::from_le_bytes(entry[24..32].try_into().expect("8-byte slice"));
        if offset % 8 != 0
            || offset < (HEADER_LEN + table_len) as u64
            || offset.checked_add(len).is_none_or(|end| end > file_len)
        {
            return Err(SnapError::Malformed("section payload out of bounds"));
        }
        sections.push(SectionInfo {
            kind,
            name: kind_name(kind),
            index,
            offset,
            len,
            hash,
        });
    }
    Ok((version, sections))
}

fn section_payload<'a>(bytes: &'a [u8], s: &SectionInfo) -> &'a [u8] {
    // Bounds were validated by `read_table`.
    &bytes[s.offset as usize..(s.offset + s.len) as usize]
}

fn decode_meta(sections: &[SectionInfo], bytes: &[u8]) -> Result<(u32, u32, bool), SnapError> {
    let mut meta = None;
    for s in sections {
        if s.kind == kind::META {
            if meta.is_some() {
                return Err(SnapError::Malformed("duplicate meta section"));
            }
            meta = Some(s);
        }
    }
    let meta = meta.ok_or(SnapError::Malformed("missing meta section"))?;
    let mut r = Reader::new(section_payload(bytes, meta));
    let bag_count = r.u32()?;
    let flags = r.u32()?;
    let pair_count = r.u32()?;
    let _reserved = r.u32()?;
    if !r.done() {
        return Err(SnapError::Malformed("oversized meta section"));
    }
    Ok((bag_count, pair_count, flags & 1 != 0))
}

fn snap_info(
    bytes: &[u8],
    version: u32,
    sections: Vec<SectionInfo>,
) -> Result<SnapInfo, SnapError> {
    let (bag_count, pair_count, has_flows) = decode_meta(&sections, bytes)?;
    Ok(SnapInfo {
        version,
        file_len: bytes.len() as u64,
        bag_count,
        pair_count,
        has_flows,
        sections,
    })
}

/// Validates the header and section table (bounds + table hash) and
/// reads the meta section — the cheap `snapshot info` pass. Payload
/// hashes and structure are **not** checked; use [`verify`] for that.
pub fn inspect(bytes: &[u8]) -> Result<SnapInfo, SnapError> {
    let (version, sections) = read_table(bytes)?;
    snap_info(bytes, version, sections)
}

/// Full validation: everything [`inspect`] checks, plus every payload
/// hash and a complete structural decode. Succeeds iff
/// [`Snapshot::from_bytes`] would.
pub fn verify(bytes: &[u8]) -> Result<SnapInfo, SnapError> {
    let snapshot = Snapshot::from_bytes(bytes)?;
    drop(snapshot);
    inspect(bytes)
}

/// A decoded snapshot: sealed bags and attribute names.
pub struct Snapshot {
    bags: Vec<Bag>,
    names: Vec<(Attr, String)>,
}

impl Snapshot {
    /// Reads and decodes the snapshot at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Snapshot, SnapError> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }

    /// Decodes a snapshot from bytes: header, table hash, per-section
    /// hashes, then structural decode — in that order, so corrupted
    /// bytes fail with the most specific [`SnapError`] available.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapError> {
        let (_, sections) = read_table(bytes)?;
        for s in &sections {
            if content_hash(section_payload(bytes, s)) != s.hash {
                return Err(SnapError::HashMismatch {
                    section: s.name,
                    index: s.index,
                });
            }
        }
        let (bag_count, _, _) = decode_meta(&sections, bytes)?;

        let n = bag_count as usize;
        let mut schemas: Vec<Option<Vec<Attr>>> = (0..n).map(|_| None).collect();
        let mut arenas: Vec<Option<Vec<Value>>> = (0..n).map(|_| None).collect();
        let mut mult_cols: Vec<Option<Vec<u64>>> = (0..n).map(|_| None).collect();
        let mut names: Option<Vec<(Attr, String)>> = None;

        for s in &sections {
            let payload = section_payload(bytes, s);
            match s.kind {
                kind::META => {}
                kind::SCHEMA => {
                    let slot = schemas
                        .get_mut(s.index as usize)
                        .ok_or(SnapError::Malformed("schema section for unknown bag"))?;
                    if slot.is_some() {
                        return Err(SnapError::Malformed("duplicate schema section"));
                    }
                    let mut r = Reader::new(payload);
                    let arity = r.u32()? as usize;
                    let mut attrs = Vec::with_capacity(arity);
                    for _ in 0..arity {
                        attrs.push(Attr::new(r.u32()?));
                    }
                    if !r.done() {
                        return Err(SnapError::Malformed("oversized schema section"));
                    }
                    if attrs.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(SnapError::Malformed("schema attrs not strictly ascending"));
                    }
                    *slot = Some(attrs);
                }
                kind::ARENA => {
                    let slot = arenas
                        .get_mut(s.index as usize)
                        .ok_or(SnapError::Malformed("arena section for unknown bag"))?;
                    if slot.is_some() {
                        return Err(SnapError::Malformed("duplicate arena section"));
                    }
                    if payload.len() % 8 != 0 {
                        return Err(SnapError::Malformed("arena length not a multiple of 8"));
                    }
                    *slot = Some(
                        payload
                            .chunks_exact(8)
                            .map(|c| {
                                Value::new(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                            })
                            .collect(),
                    );
                }
                kind::MULTS => {
                    let slot = mult_cols
                        .get_mut(s.index as usize)
                        .ok_or(SnapError::Malformed("mults section for unknown bag"))?;
                    if slot.is_some() {
                        return Err(SnapError::Malformed("duplicate mults section"));
                    }
                    if payload.len() % 8 != 0 {
                        return Err(SnapError::Malformed("mults length not a multiple of 8"));
                    }
                    *slot = Some(
                        payload
                            .chunks_exact(8)
                            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                            .collect(),
                    );
                }
                kind::NAMES => {
                    if names.is_some() {
                        return Err(SnapError::Malformed("duplicate names section"));
                    }
                    let mut r = Reader::new(payload);
                    let count = r.u32()? as usize;
                    let mut table = Vec::with_capacity(count.min(1 << 16));
                    for _ in 0..count {
                        let attr = Attr::new(r.u32()?);
                        let len = r.u32()? as usize;
                        let raw = r.take(len)?;
                        let name = std::str::from_utf8(raw)
                            .map_err(|_| SnapError::Malformed("non-utf8 attribute name"))?
                            .to_string();
                        let pad = (4 - len % 4) % 4;
                        r.take(pad)?;
                        table.push((attr, name));
                    }
                    names = Some(table);
                }
                // Retired: hash-verified above, payload ignored.
                kind::FLOWS => {}
                _ => return Err(SnapError::Malformed("unknown section kind")),
            }
        }

        let mut bags = Vec::with_capacity(n);
        for i in 0..n {
            let attrs = schemas[i]
                .take()
                .ok_or(SnapError::Malformed("missing schema section"))?;
            let values = arenas[i]
                .take()
                .ok_or(SnapError::Malformed("missing arena section"))?;
            let mults = mult_cols[i]
                .take()
                .ok_or(SnapError::Malformed("missing mults section"))?;
            let arity = attrs.len();
            let rows = mults.len();
            if values.len()
                != rows
                    .checked_mul(arity)
                    .ok_or(SnapError::Malformed("arena size overflows"))?
            {
                return Err(SnapError::Malformed("arena/mults row count mismatch"));
            }
            let schema = Schema::from_attrs(attrs);
            let store = RowStore::from_sorted_rows(arity, rows, values)
                .ok_or(SnapError::Malformed("arena rows not strictly ascending"))?;
            let bag = Bag::from_sealed_parts(schema, store, mults)
                .ok_or(SnapError::Malformed("zero multiplicity in sealed column"))?;
            bags.push(bag);
        }

        Ok(Snapshot {
            bags,
            names: names.unwrap_or_default(),
        })
    }

    /// The decoded bags, in stored order. All are sealed.
    pub fn bags(&self) -> &[Bag] {
        &self.bags
    }

    /// The stored attribute-name bindings, sorted by attribute id.
    pub fn names(&self) -> &[(Attr, String)] {
        &self.names
    }

    /// Decomposes into `(bags, names)` without cloning.
    pub fn into_parts(self) -> (Vec<Bag>, Vec<(Attr, String)>) {
        (self.bags, self.names)
    }

    /// Reconstructs bag `i` as a [`Relation`] when every multiplicity
    /// is ≤ 1. Returns `None` for out-of-range indices or true bags.
    pub fn relation(&self, i: usize) -> Option<Relation> {
        let bag = self.bags.get(i)?;
        if !bag.is_relation() {
            return None;
        }
        Relation::from_sealed_store(bag.schema().clone(), bag.store().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::Schema;

    fn sample_bag() -> Bag {
        let schema = Schema::from_attrs([Attr::new(0), Attr::new(1)]);
        let rows: &[(&[u64], u64)] = &[(&[0, 0], 2), (&[0, 7], 1), (&[1, 1], 3)];
        let mut bag = Bag::new(schema);
        for (row, m) in rows {
            let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
            bag.insert(&vals[..], *m).unwrap();
        }
        bag.seal();
        bag
    }

    fn sample_bytes() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.add_bag(&sample_bag()).unwrap();
        w.set_names(vec![
            (Attr::new(0), "A0".into()),
            (Attr::new(1), "city".into()),
        ]);
        w.to_bytes()
    }

    #[test]
    fn round_trip_single_bag() {
        let original = sample_bag();
        let bytes = sample_bytes();
        assert!(looks_like_snapshot(&bytes));
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.bags().len(), 1);
        let loaded = &snap.bags()[0];
        assert!(loaded.is_sealed());
        assert_eq!(loaded, &original);
        assert_eq!(loaded.store().values(), original.store().values());
        assert_eq!(snap.names().len(), 2);
        assert_eq!(snap.names()[1].1, "city");
    }

    #[test]
    fn canonical_bytes_are_deterministic() {
        assert_eq!(sample_bytes(), sample_bytes());
    }

    #[test]
    fn rejects_unsealed() {
        let mut bag = sample_bag();
        bag.insert(&[Value::new(0), Value::new(3)][..], 1).unwrap();
        assert!(!bag.is_sealed());
        let mut w = SnapshotWriter::new();
        assert!(matches!(w.add_bag(&bag), Err(SnapError::Unsealed)));
    }

    #[test]
    fn bad_magic_and_truncation() {
        let bytes = sample_bytes();
        let mut flipped = bytes.clone();
        flipped[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&flipped),
            Err(SnapError::BadMagic)
        ));
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapError::Truncated { .. })
        ));
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..16]),
            Err(SnapError::Truncated { .. })
        ));
        assert!(matches!(
            Snapshot::from_bytes(&[]),
            Err(SnapError::Truncated { .. })
        ));
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..5]),
            Err(SnapError::Truncated { .. })
        ));
        // A short file that is not a prefix of the magic is no snapshot.
        for short in [&b"A B #\n0 0 : 2\n1 1 : 3\n"[..], b"BAGSNAP2", b"x"] {
            assert!(short.len() < 32);
            assert!(
                matches!(Snapshot::from_bytes(short), Err(SnapError::BadMagic)),
                "{short:?}"
            );
        }
    }

    #[test]
    fn wrong_version() {
        let mut bytes = sample_bytes();
        bytes[8] = 9;
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn flipped_payload_byte_is_detected() {
        let bytes = sample_bytes();
        let info = inspect(&bytes).unwrap();
        let arena = info
            .sections
            .iter()
            .find(|s| s.kind == kind::ARENA)
            .unwrap();
        let mut flipped = bytes.clone();
        flipped[arena.offset as usize] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&flipped),
            Err(SnapError::HashMismatch {
                section: "arena",
                ..
            })
        ));
    }

    #[test]
    fn unsorted_arena_with_valid_hashes_is_rejected() {
        let mut bytes = sample_bytes();
        let info = inspect(&bytes).unwrap();
        let k = info
            .sections
            .iter()
            .position(|s| s.kind == kind::ARENA)
            .unwrap();
        // Swap rows (0, 0) and (0, 7), which tie in the leading column,
        // then re-hash the section and the table so only the row order
        // is wrong.
        let start = info.sections[k].offset as usize;
        let len = info.sections[k].len as usize;
        bytes[start..start + 32].rotate_left(16);
        let hash = content_hash(&bytes[start..start + len]);
        let entry = HEADER_LEN + k * ENTRY_LEN;
        bytes[entry + 24..entry + 32].copy_from_slice(&hash.to_le_bytes());
        let table_len = info.sections.len() * ENTRY_LEN;
        let table_hash = content_hash(&bytes[HEADER_LEN..HEADER_LEN + table_len]);
        bytes[24..32].copy_from_slice(&table_hash.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapError::Malformed("arena rows not strictly ascending"))
        ));
    }

    #[test]
    fn inspect_and_verify() {
        let bytes = sample_bytes();
        let info = verify(&bytes).unwrap();
        assert_eq!(info.version, VERSION);
        assert_eq!(info.bag_count, 1);
        assert!(!info.has_flows);
        // meta + schema + arena + mults + names
        assert_eq!(info.sections.len(), 5);
        assert!(info.sections.iter().all(|s| s.offset % 8 == 0));
    }

    #[test]
    fn empty_bag_round_trips() {
        let bag = {
            let mut b = Bag::new(Schema::from_attrs([Attr::new(5)]));
            b.seal();
            b
        };
        let mut w = SnapshotWriter::new();
        w.add_bag(&bag).unwrap();
        let snap = Snapshot::from_bytes(&w.to_bytes()).unwrap();
        assert_eq!(&snap.bags()[0], &bag);
        assert!(snap.bags()[0].is_empty());
    }

    #[test]
    fn relation_reconstruction() {
        let mut bag = Bag::new(Schema::from_attrs([Attr::new(0)]));
        bag.insert(&[Value::new(4)][..], 1).unwrap();
        bag.insert(&[Value::new(2)][..], 1).unwrap();
        bag.seal();
        let mut w = SnapshotWriter::new();
        w.add_bag(&bag).unwrap();
        let snap = Snapshot::from_bytes(&w.to_bytes()).unwrap();
        let rel = snap.relation(0).unwrap();
        assert_eq!(rel.len(), 2);
    }
}
