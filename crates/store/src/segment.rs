//! Segment encode/decode: the on-disk unit of the telemetry store.
//!
//! Layout (all fixed-width integers little-endian; see DESIGN.md §11):
//!
//! ```text
//! +----------------+  offset 0
//! | magic          |  8 B  "ORFSEG2\n"
//! +----------------+
//! | body           |  2 + n_features encoded column blocks, back to back:
//! |                |    block 0          disk-id dictionary + per-row indices
//! |                |    block 1          day column, zigzag-delta varints
//! |                |    blocks 2..      one per schema feature column, each
//! |                |                     a mode byte then the payload
//! +----------------+
//! | footer         |  row count u32, block count u32, per-block end
//! |                |  offsets u64×N (relative to body start), schema
//! |                |  fingerprint u64, feature count u32, body CRC32
//! +----------------+
//! | trailer        |  footer length u32, footer CRC32, tail magic
//! |                |  "ORFSEGF\n" — fixed 16 B so readers can find the
//! +----------------+  footer from the end of the file
//! ```
//!
//! The column count is no longer a compile-time constant: each segment
//! records its own feature width plus the [`DomainSchema`] fingerprint it
//! was written under, so a reader can refuse to mix layouts before
//! decoding a single row.
//!
//! The body CRC covers magic + body; the footer CRC covers the footer
//! bytes. A torn write (any prefix of the file) fails the trailer or CRC
//! checks; a flipped bit anywhere fails one of the CRCs. Decode
//! bounds-checks every varint and offset, so corrupt bytes always surface
//! as [`StoreError::Corrupt`], never a panic or silent truncation.
//!
//! Feature columns carry a per-segment mode byte. Mode 0 (int-delta)
//! applies only when every value in the column round-trips exactly through
//! `u64` — checked bit-for-bit at encode time — and stores zigzag varints
//! of consecutive (wrapping) deltas. Mode 1 stores raw `f32` bits. Either
//! way replay reproduces the exact input bits, which is what the
//! golden-trace oracle asserts.

use crate::crc::crc32;
use crate::varint;
use crate::StoreError;
use orfpred_smart::record::DiskDay;
use orfpred_smart::DomainSchema;
use std::path::Path;

/// Leading magic: format name + version (v2 added the schema fingerprint
/// and feature count to the footer).
pub const SEG_MAGIC: &[u8; 8] = b"ORFSEG2\n";
/// Trailing magic: lets a reader distinguish truncation from bad version.
pub const SEG_TAIL_MAGIC: &[u8; 8] = b"ORFSEGF\n";
/// Fixed trailer width: footer length + footer CRC + tail magic.
pub const TRAILER_LEN: usize = 4 + 4 + 8;

/// Blocks in a segment with `n_features` feature columns: disk-id
/// dictionary, day column, then one block per feature column.
pub fn n_blocks(n_features: usize) -> usize {
    2 + n_features
}

/// Feature-column payload is delta-coded integers (the common case for
/// SMART counters).
const MODE_INT_DELTA: u8 = 0;
/// Feature-column payload is raw `f32` bits (fractional, negative, huge,
/// or non-finite values — anything that does not round-trip through u64).
const MODE_RAW_F32: u8 = 1;

/// Logical (uncompressed row-struct) bytes per record: disk id + day +
/// `n_features` × f32. Used for the compression ratios `data info` reports.
pub fn logical_row_bytes(n_features: usize) -> u64 {
    4 + 2 + (n_features as u64) * 4
}

fn corrupt(path: &Path, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Accumulates rows column-wise, then [`encode`](Self::encode)s them into
/// one segment image.
#[derive(Debug)]
pub struct SegmentBuilder {
    disk_ids: Vec<u32>,
    days: Vec<u16>,
    cols: Vec<Vec<f32>>,
    /// Fingerprint of the [`DomainSchema`] the rows were written under,
    /// stamped into the footer.
    schema_fp: u64,
}

impl Default for SegmentBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentBuilder {
    /// Builder for the default SMART layout.
    pub fn new() -> Self {
        Self::for_schema(&DomainSchema::smart())
    }

    /// Builder sized and fingerprinted for an arbitrary domain layout.
    pub fn for_schema(schema: &DomainSchema) -> Self {
        Self {
            disk_ids: Vec::new(),
            days: Vec::new(),
            cols: vec![Vec::new(); schema.n_base_features()],
            schema_fp: schema.fingerprint(),
        }
    }

    /// Feature columns per row this builder encodes.
    pub fn n_features(&self) -> usize {
        self.cols.len()
    }

    pub fn n_rows(&self) -> usize {
        self.disk_ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.disk_ids.is_empty()
    }

    /// `(first, last)` day among buffered rows (`None` when empty).
    /// Rows arrive day-sorted, so this is just the ends of the day column.
    pub fn day_range(&self) -> Option<(u16, u16)> {
        Some((*self.days.first()?, *self.days.last()?))
    }

    /// Append one record (columns grow in lockstep). The caller validates
    /// the row width against the schema before pushing ([`StoreWriter`]
    /// refuses mixed-schema appends with a typed error).
    ///
    /// [`StoreWriter`]: crate::StoreWriter
    pub fn push(&mut self, rec: &DiskDay) {
        debug_assert_eq!(rec.features.len(), self.cols.len(), "row width mismatch");
        self.disk_ids.push(rec.disk_id);
        self.days.push(rec.day);
        for (col, &v) in self.cols.iter_mut().zip(rec.features.iter()) {
            col.push(v);
        }
    }

    /// Encode the buffered rows into a complete segment image
    /// (magic + body + footer + trailer).
    pub fn encode(&self) -> Vec<u8> {
        let n = self.n_rows();
        let n_blocks = n_blocks(self.cols.len());
        let mut out = Vec::with_capacity(64 + n * 8);
        out.extend_from_slice(SEG_MAGIC);
        let body_start = out.len();
        let mut block_ends: Vec<u64> = Vec::with_capacity(n_blocks);

        // Block 0: disk-id dictionary. Sorted unique ids as ascending
        // deltas, then one dictionary index per row.
        let mut dict: Vec<u32> = self.disk_ids.clone();
        dict.sort_unstable();
        dict.dedup();
        varint::write_u64(&mut out, dict.len() as u64);
        let mut prev = 0u64;
        for (i, &id) in dict.iter().enumerate() {
            let v = u64::from(id);
            // First entry is absolute; the rest are gaps (≥ 1: strictly
            // ascending after dedup).
            varint::write_u64(&mut out, if i == 0 { v } else { v - prev });
            prev = v;
        }
        for &id in &self.disk_ids {
            // lint: allow(panic_path, reason="dict was built by sort+dedup of this very disk_ids vec two statements up, so every id is present")
            let idx = dict.binary_search(&id).expect("id came from this list");
            varint::write_u64(&mut out, idx as u64);
        }
        block_ends.push((out.len() - body_start) as u64);

        // Block 1: day column, zigzag deltas (days are sorted ascending in
        // practice, so deltas are 0 or small positives).
        let mut prev = 0i64;
        for &d in &self.days {
            varint::write_u64(&mut out, varint::zigzag(i64::from(d) - prev));
            prev = i64::from(d);
        }
        block_ends.push((out.len() - body_start) as u64);

        // Feature blocks: int-delta when lossless, raw f32 bits otherwise.
        for col in &self.cols {
            let int_ok = col
                .iter()
                .all(|&v| v >= 0.0 && ((v as u64) as f32).to_bits() == v.to_bits());
            if int_ok {
                out.push(MODE_INT_DELTA);
                let mut prev = 0i64;
                for &v in col {
                    let u = v as u64 as i64; // counters fit i64 in practice;
                                             // wrapping deltas keep it lossless regardless
                    varint::write_u64(&mut out, varint::zigzag(u.wrapping_sub(prev)));
                    prev = u;
                }
            } else {
                out.push(MODE_RAW_F32);
                for &v in col {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            block_ends.push((out.len() - body_start) as u64);
        }

        let body_crc = crc32(&out);

        // Footer.
        let footer_start = out.len();
        out.extend_from_slice(&(n as u32).to_le_bytes());
        out.extend_from_slice(&(n_blocks as u32).to_le_bytes());
        for &e in &block_ends {
            out.extend_from_slice(&e.to_le_bytes());
        }
        out.extend_from_slice(&self.schema_fp.to_le_bytes());
        out.extend_from_slice(&(self.cols.len() as u32).to_le_bytes());
        out.extend_from_slice(&body_crc.to_le_bytes());
        let footer_len = (out.len() - footer_start) as u32;
        let footer_crc = crc32(&out[footer_start..]);

        // Trailer.
        out.extend_from_slice(&footer_len.to_le_bytes());
        out.extend_from_slice(&footer_crc.to_le_bytes());
        out.extend_from_slice(SEG_TAIL_MAGIC);
        out
    }
}

/// `u32::from_le_bytes` over a 4-byte subslice.
fn le_u32(bytes: &[u8]) -> u32 {
    // lint: allow(panic_path, reason="every caller slices an exact 4-byte range already bounds-checked against the footer/trailer layout")
    u32::from_le_bytes(bytes.try_into().unwrap())
}

/// `u64::from_le_bytes` over an 8-byte subslice.
fn le_u64(bytes: &[u8]) -> u64 {
    // lint: allow(panic_path, reason="every caller slices an exact 8-byte range already bounds-checked against the footer layout")
    u64::from_le_bytes(bytes.try_into().unwrap())
}

/// Footer fields, parsed and CRC-verified but with the body not yet
/// decoded. `data info` stops here; full decode continues in
/// [`Segment::decode`].
#[derive(Debug, Clone)]
pub struct Footer {
    pub n_rows: u32,
    /// Per-block end offsets relative to body start; block `i` spans
    /// `[ends[i-1], ends[i])`.
    pub block_ends: Vec<u64>,
    /// Fingerprint of the [`DomainSchema`] the segment was written under.
    pub schema_fp: u64,
    /// Feature columns per row (cross-checked against the block count).
    pub n_features: u32,
    pub body_crc: u32,
    /// Total body length in bytes (equals the last block end).
    pub body_len: u64,
}

impl Footer {
    /// Parse and verify the footer + trailer of a full segment image.
    pub fn parse(bytes: &[u8], path: &Path) -> Result<Footer, StoreError> {
        let min = SEG_MAGIC.len() + 8 + TRAILER_LEN; // magic + minimal footer + trailer
        if bytes.len() < min {
            return Err(corrupt(
                path,
                format!("file too short ({} bytes) to be a segment", bytes.len()),
            ));
        }
        if &bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
            return Err(corrupt(path, "bad segment magic (not an ORFSEG2 file)"));
        }
        let tail = &bytes[bytes.len() - 8..];
        if tail != SEG_TAIL_MAGIC {
            return Err(corrupt(
                path,
                "missing tail magic (torn or truncated segment write)",
            ));
        }
        let trailer = &bytes[bytes.len() - TRAILER_LEN..];
        let footer_len = le_u32(&trailer[0..4]) as usize;
        let footer_crc = le_u32(&trailer[4..8]);
        let footer_end = bytes.len() - TRAILER_LEN;
        let footer_start = footer_end
            .checked_sub(footer_len)
            .filter(|&s| s >= SEG_MAGIC.len())
            .ok_or_else(|| corrupt(path, "footer length exceeds file"))?;
        let footer = &bytes[footer_start..footer_end];
        if crc32(footer) != footer_crc {
            return Err(corrupt(path, "footer CRC mismatch"));
        }
        if footer.len() < 12 {
            return Err(corrupt(path, "footer too short"));
        }
        let n_rows = le_u32(&footer[0..4]);
        let n_blocks = le_u32(&footer[4..8]) as usize;
        if n_blocks < 2 {
            return Err(corrupt(
                path,
                format!("segment has {n_blocks} blocks, need at least disk-id + day"),
            ));
        }
        // n_rows u32 + n_blocks u32 + ends u64×N + schema_fp u64 +
        // n_features u32 + body_crc u32.
        if footer.len() != 8 + 8 * n_blocks + 8 + 4 + 4 {
            return Err(corrupt(path, "footer length inconsistent with block count"));
        }
        let mut block_ends = Vec::with_capacity(n_blocks);
        let mut prev = 0u64;
        for i in 0..n_blocks {
            let off = 8 + 8 * i;
            let e = le_u64(&footer[off..off + 8]);
            if e < prev {
                return Err(corrupt(path, "block offsets not monotone"));
            }
            prev = e;
            block_ends.push(e);
        }
        let tail = 8 + 8 * n_blocks;
        let schema_fp = le_u64(&footer[tail..tail + 8]);
        let n_features = le_u32(&footer[tail + 8..tail + 12]);
        if n_features as usize != n_blocks - 2 {
            return Err(corrupt(
                path,
                format!(
                    "footer says {n_features} feature columns but the segment has {} \
                     feature blocks",
                    n_blocks - 2
                ),
            ));
        }
        let body_crc = le_u32(&footer[footer.len() - 4..]);
        let body_len = (footer_start - SEG_MAGIC.len()) as u64;
        let Some(&last_end) = block_ends.last() else {
            return Err(corrupt(path, "footer holds no block offsets"));
        };
        if last_end != body_len {
            return Err(corrupt(
                path,
                "last block offset does not match body length",
            ));
        }
        Ok(Footer {
            n_rows,
            block_ends,
            schema_fp,
            n_features,
            body_crc,
            body_len,
        })
    }

    /// Encoded byte size of block `i` (`i < block_ends.len()`, which
    /// `parse` pinned to the footer's block count).
    pub fn block_bytes(&self, i: usize) -> u64 {
        let start = if i == 0 { 0 } else { self.block_ends[i - 1] };
        // lint: allow(panic_path, reason="parse() cross-checks the block count against the footer length, and callers iterate i in 0..block_ends.len()")
        self.block_ends[i] - start
    }
}

/// Bounds-checked body reader used during decode.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> Cursor<'a> {
    fn read_varint(&mut self, path: &Path, what: &str) -> Result<u64, StoreError> {
        if self.pos >= self.end {
            return Err(corrupt(path, format!("{what}: block exhausted")));
        }
        let mut p = self.pos;
        let v = varint::read_u64(&self.bytes[..self.end], &mut p)
            .ok_or_else(|| corrupt(path, format!("{what}: truncated varint")))?;
        self.pos = p;
        Ok(v)
    }

    fn read_u8(&mut self, path: &Path, what: &str) -> Result<u8, StoreError> {
        if self.pos >= self.end {
            return Err(corrupt(path, format!("{what}: block exhausted")));
        }
        let b = self.bytes[self.pos];
        self.pos += 1;
        Ok(b)
    }

    fn finish(&self, path: &Path, what: &str) -> Result<(), StoreError> {
        if self.pos != self.end {
            return Err(corrupt(
                path,
                format!("{what}: {} trailing bytes in block", self.end - self.pos),
            ));
        }
        Ok(())
    }
}

/// A fully decoded segment: columnar in memory, rows materialized on
/// demand.
#[derive(Debug)]
pub struct Segment {
    disk_ids: Vec<u32>,
    days: Vec<u16>,
    cols: Vec<Vec<f32>>,
    /// Schema fingerprint the segment was written under (from the footer).
    schema_fp: u64,
}

impl Segment {
    /// Decode and fully verify a segment image (both CRCs, every offset and
    /// varint bounds-checked).
    pub fn decode(bytes: &[u8], path: &Path) -> Result<Segment, StoreError> {
        let footer = Footer::parse(bytes, path)?;
        let body_end = SEG_MAGIC.len() + footer.body_len as usize;
        if crc32(&bytes[..body_end]) != footer.body_crc {
            return Err(corrupt(path, "body CRC mismatch"));
        }
        let n = footer.n_rows as usize;
        let n_features = footer.n_features as usize;
        let body = bytes;
        let block = |i: usize| -> (usize, usize) {
            let start = if i == 0 { 0 } else { footer.block_ends[i - 1] };
            (
                SEG_MAGIC.len() + start as usize,
                // lint: allow(panic_path, reason="called with i in 0..n_blocks only; parse() pinned block_ends.len() to the footer's block count")
                SEG_MAGIC.len() + footer.block_ends[i] as usize,
            )
        };

        // Block 0: disk ids.
        let (start, end) = block(0);
        let mut cur = Cursor {
            bytes: body,
            pos: start,
            end,
        };
        let dict_len = cur.read_varint(path, "disk dict length")? as usize;
        if dict_len > n.max(1) {
            return Err(corrupt(path, "disk dictionary larger than row count"));
        }
        let mut dict: Vec<u32> = Vec::with_capacity(dict_len);
        let mut acc = 0u64;
        for i in 0..dict_len {
            let d = cur.read_varint(path, "disk dict entry")?;
            acc = if i == 0 { d } else { acc.saturating_add(d) };
            let id = u32::try_from(acc).map_err(|_| corrupt(path, "disk id exceeds u32"))?;
            dict.push(id);
        }
        let mut disk_ids = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = cur.read_varint(path, "disk index")? as usize;
            let id = *dict
                .get(idx)
                .ok_or_else(|| corrupt(path, "disk index out of dictionary range"))?;
            disk_ids.push(id);
        }
        cur.finish(path, "disk block")?;

        // Block 1: days.
        let (start, end) = block(1);
        let mut cur = Cursor {
            bytes: body,
            pos: start,
            end,
        };
        let mut days = Vec::with_capacity(n);
        let mut prev = 0i64;
        for _ in 0..n {
            let d = varint::unzigzag(cur.read_varint(path, "day delta")?);
            let day = prev
                .checked_add(d)
                .ok_or_else(|| corrupt(path, "day overflow"))?;
            let day = u16::try_from(day).map_err(|_| corrupt(path, "day out of u16 range"))?;
            days.push(day);
            prev = i64::from(day);
        }
        cur.finish(path, "day block")?;

        // Feature blocks.
        let mut cols = Vec::with_capacity(n_features);
        for c in 0..n_features {
            let (start, end) = block(2 + c);
            let mut cur = Cursor {
                bytes: body,
                pos: start,
                end,
            };
            let mode = cur.read_u8(path, "column mode")?;
            let mut col = Vec::with_capacity(n);
            match mode {
                MODE_INT_DELTA => {
                    // Hot loop of the whole replay path (every feature
                    // column × rows): inline the one-byte varint fast path —
                    // slow-moving counters delta to 0 or small values, so
                    // almost every code is a single byte.
                    let mut prev = 0i64;
                    let end = cur.end;
                    let mut pos = cur.pos;
                    for _ in 0..n {
                        if pos >= end {
                            return Err(corrupt(path, "feature delta: block exhausted"));
                        }
                        // lint: allow(panic_path, reason="pos < end was just checked, and end is a parse()-validated block bound inside body")
                        let b = body[pos];
                        let d = if b < 0x80 {
                            pos += 1;
                            u64::from(b)
                        } else {
                            varint::read_u64(&body[..end], &mut pos)
                                .ok_or_else(|| corrupt(path, "feature delta: truncated varint"))?
                        };
                        let u = prev.wrapping_add(varint::unzigzag(d));
                        col.push(u as u64 as f32);
                        prev = u;
                    }
                    cur.pos = pos;
                }
                MODE_RAW_F32 => {
                    for _ in 0..n {
                        if cur.pos + 4 > cur.end {
                            return Err(corrupt(path, "raw f32 column truncated"));
                        }
                        let bits = le_u32(&body[cur.pos..cur.pos + 4]);
                        cur.pos += 4;
                        col.push(f32::from_bits(bits));
                    }
                }
                m => {
                    return Err(corrupt(path, format!("unknown column mode byte {m}")));
                }
            }
            cur.finish(path, "feature block")?;
            cols.push(col);
        }

        Ok(Segment {
            disk_ids,
            days,
            cols,
            schema_fp: footer.schema_fp,
        })
    }

    pub fn n_rows(&self) -> usize {
        self.disk_ids.len()
    }

    /// Feature columns per row.
    pub fn n_features(&self) -> usize {
        self.cols.len()
    }

    /// Fingerprint of the schema the segment was written under.
    pub fn schema_fp(&self) -> u64 {
        self.schema_fp
    }

    pub fn disk_ids(&self) -> &[u32] {
        &self.disk_ids
    }

    pub fn days(&self) -> &[u16] {
        &self.days
    }

    /// Materialize row `i < n_rows()` as a [`DiskDay`] (gathers across
    /// columns).
    pub fn record(&self, i: usize) -> DiskDay {
        let mut features = vec![0.0f32; self.cols.len()];
        for (f, col) in features.iter_mut().zip(self.cols.iter()) {
            // lint: allow(panic_path, reason="i < n_rows() by contract and decode() gives every column exactly n_rows entries")
            *f = col[i];
        }
        DiskDay {
            // lint: allow(panic_path, reason="i < n_rows() == disk_ids.len() by contract")
            disk_id: self.disk_ids[i],
            // lint: allow(panic_path, reason="i < n_rows() and decode() sizes days identically to disk_ids")
            day: self.days[i],
            features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orfpred_smart::N_FEATURES;
    use std::path::PathBuf;

    fn p() -> PathBuf {
        PathBuf::from("test.orfseg")
    }

    fn sample_rows() -> Vec<DiskDay> {
        let mut rows = Vec::new();
        for day in 0..5u16 {
            for disk in [0u32, 3, 7] {
                let mut features = vec![0.0f32; N_FEATURES];
                for (i, f) in features.iter_mut().enumerate() {
                    *f = match i % 4 {
                        0 => (u64::from(day) * 100 + u64::from(disk)) as f32, // counter
                        1 => 0.5 + day as f32,                                // fractional
                        2 => -1.0,                                            // negative
                        _ => 1e12,                                            // huge counter
                    };
                }
                rows.push(DiskDay {
                    disk_id: disk,
                    day,
                    features,
                });
            }
        }
        rows
    }

    #[test]
    fn encode_decode_round_trip_bitwise() {
        let rows = sample_rows();
        let mut b = SegmentBuilder::new();
        for r in &rows {
            b.push(r);
        }
        let bytes = b.encode();
        let seg = Segment::decode(&bytes, &p()).unwrap();
        assert_eq!(seg.n_rows(), rows.len());
        for (i, r) in rows.iter().enumerate() {
            let got = seg.record(i);
            assert_eq!(got.disk_id, r.disk_id);
            assert_eq!(got.day, r.day);
            for (a, b) in got.features.iter().zip(r.features.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn raw_mode_preserves_awkward_floats() {
        let specials = [
            -0.0f32,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            1.0e38,
            -3.25,
        ];
        let mut b = SegmentBuilder::new();
        for (i, &v) in specials.iter().enumerate() {
            let mut features = vec![v; N_FEATURES];
            features[0] = i as f32; // keep one clean counter column
            b.push(&DiskDay {
                disk_id: i as u32,
                day: 0,
                features,
            });
        }
        let bytes = b.encode();
        let seg = Segment::decode(&bytes, &p()).unwrap();
        for (i, &v) in specials.iter().enumerate() {
            assert_eq!(seg.record(i).features[1].to_bits(), v.to_bits());
        }
    }

    #[test]
    fn empty_segment_round_trips() {
        let b = SegmentBuilder::new();
        let bytes = b.encode();
        let seg = Segment::decode(&bytes, &p()).unwrap();
        assert_eq!(seg.n_rows(), 0);
        assert_eq!(seg.n_features(), N_FEATURES);
        assert_eq!(seg.schema_fp(), DomainSchema::smart().fingerprint());
    }

    #[test]
    fn non_smart_widths_round_trip_with_their_fingerprint() {
        let schema = DomainSchema::mce();
        let width = schema.n_base_features();
        assert_ne!(width, N_FEATURES, "mce must exercise a different width");
        let mut b = SegmentBuilder::for_schema(&schema);
        for day in 0..3u16 {
            let features: Vec<f32> = (0..width).map(|c| (c as f32) + f32::from(day)).collect();
            b.push(&DiskDay {
                disk_id: 1,
                day,
                features,
            });
        }
        let bytes = b.encode();
        let seg = Segment::decode(&bytes, &p()).unwrap();
        assert_eq!(seg.n_rows(), 3);
        assert_eq!(seg.n_features(), width);
        assert_eq!(seg.schema_fp(), schema.fingerprint());
        assert_eq!(seg.record(2).features.len(), width);
        assert_eq!(seg.record(2).features[width - 1], (width - 1) as f32 + 2.0);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut b = SegmentBuilder::new();
        for r in sample_rows() {
            b.push(&r);
        }
        let bytes = b.encode();
        for cut in 0..bytes.len() {
            match Segment::decode(&bytes[..cut], &p()) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_caught() {
        let mut b = SegmentBuilder::new();
        for r in sample_rows().into_iter().take(4) {
            b.push(&r);
        }
        let bytes = b.encode();
        let mut tampered = bytes.clone();
        for byte in 0..tampered.len() {
            tampered[byte] ^= 0x01;
            assert!(
                matches!(
                    Segment::decode(&tampered, &p()),
                    Err(StoreError::Corrupt { .. })
                ),
                "flip at byte {byte} went undetected"
            );
            tampered[byte] ^= 0x01;
        }
    }
}
