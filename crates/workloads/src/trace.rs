//! Recording and replaying access traces.
//!
//! The paper's profiling flow captures "the page number and time stamp of
//! every memory instruction" to a trace that is analyzed offline (§3.1).
//! [`RecordedTrace`] is that artifact: capture any access stream, persist
//! it, and replay it later — e.g. profile once, then drive many simulator
//! configurations from the identical trace, or import a page-level trace
//! gathered on real hardware.
//!
//! Two on-disk forms are supported, losslessly interconvertible:
//!
//! * **CSV** (`page,compute,site,repeats`) — human-greppable, one access
//!   per line.
//! * **`.sgxt`** — the compact binary form: a fixed header (magic
//!   `SGXT`, version, section count) followed by per-thread sections of
//!   zigzag-varint *page deltas*, varint cycle gaps, varint site ids and
//!   varint repeat counts. Page numbers are delta-encoded against the
//!   previous access of the same section with wrapping arithmetic, so the
//!   full `u64` page space round-trips exactly. [`SgxtReader`] decodes the
//!   format as a stream and never materializes the whole trace;
//!   [`SgxtWriter`] builds multi-section files.
//!
//! ```text
//! .sgxt layout (all varints are LEB128, at most 10 bytes):
//!
//!   +-----------+-----------+---------------+
//!   | "SGXT"    | version   | section count |   4 + 2 + 2 bytes (LE)
//!   +-----------+-----------+---------------+
//!   | section: varint thread id             |
//!   |          varint access count          |
//!   |   access: varint zigzag(page delta)   |  delta vs previous access
//!   |           varint cycle gap            |  (compute cycles)
//!   |           varint site id              |
//!   |           varint repeats - 1          |
//!   | ... more sections ...                 |
//!   +---------------------------------------+
//! ```
//!
//! Anything after the last section is a structured
//! [`TraceParseError::TrailingGarbage`] — corrupt and truncated inputs
//! always surface as [`TraceParseError`] values, never panics.

use std::error::Error;
use std::fmt;
use std::io::Read;
use std::path::Path;

use sgx_epc::VirtPage;
use sgx_sim::varint::{self, unzigzag, zigzag};
use sgx_sim::Cycles;

use crate::{Access, SiteId};

/// The four magic bytes opening every `.sgxt` trace.
pub const SGXT_MAGIC: [u8; 4] = *b"SGXT";

/// The `.sgxt` format version this library reads and writes.
pub const SGXT_VERSION: u16 = 1;

/// A materialized access trace.
///
/// # Examples
///
/// ```
/// use sgx_workloads::{Benchmark, InputSet, RecordedTrace, Scale};
///
/// let trace = RecordedTrace::record(
///     Benchmark::Lbm.build(InputSet::Ref, Scale::DEV, 1),
///     1_000,
/// );
/// assert_eq!(trace.len(), 1_000);
/// let bytes = trace.to_sgxt();
/// let back = RecordedTrace::from_sgxt(&bytes).unwrap();
/// assert_eq!(trace, back);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordedTrace {
    accesses: Vec<Access>,
}

/// Error parsing a trace (CSV or `.sgxt`): every corrupt, truncated or
/// out-of-range input maps to one of these variants — parsing never
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// A malformed CSV line (bad header, field count, or number), with
    /// the 1-based line number.
    Csv {
        /// 1-based line the error was found on.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// An I/O failure while reading trace bytes.
    Io {
        /// What was being read (a path, or `trace stream`).
        context: String,
        /// The underlying I/O error.
        reason: String,
    },
    /// The input does not start with the `SGXT` magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The input is an `.sgxt` trace of a version this library does not
    /// read.
    UnsupportedVersion {
        /// The version field actually found.
        found: u16,
    },
    /// The input ended in the middle of a header, section, or access.
    Truncated {
        /// Byte offset at which the input ended.
        offset: usize,
        /// The field being decoded when the bytes ran out.
        what: &'static str,
    },
    /// A varint ran past the 64-bit range (more than 10 bytes, or excess
    /// significant bits).
    VarintOverrun {
        /// Byte offset of the offending varint byte.
        offset: usize,
        /// The field being decoded.
        what: &'static str,
    },
    /// A decoded value does not fit its field (site ids and repeat
    /// counts are 32-bit).
    OutOfRange {
        /// Byte offset just past the offending value.
        offset: usize,
        /// The field the value was decoded for.
        what: &'static str,
        /// The value actually decoded.
        value: u64,
    },
    /// Bytes remain after the last declared section.
    TrailingGarbage {
        /// Byte offset of the first unexpected byte.
        offset: usize,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Csv { line, reason } => write!(f, "trace line {line}: {reason}"),
            TraceParseError::Io { context, reason } => write!(f, "cannot read {context}: {reason}"),
            TraceParseError::BadMagic { found } => {
                write!(f, "bad magic {found:?}: not an .sgxt trace")
            }
            TraceParseError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported .sgxt version {found} (expected {SGXT_VERSION})"
                )
            }
            TraceParseError::Truncated { offset, what } => {
                write!(f, "truncated .sgxt trace at byte {offset} (reading {what})")
            }
            TraceParseError::VarintOverrun { offset, what } => {
                write!(f, "varint overrun at byte {offset} (reading {what})")
            }
            TraceParseError::OutOfRange {
                offset,
                what,
                value,
            } => write!(f, "{what} {value} out of range at byte {offset}"),
            TraceParseError::TrailingGarbage { offset } => {
                write!(
                    f,
                    "trailing garbage at byte {offset} after the last section"
                )
            }
        }
    }
}

impl Error for TraceParseError {}

/// Builder for multi-section `.sgxt` traces: one section per thread, each
/// delta-encoded independently.
///
/// # Examples
///
/// ```
/// use sgx_workloads::{RecordedTrace, SgxtWriter};
///
/// let t0 = RecordedTrace::default();
/// let mut w = SgxtWriter::new();
/// w.section(0, t0.accesses());
/// w.section(1, t0.accesses());
/// let back = RecordedTrace::from_sgxt(&w.finish()).unwrap();
/// assert!(back.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct SgxtWriter {
    body: Vec<u8>,
    sections: u16,
}

impl SgxtWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SgxtWriter::default()
    }

    /// Appends one per-thread section. Page numbers are delta-encoded
    /// against the previous access *of this section* (starting from page
    /// 0), with wrapping arithmetic, so any `u64` page sequence encodes
    /// losslessly.
    ///
    /// # Panics
    ///
    /// Panics when more than `u16::MAX` sections are appended.
    pub fn section(&mut self, thread: u64, accesses: &[Access]) -> &mut Self {
        self.sections = self
            .sections
            .checked_add(1)
            .expect("an .sgxt trace holds at most 65535 sections");
        varint::push(&mut self.body, thread);
        varint::push(&mut self.body, accesses.len() as u64);
        let mut prev = 0u64;
        for a in accesses {
            let page = a.page.raw();
            varint::push(&mut self.body, zigzag(page.wrapping_sub(prev)));
            prev = page;
            varint::push(&mut self.body, a.compute.raw());
            varint::push(&mut self.body, u64::from(a.site.0));
            varint::push(&mut self.body, u64::from(a.repeats.max(1) - 1));
        }
        self
    }

    /// Seals the trace: header plus every appended section.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.body.len());
        out.extend_from_slice(&SGXT_MAGIC);
        out.extend_from_slice(&SGXT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.sections.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

enum ReaderState {
    Running,
    Finished,
}

/// Streaming `.sgxt` decoder: yields one [`Access`] at a time and never
/// materializes the whole trace. The header is validated on construction;
/// every later defect (truncation, varint overrun, out-of-range values,
/// trailing garbage) is yielded once as an `Err`, after which the
/// iterator fuses to `None`.
///
/// # Examples
///
/// ```
/// use sgx_workloads::{Benchmark, InputSet, RecordedTrace, Scale, SgxtReader};
///
/// let trace = RecordedTrace::record(
///     Benchmark::Lbm.build(InputSet::Ref, Scale::DEV, 1),
///     100,
/// );
/// let bytes = trace.to_sgxt();
/// let reader = SgxtReader::new(bytes.as_slice()).unwrap();
/// assert_eq!(reader.map(Result::unwrap).count(), 100);
/// ```
pub struct SgxtReader<R: Read> {
    src: R,
    offset: usize,
    sections_left: u16,
    remaining_in_section: u64,
    thread: u64,
    prev_page: u64,
    state: ReaderState,
}

impl<R: Read> SgxtReader<R> {
    /// Wraps a byte source, reading and validating the `.sgxt` header.
    ///
    /// # Errors
    ///
    /// [`TraceParseError::BadMagic`], [`TraceParseError::UnsupportedVersion`],
    /// [`TraceParseError::Truncated`] for a short header, or
    /// [`TraceParseError::Io`] when the source fails.
    pub fn new(src: R) -> Result<Self, TraceParseError> {
        let mut reader = SgxtReader {
            src,
            offset: 0,
            sections_left: 0,
            remaining_in_section: 0,
            thread: 0,
            prev_page: 0,
            state: ReaderState::Running,
        };
        let mut magic = [0u8; 4];
        for slot in &mut magic {
            *slot = reader.byte()?.ok_or(TraceParseError::Truncated {
                offset: reader.offset,
                what: "magic",
            })?;
        }
        if magic != SGXT_MAGIC {
            return Err(TraceParseError::BadMagic { found: magic });
        }
        let version = reader.u16_le("version")?;
        if version != SGXT_VERSION {
            return Err(TraceParseError::UnsupportedVersion { found: version });
        }
        reader.sections_left = reader.u16_le("section count")?;
        Ok(reader)
    }

    /// Thread id of the section the *most recently yielded* access
    /// belongs to.
    pub fn thread(&self) -> u64 {
        self.thread
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> usize {
        self.offset
    }

    fn byte(&mut self) -> Result<Option<u8>, TraceParseError> {
        let mut b = [0u8; 1];
        loop {
            match self.src.read(&mut b) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    self.offset += 1;
                    return Ok(Some(b[0]));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(TraceParseError::Io {
                        context: "trace stream".into(),
                        reason: e.to_string(),
                    })
                }
            }
        }
    }

    fn u16_le(&mut self, what: &'static str) -> Result<u16, TraceParseError> {
        let mut v = [0u8; 2];
        for slot in &mut v {
            *slot = self.byte()?.ok_or(TraceParseError::Truncated {
                offset: self.offset,
                what,
            })?;
        }
        Ok(u16::from_le_bytes(v))
    }

    fn varint(&mut self, what: &'static str) -> Result<u64, TraceParseError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?.ok_or(TraceParseError::Truncated {
                offset: self.offset,
                what,
            })?;
            if shift == 63 && b & 0xfe != 0 {
                return Err(TraceParseError::VarintOverrun {
                    offset: self.offset - 1,
                    what,
                });
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn u32_field(&mut self, what: &'static str, max: u64) -> Result<u32, TraceParseError> {
        let v = self.varint(what)?;
        if v > max {
            return Err(TraceParseError::OutOfRange {
                offset: self.offset,
                what,
                value: v,
            });
        }
        Ok(v as u32)
    }

    fn next_access(&mut self) -> Result<Option<Access>, TraceParseError> {
        loop {
            if self.remaining_in_section == 0 {
                if self.sections_left == 0 {
                    // Clean end of the declared sections: anything left
                    // over is garbage.
                    return match self.byte()? {
                        None => Ok(None),
                        Some(_) => Err(TraceParseError::TrailingGarbage {
                            offset: self.offset - 1,
                        }),
                    };
                }
                self.sections_left -= 1;
                self.thread = self.varint("thread id")?;
                self.remaining_in_section = self.varint("section length")?;
                self.prev_page = 0;
                continue; // empty sections are legal
            }
            let delta = unzigzag(self.varint("page delta")?);
            let page = self.prev_page.wrapping_add(delta);
            self.prev_page = page;
            let compute = self.varint("cycle gap")?;
            let site = self.u32_field("site id", u64::from(u32::MAX))?;
            let repeats = self.u32_field("repeat count", u64::from(u32::MAX) - 1)? + 1;
            self.remaining_in_section -= 1;
            return Ok(Some(Access::with_repeats(
                VirtPage::new(page),
                Cycles::new(compute),
                SiteId(site),
                repeats,
            )));
        }
    }
}

impl<R: Read> Iterator for SgxtReader<R> {
    type Item = Result<Access, TraceParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if matches!(self.state, ReaderState::Finished) {
            return None;
        }
        match self.next_access() {
            Ok(Some(a)) => Some(Ok(a)),
            Ok(None) => {
                self.state = ReaderState::Finished;
                None
            }
            Err(e) => {
                self.state = ReaderState::Finished;
                Some(Err(e))
            }
        }
    }
}

impl<R: Read> fmt::Debug for SgxtReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SgxtReader")
            .field("offset", &self.offset)
            .field("sections_left", &self.sections_left)
            .field("thread", &self.thread)
            .finish()
    }
}

impl RecordedTrace {
    /// Captures up to `limit` accesses from a stream.
    pub fn record(stream: impl Iterator<Item = Access>, limit: usize) -> Self {
        RecordedTrace {
            accesses: stream.take(limit).collect(),
        }
    }

    /// Wraps an existing access vector.
    pub fn from_accesses(accesses: Vec<Access>) -> Self {
        RecordedTrace { accesses }
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The recorded accesses.
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Number of distinct pages touched.
    pub fn footprint_pages(&self) -> u64 {
        let mut pages: Vec<u64> = self.accesses.iter().map(|a| a.page.raw()).collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len() as u64
    }

    /// The smallest ELRANGE (in pages) that contains the trace.
    pub fn elrange_pages(&self) -> u64 {
        self.accesses
            .iter()
            .map(|a| a.page.raw() + 1)
            .max()
            .unwrap_or(1)
    }

    /// Replays the trace as a fresh access stream (borrowing).
    pub fn replay(&self) -> impl Iterator<Item = Access> + '_ {
        self.accesses.iter().copied()
    }

    /// Consumes the trace into a boxed stream for [`crate::AccessIter`]
    /// call sites.
    pub fn into_stream(self) -> crate::AccessIter {
        Box::new(self.accesses.into_iter())
    }

    /// Serializes to the trace CSV format
    /// (`page,compute,site,repeats`, one access per line, header first).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;

        let mut out = String::with_capacity(self.accesses.len() * 16 + 32);
        out.push_str("page,compute,site,repeats\n");
        for a in &self.accesses {
            let _ = writeln!(
                out,
                "{},{},{},{}",
                a.page.raw(),
                a.compute.raw(),
                a.site.0,
                a.repeats
            );
        }
        out
    }

    /// Writes the CSV form to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// Serializes to the compact `.sgxt` binary form (one section,
    /// thread 0). Use [`SgxtWriter`] directly for multi-thread traces.
    pub fn to_sgxt(&self) -> Vec<u8> {
        let mut w = SgxtWriter::new();
        w.section(0, &self.accesses);
        w.finish()
    }

    /// Writes the `.sgxt` form to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_sgxt(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_sgxt())
    }

    /// Parses an `.sgxt` trace, concatenating its sections in file
    /// order.
    ///
    /// # Errors
    ///
    /// Any [`TraceParseError`] the streaming decoder reports (bad magic,
    /// unsupported version, truncation, varint overrun, out-of-range
    /// values, trailing garbage).
    pub fn from_sgxt(bytes: &[u8]) -> Result<Self, TraceParseError> {
        SgxtReader::new(bytes)?
            .collect::<Result<Vec<Access>, TraceParseError>>()
            .map(RecordedTrace::from_accesses)
    }

    /// Reads an `.sgxt` trace from `path`, streaming (the file is never
    /// loaded whole).
    ///
    /// # Errors
    ///
    /// I/O errors (as [`TraceParseError::Io`] naming the path) and every
    /// decode error [`RecordedTrace::from_sgxt`] reports.
    pub fn read_sgxt(path: impl AsRef<Path>) -> Result<Self, TraceParseError> {
        let file = std::fs::File::open(&path).map_err(|e| TraceParseError::Io {
            context: path.as_ref().display().to_string(),
            reason: e.to_string(),
        })?;
        SgxtReader::new(std::io::BufReader::new(file))?
            .collect::<Result<Vec<Access>, TraceParseError>>()
            .map(RecordedTrace::from_accesses)
    }

    /// Parses the CSV form produced by [`RecordedTrace::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError::Csv`] on a malformed header, field
    /// count, or number, identifying the offending line.
    pub fn from_csv(text: &str) -> Result<Self, TraceParseError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, header)) if header.trim() == "page,compute,site,repeats" => {}
            Some((_, other)) => {
                return Err(TraceParseError::Csv {
                    line: 1,
                    reason: format!("unexpected header {other:?}"),
                })
            }
            None => {
                return Err(TraceParseError::Csv {
                    line: 1,
                    reason: "empty input".into(),
                })
            }
        }
        let mut accesses = Vec::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 4 {
                return Err(TraceParseError::Csv {
                    line: lineno,
                    reason: format!("expected 4 fields, found {}", fields.len()),
                });
            }
            let num = |s: &str, what: &str| -> Result<u64, TraceParseError> {
                s.trim().parse::<u64>().map_err(|e| TraceParseError::Csv {
                    line: lineno,
                    reason: format!("bad {what} {s:?}: {e}"),
                })
            };
            let repeats = num(fields[3], "repeats")?;
            if repeats == 0 || repeats > u64::from(u32::MAX) {
                return Err(TraceParseError::Csv {
                    line: lineno,
                    reason: format!("repeats {repeats} out of range"),
                });
            }
            let site = num(fields[2], "site")?;
            if site > u64::from(u32::MAX) {
                return Err(TraceParseError::Csv {
                    line: lineno,
                    reason: format!("site id {site} out of range"),
                });
            }
            accesses.push(Access::with_repeats(
                VirtPage::new(num(fields[0], "page")?),
                Cycles::new(num(fields[1], "compute")?),
                SiteId(site as u32),
                repeats as u32,
            ));
        }
        Ok(RecordedTrace { accesses })
    }

    /// Reads a trace CSV from `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (as [`TraceParseError::Io`] naming the
    /// path) and parse errors.
    pub fn read_csv(path: impl AsRef<Path>) -> Result<Self, TraceParseError> {
        let text = std::fs::read_to_string(&path).map_err(|e| TraceParseError::Io {
            context: path.as_ref().display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_csv(&text)
    }
}

impl FromIterator<Access> for RecordedTrace {
    fn from_iter<T: IntoIterator<Item = Access>>(iter: T) -> Self {
        RecordedTrace {
            accesses: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, InputSet, Scale};

    #[test]
    fn record_and_replay_roundtrip() {
        let t = RecordedTrace::record(
            Benchmark::Deepsjeng.build(InputSet::Ref, Scale::DEV, 1),
            500,
        );
        assert_eq!(t.len(), 500);
        let original: Vec<Access> = Benchmark::Deepsjeng
            .build(InputSet::Ref, Scale::DEV, 1)
            .take(500)
            .collect();
        let replayed: Vec<Access> = t.replay().collect();
        assert_eq!(original, replayed);
    }

    #[test]
    fn csv_roundtrip_preserves_everything() {
        let t = RecordedTrace::record(Benchmark::Mcf.build(InputSet::Train, Scale::DEV, 3), 300);
        let csv = t.to_csv();
        let back = RecordedTrace::from_csv(&csv).unwrap();
        assert_eq!(t, back);
        assert_eq!(t.footprint_pages(), back.footprint_pages());
    }

    #[test]
    fn sgxt_roundtrip_preserves_everything() {
        for b in [Benchmark::Mcf, Benchmark::Microbenchmark, Benchmark::Mser] {
            let t = RecordedTrace::record(b.build(InputSet::Ref, Scale::DEV, 9), 400);
            let bytes = t.to_sgxt();
            let back = RecordedTrace::from_sgxt(&bytes).unwrap();
            assert_eq!(t, back, "{b}");
        }
    }

    #[test]
    fn sgxt_handles_page_extremes_and_huge_gaps() {
        let t = RecordedTrace::from_accesses(vec![
            Access::with_repeats(VirtPage::new(0), Cycles::ZERO, SiteId(0), 1),
            Access::with_repeats(
                VirtPage::new(u64::MAX),
                Cycles::new(u64::MAX),
                SiteId(u32::MAX),
                u32::MAX,
            ),
            Access::with_repeats(VirtPage::new(0), Cycles::ZERO, SiteId(0), 1),
            Access::with_repeats(VirtPage::new(1), Cycles::new(7), SiteId(3), 2),
        ]);
        let back = RecordedTrace::from_sgxt(&t.to_sgxt()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn sgxt_and_csv_conversions_commute() {
        let t = RecordedTrace::record(Benchmark::Xz.build(InputSet::Ref, Scale::DEV, 4), 250);
        let via_csv = RecordedTrace::from_csv(&t.to_csv()).unwrap().to_sgxt();
        let via_sgxt = RecordedTrace::from_sgxt(&t.to_sgxt()).unwrap().to_sgxt();
        assert_eq!(via_csv, via_sgxt);
        assert_eq!(
            RecordedTrace::from_sgxt(&via_csv).unwrap().to_csv(),
            t.to_csv()
        );
    }

    #[test]
    fn multi_section_files_concatenate_in_order() {
        let a = vec![
            Access::new(VirtPage::new(10), Cycles::new(1), SiteId(0)),
            Access::new(VirtPage::new(11), Cycles::new(1), SiteId(0)),
        ];
        let b = vec![Access::new(VirtPage::new(5), Cycles::new(2), SiteId(1))];
        let mut w = SgxtWriter::new();
        w.section(7, &a);
        w.section(9, &b);
        let bytes = w.finish();
        let back = RecordedTrace::from_sgxt(&bytes).unwrap();
        let pages: Vec<u64> = back.replay().map(|x| x.page.raw()).collect();
        assert_eq!(pages, [10, 11, 5]);

        // The streaming reader exposes the section thread ids as it goes.
        let mut r = SgxtReader::new(bytes.as_slice()).unwrap();
        assert!(r.next().unwrap().is_ok());
        assert_eq!(r.thread(), 7);
        let _ = r.next();
        assert!(r.next().unwrap().is_ok());
        assert_eq!(r.thread(), 9);
        assert!(r.next().is_none());
    }

    #[test]
    fn empty_trace_roundtrips_through_sgxt() {
        let t = RecordedTrace::default();
        let bytes = t.to_sgxt();
        assert_eq!(bytes.len(), 8 + 2, "header + empty section");
        assert_eq!(RecordedTrace::from_sgxt(&bytes).unwrap(), t);
    }

    #[test]
    fn corrupt_sgxt_inputs_are_structured_errors() {
        let good =
            RecordedTrace::record(Benchmark::Lbm.build(InputSet::Ref, Scale::DEV, 1), 50).to_sgxt();

        // Truncated header: magic cut short.
        let e = RecordedTrace::from_sgxt(&good[..3]).unwrap_err();
        assert!(
            matches!(e, TraceParseError::Truncated { what: "magic", .. }),
            "{e}"
        );
        // Truncated header: version cut short.
        let e = RecordedTrace::from_sgxt(&good[..5]).unwrap_err();
        assert!(
            matches!(
                e,
                TraceParseError::Truncated {
                    what: "version",
                    ..
                }
            ),
            "{e}"
        );
        // Truncated mid-access.
        let e = RecordedTrace::from_sgxt(&good[..good.len() - 1]).unwrap_err();
        assert!(matches!(e, TraceParseError::Truncated { .. }), "{e}");

        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        let e = RecordedTrace::from_sgxt(&bad).unwrap_err();
        assert!(matches!(e, TraceParseError::BadMagic { .. }), "{e}");
        assert!(e.to_string().contains("not an .sgxt trace"));

        // Wrong version.
        let mut bad = good.clone();
        bad[4] = 99;
        let e = RecordedTrace::from_sgxt(&bad).unwrap_err();
        assert_eq!(e, TraceParseError::UnsupportedVersion { found: 99 });
        assert!(e.to_string().contains("unsupported .sgxt version 99"));

        // Varint overrun: 11 continuation bytes where a thread id goes.
        let mut bad = good[..8].to_vec();
        bad.extend_from_slice(&[0xff; 11]);
        let e = RecordedTrace::from_sgxt(&bad).unwrap_err();
        assert!(
            matches!(
                e,
                TraceParseError::VarintOverrun {
                    what: "thread id",
                    ..
                }
            ),
            "{e}"
        );

        // Trailing garbage after the last section.
        let mut bad = good.clone();
        bad.push(0x42);
        let e = RecordedTrace::from_sgxt(&bad).unwrap_err();
        assert_eq!(e, TraceParseError::TrailingGarbage { offset: good.len() });

        // Out-of-range site id (a varint that decodes above u32::MAX).
        let mut w = SgxtWriter::new();
        w.section(0, &[]);
        let mut bad = w.finish();
        // Rewrite the section to declare one access with a giant site id.
        bad.truncate(8);
        varint::push(&mut bad, 0); // thread
        varint::push(&mut bad, 1); // count
        varint::push(&mut bad, zigzag(1)); // page delta
        varint::push(&mut bad, 5); // cycle gap
        varint::push(&mut bad, u64::from(u32::MAX) + 1); // site id
        varint::push(&mut bad, 0); // repeats - 1
        let e = RecordedTrace::from_sgxt(&bad).unwrap_err();
        assert!(
            matches!(
                e,
                TraceParseError::OutOfRange {
                    what: "site id",
                    ..
                }
            ),
            "{e}"
        );
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn reader_fuses_after_an_error() {
        let good =
            RecordedTrace::record(Benchmark::Lbm.build(InputSet::Ref, Scale::DEV, 1), 10).to_sgxt();
        let mut r = SgxtReader::new(&good[..good.len() - 1]).unwrap();
        let mut saw_err = false;
        for item in r.by_ref() {
            if item.is_err() {
                saw_err = true;
            }
        }
        assert!(saw_err);
        assert!(r.next().is_none(), "the reader fuses after its error");
    }

    #[test]
    fn sgxt_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sgx_trace_sgxt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sgxt");
        let t = RecordedTrace::record(Benchmark::Lbm.build(InputSet::Ref, Scale::DEV, 1), 120);
        t.write_sgxt(&path).unwrap();
        assert_eq!(RecordedTrace::read_sgxt(&path).unwrap(), t);
        let missing = RecordedTrace::read_sgxt(dir.join("missing.sgxt"));
        assert!(missing.unwrap_err().to_string().contains("cannot read"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sgxt_is_compact() {
        let t = RecordedTrace::record(
            Benchmark::Microbenchmark.build(InputSet::Ref, Scale::DEV, 1),
            5_000,
        );
        let bin = t.to_sgxt().len();
        let csv = t.to_csv().len();
        assert!(
            bin * 2 < csv,
            "binary form should be well under half the CSV ({bin} vs {csv} bytes)"
        );
    }

    #[test]
    fn footprint_and_elrange() {
        let t = RecordedTrace::from_accesses(vec![
            Access::new(VirtPage::new(5), Cycles::ZERO, SiteId(0)),
            Access::new(VirtPage::new(5), Cycles::ZERO, SiteId(0)),
            Access::new(VirtPage::new(99), Cycles::ZERO, SiteId(1)),
        ]);
        assert_eq!(t.footprint_pages(), 2);
        assert_eq!(t.elrange_pages(), 100);
        let empty = RecordedTrace::default();
        assert_eq!(empty.footprint_pages(), 0);
        assert_eq!(empty.elrange_pages(), 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn parse_errors_identify_the_line() {
        let e = RecordedTrace::from_csv("").unwrap_err();
        assert!(e.to_string().contains("empty input"));

        let e = RecordedTrace::from_csv("nope\n1,2,3,4\n").unwrap_err();
        assert!(e.to_string().contains("unexpected header"));

        let e = RecordedTrace::from_csv("page,compute,site,repeats\n1,2,3\n").unwrap_err();
        assert!(e.to_string().contains("line 2"));
        assert!(e.to_string().contains("expected 4 fields"));

        let e = RecordedTrace::from_csv("page,compute,site,repeats\n1,x,3,4\n").unwrap_err();
        assert!(e.to_string().contains("bad compute"));

        let e = RecordedTrace::from_csv("page,compute,site,repeats\n1,2,3,0\n").unwrap_err();
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let t = RecordedTrace::from_csv("page,compute,site,repeats\n1,2,3,4\n\n5,6,7,8\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.accesses()[1].page.raw(), 5);
        assert_eq!(t.accesses()[1].repeats, 8);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sgx_trace_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let t = RecordedTrace::record(Benchmark::Lbm.build(InputSet::Ref, Scale::DEV, 1), 100);
        t.write_csv(&path).unwrap();
        let back = RecordedTrace::read_csv(&path).unwrap();
        assert_eq!(t, back);
        let missing = RecordedTrace::read_csv(dir.join("missing.csv"));
        assert!(missing.unwrap_err().to_string().contains("cannot read"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn collects_from_iterator() {
        let t: RecordedTrace = Benchmark::Lbm
            .build(InputSet::Ref, Scale::DEV, 1)
            .take(10)
            .collect();
        assert_eq!(t.len(), 10);
        assert_eq!(t.into_stream().count(), 10);
    }
}
