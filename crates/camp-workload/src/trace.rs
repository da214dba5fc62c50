//! Trace records, summary statistics, and a plain-text codec.
//!
//! The paper's simulator consumes trace files in which "each row identifies
//! a referenced key-value pair, its size, and cost". [`TraceRecord`] mirrors
//! one row (plus the originating trace-file id used by the §3.1 evolving
//! experiments), [`Trace`] is a materialized sequence of rows, and the codec
//! reads/writes a line-oriented text format so traces can be inspected,
//! diffed and shipped around.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// One trace row: a reference to `key`, whose value is `size` bytes and
/// costs `cost` to compute, issued by trace file `trace_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Referenced key.
    pub key: u64,
    /// Value size in bytes (positive).
    pub size: u64,
    /// Cost to compute the value.
    pub cost: u64,
    /// Which trace file this row came from (0 unless concatenated).
    pub trace_id: u32,
}

impl TraceRecord {
    /// Convenience constructor for single-trace rows.
    #[must_use]
    pub fn new(key: u64, size: u64, cost: u64) -> Self {
        TraceRecord {
            key,
            size,
            cost,
            trace_id: 0,
        }
    }
}

/// Summary statistics of a trace, as needed by the experiment harness (the
/// cache-size *ratio* axis of every figure divides the cache size by
/// `unique_bytes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct TraceStats {
    /// Total number of rows.
    pub requests: usize,
    /// Number of distinct keys.
    pub unique_keys: usize,
    /// Sum of sizes over distinct keys — the denominator of the paper's
    /// "cache size ratio".
    pub unique_bytes: u64,
    /// Sum of costs over all rows.
    pub total_cost: u64,
    /// Number of distinct cost values (drives Figure 8c).
    pub distinct_costs: usize,
    /// Largest value size (the adaptive multiplier's fixed point).
    pub max_size: u64,
    /// Smallest value size.
    pub min_size: u64,
}

/// A materialized trace: an ordered sequence of [`TraceRecord`]s.
///
/// # Examples
///
/// ```
/// use camp_workload::trace::{Trace, TraceRecord};
///
/// let trace = Trace::from_records(vec![
///     TraceRecord::new(1, 100, 5),
///     TraceRecord::new(2, 300, 5),
///     TraceRecord::new(1, 100, 5),
/// ]);
/// let stats = trace.stats();
/// assert_eq!(stats.requests, 3);
/// assert_eq!(stats.unique_keys, 2);
/// assert_eq!(stats.unique_bytes, 400);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Wraps a vector of records.
    #[must_use]
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        Trace { records }
    }

    /// The rows, in order.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over the rows.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Computes summary statistics in one pass.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        let mut sizes: std::collections::HashMap<u64, u64> = Default::default();
        let mut costs: std::collections::HashSet<u64> = Default::default();
        let mut total_cost = 0u64;
        let (mut max_size, mut min_size) = (0u64, u64::MAX);
        for r in &self.records {
            sizes.insert(r.key, r.size);
            costs.insert(r.cost);
            total_cost += r.cost;
            max_size = max_size.max(r.size);
            min_size = min_size.min(r.size);
        }
        TraceStats {
            requests: self.records.len(),
            unique_keys: sizes.len(),
            unique_bytes: sizes.values().sum(),
            total_cost,
            distinct_costs: costs.len(),
            max_size,
            min_size: if self.records.is_empty() { 0 } else { min_size },
        }
    }

    /// The first `n` rows as a new trace (all rows when `n` exceeds the
    /// length) — for scaling experiments down.
    #[must_use]
    pub fn head(&self, n: usize) -> Trace {
        Trace {
            records: self.records[..n.min(self.records.len())].to_vec(),
        }
    }

    /// Every `step`-th row as a new trace — coarse temporal subsampling
    /// that preserves ordering and per-key attributes.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    #[must_use]
    pub fn sample(&self, step: usize) -> Trace {
        assert!(step > 0, "sampling step must be positive");
        Trace {
            records: self.records.iter().step_by(step).copied().collect(),
        }
    }

    /// Only the rows from one source trace file (see
    /// [`crate::multi::concat_disjoint`]).
    #[must_use]
    pub fn filter_trace_id(&self, trace_id: u32) -> Trace {
        Trace {
            records: self
                .records
                .iter()
                .filter(|r| r.trace_id == trace_id)
                .copied()
                .collect(),
        }
    }

    /// Writes the trace in the text format (`key size cost trace_id` per
    /// line, `#`-prefixed header).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_to<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writeln!(writer, "# camp-trace v1")?;
        writeln!(writer, "# fields: key size cost trace_id")?;
        for r in &self.records {
            writeln!(writer, "{} {} {} {}", r.key, r.size, r.cost, r.trace_id)?;
        }
        Ok(())
    }

    /// Parses a trace from the text format. Blank lines and `#` comments
    /// are ignored; the `trace_id` column is optional and defaults to 0.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on malformed rows or I/O failure.
    pub fn read_from<R: BufRead>(reader: R) -> Result<Self, ParseTraceError> {
        let mut records = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line.map_err(|source| ParseTraceError {
                line: lineno + 1,
                kind: ParseTraceErrorKind::Io(source.kind()),
            })?;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_ascii_whitespace();
            let mut next_u64 = |what: &'static str| -> Result<u64, ParseTraceError> {
                fields
                    .next()
                    .ok_or(ParseTraceError {
                        line: lineno + 1,
                        kind: ParseTraceErrorKind::MissingField(what),
                    })?
                    .parse()
                    .map_err(|_| ParseTraceError {
                        line: lineno + 1,
                        kind: ParseTraceErrorKind::BadNumber(what),
                    })
            };
            let key = next_u64("key")?;
            let size = next_u64("size")?;
            let cost = next_u64("cost")?;
            let trace_id = match next_u64("trace_id") {
                Ok(id) => u32::try_from(id).map_err(|_| ParseTraceError {
                    line: lineno + 1,
                    kind: ParseTraceErrorKind::BadNumber("trace_id"),
                })?,
                Err(ParseTraceError {
                    kind: ParseTraceErrorKind::MissingField(_),
                    ..
                }) => 0,
                Err(e) => return Err(e),
            };
            if size == 0 {
                return Err(ParseTraceError {
                    line: lineno + 1,
                    kind: ParseTraceErrorKind::ZeroSize,
                });
            }
            records.push(TraceRecord {
                key,
                size,
                cost,
                trace_id,
            });
        }
        Ok(Trace { records })
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        self.write_to(BufWriter::new(File::create(path)?))
    }

    /// Reads a trace from a file.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] on malformed rows or I/O failure.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, ParseTraceError> {
        let file = File::open(path).map_err(|source| ParseTraceError {
            line: 0,
            kind: ParseTraceErrorKind::Io(source.kind()),
        })?;
        Trace::read_from(BufReader::new(file))
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

/// Error parsing a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    kind: ParseTraceErrorKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ParseTraceErrorKind {
    Io(io::ErrorKind),
    MissingField(&'static str),
    BadNumber(&'static str),
    ZeroSize,
}

impl ParseTraceError {
    /// The 1-based line the error occurred on (0 for file-open failures).
    #[must_use]
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseTraceErrorKind::Io(kind) => {
                write!(f, "i/o error near line {}: {kind}", self.line)
            }
            ParseTraceErrorKind::MissingField(what) => {
                write!(f, "line {}: missing field `{what}`", self.line)
            }
            ParseTraceErrorKind::BadNumber(what) => {
                write!(
                    f,
                    "line {}: field `{what}` is not a valid number",
                    self.line
                )
            }
            ParseTraceErrorKind::ZeroSize => {
                write!(
                    f,
                    "line {}: key-value pairs must have positive size",
                    self.line
                )
            }
        }
    }
}

impl std::error::Error for ParseTraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace::from_records(vec![
            TraceRecord::new(1, 100, 1),
            TraceRecord::new(2, 200, 100),
            TraceRecord {
                key: 3,
                size: 300,
                cost: 10_000,
                trace_id: 2,
            },
            TraceRecord::new(1, 100, 1),
        ])
    }

    #[test]
    fn stats_are_correct() {
        let stats = sample_trace().stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.unique_keys, 3);
        assert_eq!(stats.unique_bytes, 600);
        assert_eq!(stats.total_cost, 10_102);
        assert_eq!(stats.distinct_costs, 3);
        assert_eq!(stats.max_size, 300);
        assert_eq!(stats.min_size, 100);
    }

    #[test]
    fn empty_trace_stats() {
        let stats = Trace::default().stats();
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.unique_bytes, 0);
        assert_eq!(stats.min_size, 0);
    }

    #[test]
    fn codec_roundtrip() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).unwrap();
        let parsed = Trace::read_from(buf.as_slice()).unwrap();
        assert_eq!(parsed, trace);
    }

    #[test]
    fn parser_accepts_comments_blanks_and_missing_trace_id() {
        let text = "# header\n\n1 100 5\n2 200 7 3\n  # trailing comment\n";
        let trace = Trace::read_from(text.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.records()[0].trace_id, 0);
        assert_eq!(trace.records()[1].trace_id, 3);
    }

    #[test]
    fn parser_rejects_garbage() {
        let err = Trace::read_from("1 two 3\n".as_bytes()).unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(err.to_string().contains("size"));

        let err = Trace::read_from("1 100\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("missing field `cost`"));

        let err = Trace::read_from("1 0 5\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("positive size"));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "camp-trace-test-{}-file_roundtrip",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.trace");
        let trace = sample_trace();
        trace.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(loaded, trace);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn head_sample_filter() {
        let trace: Trace = (0..10)
            .map(|k| TraceRecord {
                key: k,
                size: 10,
                cost: 1,
                trace_id: (k % 2) as u32,
            })
            .collect();
        assert_eq!(trace.head(3).len(), 3);
        assert_eq!(trace.head(100).len(), 10);
        let sampled = trace.sample(3);
        assert_eq!(
            sampled.iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![0, 3, 6, 9]
        );
        let even = trace.filter_trace_id(0);
        assert_eq!(even.len(), 5);
        assert!(even.iter().all(|r| r.trace_id == 0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sample_step_panics() {
        let _ = Trace::default().sample(0);
    }

    #[test]
    fn collects_from_iterator() {
        let trace: Trace = (0..5).map(|k| TraceRecord::new(k, 10, 1)).collect();
        assert_eq!(trace.len(), 5);
        let mut extended = trace.clone();
        extended.extend([TraceRecord::new(9, 10, 1)]);
        assert_eq!(extended.len(), 6);
    }
}
