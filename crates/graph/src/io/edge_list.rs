//! Whitespace-separated text edge lists (`src dst` per line, `#` comments) —
//! the de-facto exchange format of SNAP/WebGraph-derived datasets.
//!
//! All text I/O goes through two byte-level pieces: [`TextWriter`] formats
//! integer lines (edge lists here, assignment TSVs in `clugp-part`), and a
//! private line scanner reads them back for [`parse_edge_list`],
//! [`TextEdgeStream`] and [`RawTextEdgeStream`]. The scanner's fast path
//! takes lines of ASCII digits and blanks; any other line is handed to the
//! `str` path (`read_line` + `trim` + `split_whitespace` + `str::parse`),
//! so the accepted grammar, values, errors and line numbers are exactly
//! those of that path (DESIGN.md §6).

use crate::error::{GraphError, Result};
use crate::idmap::RawEdgeStream;
use crate::stream::{EdgeStream, RestreamableStream};
use crate::types::{Edge, RawEdge};
use std::io::{BufRead, Read, Seek, SeekFrom, Write};
use std::num::ParseIntError;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Bytes the line scanner asks the reader for per `read` call. A longer
/// line grows the buffer to fit it.
const SCAN_BLOCK: usize = 32 * 1024;

/// Bytes [`TextWriter`] gathers before handing them to its sink.
const WRITE_BLOCK: usize = 1 << 20;

/// Reads a text edge list. Lines starting with `#` or `%` and blank lines
/// are skipped. Each data line must contain two unsigned integers.
pub fn read_edge_list(path: &Path) -> Result<Vec<Edge>> {
    let file = std::fs::File::open(path)?;
    parse_edge_list(file)
}

/// Parses an edge list from any reader (exposed for tests and in-memory use).
pub fn parse_edge_list<R: Read>(reader: R) -> Result<Vec<Edge>> {
    let mut edges = Vec::new();
    let mut scanner = LineScanner::new(reader);
    while let Some((src, dst)) = scanner.next_ids::<u32>()? {
        edges.push(Edge { src, dst });
    }
    Ok(edges)
}

/// What the fast path made of one line.
enum FastLine {
    /// Blank, or a `#`/`%` comment.
    Skip,
    /// A data line's two ids.
    Ids(u64, u64),
    /// Anything else: only the `str` path may judge it.
    Cold,
}

/// The blanks the fast path accepts between and around fields. VT and FF
/// are whitespace too, but rare enough to leave to the `str` path.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r')
}

fn skip_blanks(line: &[u8], mut i: usize) -> usize {
    while line.get(i).copied().is_some_and(is_blank) {
        i += 1;
    }
    i
}

/// The run of ASCII digits at `line[i..]` as a `u64`, and the index after
/// it. `None` if the run is empty, overflows, or ends in a byte that is
/// neither a blank nor the end of the line.
fn scan_id(line: &[u8], mut i: usize) -> Option<(u64, usize)> {
    let start = i;
    let mut v: u64 = 0;
    while let Some(&b) = line.get(i) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        v = v.wrapping_mul(10).wrapping_add(u64::from(d));
        i += 1;
    }
    // 19 digits always fit a u64; only a longer run (leading zeros, or a
    // value near u64::MAX) is re-read with overflow checks.
    if i - start > 19 {
        v = line[start..i].iter().try_fold(0u64, |v, &b| {
            v.checked_mul(10)?.checked_add(u64::from(b - b'0'))
        })?;
    }
    let ends_token = line.get(i).copied().is_none_or(is_blank);
    (i > start && ends_token).then_some((v, i))
}

/// The fast path over one line (without its `\n`). Fields past the second
/// are ignored, as the `str` path ignores them, but the whole line must be
/// ASCII: the `str` path rejects invalid UTF-8 anywhere in a line.
fn scan_line(line: &[u8]) -> FastLine {
    let i = skip_blanks(line, 0);
    match line.get(i) {
        None => return FastLine::Skip,
        Some(b'#' | b'%') if line.is_ascii() => return FastLine::Skip,
        _ => {}
    }
    let Some((src, i)) = scan_id(line, i) else {
        return FastLine::Cold;
    };
    let Some((dst, i)) = scan_id(line, skip_blanks(line, i)) else {
        return FastLine::Cold;
    };
    if line[i..].is_ascii() {
        FastLine::Ids(src, dst)
    } else {
        FastLine::Cold
    }
}

/// The `str` path for one line: `read_line`'s UTF-8 check, `trim`, comment
/// and blank skipping, `split_whitespace` and `str::parse` into `T`.
/// `Ok(None)` for a skipped line.
fn parse_line_str<T>(mut line: &[u8], line_no: u64) -> Result<Option<(T, T)>>
where
    T: FromStr<Err = ParseIntError>,
{
    let mut text = String::new();
    line.read_line(&mut text)?;
    let trimmed = text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
        return Ok(None);
    }
    let mut it = trimmed.split_whitespace();
    let src = parse_field(it.next(), line_no)?;
    let dst = parse_field(it.next(), line_no)?;
    Ok(Some((src, dst)))
}

fn parse_field<T>(field: Option<&str>, line: u64) -> Result<T>
where
    T: FromStr<Err = ParseIntError>,
{
    let s = field.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two vertex ids".into(),
    })?;
    s.parse::<T>().map_err(|e| GraphError::Parse {
        line,
        message: format!("bad vertex id {s:?}: {e}"),
    })
}

/// Byte-level line scanner over an edge list: one block buffer, lines cut
/// at `\n` in place, two ids per data line.
struct LineScanner<R> {
    reader: R,
    /// Block buffer; `buf[pos..end]` is read but not yet consumed.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    eof: bool,
    /// 1-based number of the last line handed out.
    line_no: u64,
}

impl<R> std::fmt::Debug for LineScanner<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineScanner")
            .field("buffered", &(self.end - self.pos))
            .field("eof", &self.eof)
            .field("line_no", &self.line_no)
            .finish()
    }
}

impl<R: Read> LineScanner<R> {
    fn new(reader: R) -> Self {
        LineScanner {
            reader,
            buf: vec![0; SCAN_BLOCK],
            pos: 0,
            end: 0,
            eof: false,
            line_no: 0,
        }
    }

    /// Moves the unconsumed tail to the front (growing the buffer if the
    /// tail fills it) and reads once behind it.
    fn refill(&mut self) -> std::io::Result<()> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        if self.end == self.buf.len() {
            self.buf.resize(2 * self.buf.len(), 0);
        }
        let n = loop {
            match self.reader.read(&mut self.buf[self.end..]) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                read => break read?,
            }
        };
        self.eof = n == 0;
        self.end += n;
        Ok(())
    }

    /// The next line as a `buf` range without its `\n`, or `None` at the
    /// end of the input. A final line without `\n` still counts.
    fn next_line(&mut self) -> std::io::Result<Option<(usize, usize)>> {
        let mut searched = 0;
        loop {
            let from = self.pos + searched;
            if let Some(i) = self.buf[from..self.end].iter().position(|&b| b == b'\n') {
                let line = (self.pos, from + i);
                self.pos = from + i + 1;
                return Ok(Some(line));
            }
            if self.eof {
                if self.pos == self.end {
                    return Ok(None);
                }
                let line = (self.pos, self.end);
                self.pos = self.end;
                return Ok(Some(line));
            }
            searched = self.end - self.pos;
            self.refill()?;
        }
    }

    /// The ids of the next data line, skipping blank and comment lines.
    /// A line the fast path does not fully accept, or whose ids do not fit
    /// `T`, is judged by the `str` path instead.
    fn next_ids<T>(&mut self) -> Result<Option<(T, T)>>
    where
        T: FromStr<Err = ParseIntError> + TryFrom<u64>,
    {
        while let Some((start, stop)) = self.next_line()? {
            self.line_no += 1;
            let line = &self.buf[start..stop];
            match scan_line(line) {
                FastLine::Skip => continue,
                FastLine::Ids(src, dst) => {
                    if let (Ok(src), Ok(dst)) = (T::try_from(src), T::try_from(dst)) {
                        return Ok(Some((src, dst)));
                    }
                }
                FastLine::Cold => {}
            }
            if let Some(ids) = parse_line_str(line, self.line_no)? {
                return Ok(Some(ids));
            }
        }
        Ok(None)
    }
}

impl<R: Read + Seek> LineScanner<R> {
    /// Seeks back to the first byte and forgets the buffered bytes.
    fn rewind(&mut self) -> std::io::Result<()> {
        self.reader.seek(SeekFrom::Start(0))?;
        self.pos = 0;
        self.end = 0;
        self.eof = false;
        self.line_no = 0;
        Ok(())
    }
}

/// A resettable edge stream over a text edge list, parsing lazily so the
/// whole file never has to sit in memory.
///
/// Lines are cut from block reads by the byte-level scanner; chunked pulls
/// ([`EdgeStream::next_chunk`]) parse a block of lines per virtual
/// dispatch. Comment (`#`/`%`) and blank lines are skipped.
///
/// [`TextEdgeStream::open`] validates the whole file up front (one extra
/// buffered pass) so a malformed line fails loudly at open time — never as
/// a silently truncated partition — and the stream carries exact
/// [`EdgeStream::len_hint`]/[`EdgeStream::num_vertices_hint`] values, which
/// CLUGP needs for `Vmax = |E|/k`. [`TextEdgeStream::open_lazy`] skips the
/// validation pass for trusted or too-large-to-rescan inputs; there a
/// malformed line ends the stream early (mirroring the truncation behavior
/// of the binary [`crate::io::binary::FileEdgeStream`]), parks the error in
/// [`TextEdgeStream::error`], and the next [`RestreamableStream::reset`]
/// reports it, so multi-pass consumers cannot keep re-reading a truncated
/// stream unknowingly.
#[derive(Debug)]
pub struct TextEdgeStream {
    scanner: LineScanner<std::fs::File>,
    path: PathBuf,
    done: bool,
    error: Option<GraphError>,
    num_edges: Option<u64>,
    num_vertices: Option<u64>,
}

impl TextEdgeStream {
    /// Opens `path`, validating every line in one buffered pre-pass and
    /// recording exact edge/vertex hints.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or on the first malformed line (same contract as
    /// [`read_edge_list`]).
    pub fn open(path: &Path) -> Result<Self> {
        let mut s = Self::open_lazy(path)?;
        let mut edges = 0u64;
        let mut max_id: Option<u32> = None;
        while let Some(e) = s.parse_next() {
            edges += 1;
            let hi = e.src.max(e.dst);
            max_id = Some(max_id.map_or(hi, |m| m.max(hi)));
        }
        if let Some(err) = s.error.take() {
            return Err(err);
        }
        s.num_edges = Some(edges);
        s.num_vertices = Some(max_id.map_or(0, |m| u64::from(m) + 1));
        s.reset()?;
        Ok(s)
    }

    /// Opens `path` without the validation pre-pass: hints are `None` and a
    /// malformed line ends the stream early with the error parked (see the
    /// type docs for the failure contract).
    pub fn open_lazy(path: &Path) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        Ok(TextEdgeStream {
            scanner: LineScanner::new(file),
            path: path.to_path_buf(),
            done: false,
            error: None,
            num_edges: None,
            num_vertices: None,
        })
    }

    /// The file this stream reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The parse error that ended the stream early, if any. (Also reported
    /// by the next [`RestreamableStream::reset`].)
    pub fn error(&self) -> Option<&GraphError> {
        self.error.as_ref()
    }

    fn parse_next(&mut self) -> Option<Edge> {
        if self.done {
            return None;
        }
        match self.scanner.next_ids::<u32>() {
            Ok(Some((src, dst))) => Some(Edge { src, dst }),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                self.error = Some(e);
                None
            }
        }
    }
}

impl EdgeStream for TextEdgeStream {
    // `next_chunk` is deliberately not overridden: the trait default loops
    // `next_edge`, which statically dispatches to `parse_next` here — an
    // override would duplicate it byte for byte. The chunking win for this
    // source is the scanner's block reads plus one virtual dispatch per
    // chunk at the consumer, both of which the default already provides.
    fn next_edge(&mut self) -> Option<Edge> {
        self.parse_next()
    }

    fn len_hint(&self) -> Option<u64> {
        self.num_edges
    }

    fn num_vertices_hint(&self) -> Option<u64> {
        self.num_vertices
    }
}

impl RestreamableStream for TextEdgeStream {
    /// Rewinds to the start of the file.
    ///
    /// # Errors
    ///
    /// Fails on seek errors, or — for lazily opened streams — reports (and
    /// clears) the parse/I-O error that ended the previous pass early, so a
    /// restreaming consumer cannot silently loop over a truncated stream.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        self.scanner.rewind()?;
        self.done = false;
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A resettable [`RawEdgeStream`] over a text edge list whose vertex ids
/// may be arbitrary (sparse) 64-bit values — the form web corpora actually
/// ship in (hashed URLs, crawl ids).
///
/// Where [`TextEdgeStream`] parses `u32` ids for already-dense lists, this
/// stream parses full `u64` ids and is meant to be wrapped in
/// [`crate::idmap::RemappedStream`], which compacts the ids onto the dense
/// internal space during its first pass. [`RawTextEdgeStream::open`]
/// validates every line up front (one buffered pre-pass) and records an
/// exact [`RawEdgeStream::len_hint`], so later pulls only fail if the file
/// is mutated underneath the stream — in which case the error is *parked*,
/// the stream ends early, and the next [`RawEdgeStream::reset`] reports it
/// (the same contract as [`TextEdgeStream`], so a restreaming consumer
/// cannot silently loop over a truncated stream). [`RawTextEdgeStream::error`]
/// exposes the parked error for single-pass consumers.
#[derive(Debug)]
pub struct RawTextEdgeStream {
    scanner: LineScanner<std::fs::File>,
    path: PathBuf,
    done: bool,
    error: Option<GraphError>,
    num_edges: u64,
}

impl RawTextEdgeStream {
    /// Opens `path`, validating every line in one buffered pre-pass.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or on the first malformed line.
    pub fn open(path: &Path) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        let mut s = RawTextEdgeStream {
            scanner: LineScanner::new(file),
            path: path.to_path_buf(),
            done: false,
            error: None,
            num_edges: 0,
        };
        let mut edges = 0u64;
        while s.parse_next()?.is_some() {
            edges += 1;
        }
        s.num_edges = edges;
        RawEdgeStream::reset(&mut s)?;
        Ok(s)
    }

    /// The file this stream reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The error that ended the stream early, if any (also reported by the
    /// next [`RawEdgeStream::reset`]). Only possible if the file changed
    /// after the validating open.
    pub fn error(&self) -> Option<&GraphError> {
        self.error.as_ref()
    }

    fn parse_next(&mut self) -> Result<Option<RawEdge>> {
        if self.done {
            return Ok(None);
        }
        let ids = self.scanner.next_ids::<u64>()?;
        self.done = ids.is_none();
        Ok(ids.map(|(src, dst)| RawEdge { src, dst }))
    }
}

impl RawEdgeStream for RawTextEdgeStream {
    fn next_raw(&mut self) -> Option<RawEdge> {
        // The validating open proved every line parses; a failure here can
        // only be a racing file mutation. Park it so the next reset reports
        // it instead of letting a restreaming consumer silently loop over a
        // truncated stream.
        if self.error.is_some() {
            return None;
        }
        match self.parse_next() {
            Ok(e) => e,
            Err(err) => {
                self.done = true;
                self.error = Some(err);
                None
            }
        }
    }

    fn len_hint(&self) -> Option<u64> {
        Some(self.num_edges)
    }

    /// Rewinds to the start of the file.
    ///
    /// # Errors
    ///
    /// Fails on seek errors, or reports (and clears) the error that ended
    /// the previous pass early.
    fn reset(&mut self) -> Result<()> {
        let parked = self.error.take();
        self.scanner.rewind()?;
        self.done = false;
        match parked {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// `"00"`, `"01"`, …, `"99"`: the two-digit table [`push_decimal`] formats
/// from.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Appends the decimal digits of `v`, two per step from [`DIGIT_PAIRS`].
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[i..]);
}

/// The one text writer: lines of unsigned integers (edge lists, assignment
/// TSVs) formatted into a reused ~1 MiB block that goes to the sink with
/// `write_all`, so write errors propagate.
///
/// Bytes are exactly those of `writeln!` with `{}` fields. Call
/// [`TextWriter::finish`] at the end: dropping the writer discards the
/// buffered tail.
pub struct TextWriter<W: Write> {
    sink: W,
    buf: Vec<u8>,
}

impl<W: Write> TextWriter<W> {
    /// A writer over `sink`.
    pub fn new(sink: W) -> Self {
        TextWriter {
            sink,
            buf: Vec::with_capacity(WRITE_BLOCK + 64),
        }
    }

    /// Appends `fields` in decimal, separated by `sep`, and a `\n`.
    ///
    /// # Errors
    ///
    /// Fails if handing a full block to the sink fails.
    pub fn line(&mut self, fields: &[u64], sep: u8) -> std::io::Result<()> {
        for (i, &v) in fields.iter().enumerate() {
            if i > 0 {
                self.buf.push(sep);
            }
            push_decimal(&mut self.buf, v);
        }
        self.buf.push(b'\n');
        self.spill()
    }

    /// Appends raw text, such as a header comment.
    ///
    /// # Errors
    ///
    /// Fails if handing a full block to the sink fails.
    pub fn text(&mut self, s: &str) -> std::io::Result<()> {
        self.buf.extend_from_slice(s.as_bytes());
        self.spill()
    }

    fn spill(&mut self) -> std::io::Result<()> {
        if self.buf.len() >= WRITE_BLOCK {
            self.sink.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Writes the buffered tail and flushes the sink.
    ///
    /// # Errors
    ///
    /// Fails if the write or the flush fails.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.sink.write_all(&self.buf)?;
        self.sink.flush()
    }
}

/// Writes edges as a text edge list with a provenance header comment.
pub fn write_edge_list(path: &Path, edges: &[Edge]) -> Result<()> {
    let mut w = TextWriter::new(std::fs::File::create(path)?);
    w.text(&format!("# directed edge list, {} edges\n", edges.len()))?;
    for e in edges {
        w.line(&[u64::from(e.src), u64::from(e.dst)], b' ')?;
    }
    w.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_list() {
        let input = "# comment\n0 1\n\n% also comment\n2 3\n";
        let edges = parse_edge_list(input.as_bytes()).unwrap();
        assert_eq!(edges, vec![Edge::new(0, 1), Edge::new(2, 3)]);
    }

    #[test]
    fn tolerates_extra_whitespace() {
        let edges = parse_edge_list("  7\t 8 \n".as_bytes()).unwrap();
        assert_eq!(edges, vec![Edge::new(7, 8)]);
    }

    #[test]
    fn reports_line_of_bad_token() {
        let err = parse_edge_list("0 1\nx y\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn reports_missing_field() {
        let err = parse_edge_list("42\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("clugp_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        let edges = vec![Edge::new(0, 1), Edge::new(5, 2), Edge::new(5, 2)];
        write_edge_list(&path, &edges).unwrap();
        let back = read_edge_list(&path).unwrap();
        assert_eq!(back, edges);
        std::fs::remove_file(&path).unwrap();
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("clugp_text_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn text_stream_matches_eager_reader() {
        let path = tmp("stream.txt");
        let edges: Vec<Edge> = (0..500u32).map(|i| Edge::new(i, (i * 3) % 500)).collect();
        write_edge_list(&path, &edges).unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        // The validating open records exact hints.
        assert_eq!(s.len_hint(), Some(500));
        assert_eq!(s.num_vertices_hint(), Some(500));
        let streamed = crate::stream::collect_stream(&mut s);
        assert_eq!(streamed, read_edge_list(&path).unwrap());
        assert!(s.error().is_none());
        // The lazy open streams the same edges, just without hints.
        let mut lazy = TextEdgeStream::open_lazy(&path).unwrap();
        assert_eq!(lazy.len_hint(), None);
        assert_eq!(crate::stream::collect_stream(&mut lazy), streamed);
    }

    #[test]
    fn text_stream_resets() {
        let path = tmp("reset.txt");
        write_edge_list(&path, &[Edge::new(0, 1), Edge::new(2, 3)]).unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        let first = crate::stream::collect_stream(&mut s);
        s.reset().unwrap();
        let second = crate::stream::collect_stream(&mut s);
        assert_eq!(first, second);
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn text_stream_chunked_pulls_skip_comments() {
        let path = tmp("comments.txt");
        std::fs::write(&path, "# header\n0 1\n\n% note\n2 3\n4 5\n").unwrap();
        let mut s = TextEdgeStream::open(&path).unwrap();
        let mut buf = Vec::new();
        assert_eq!(s.next_chunk(&mut buf, 2), 2);
        assert_eq!(buf, vec![Edge::new(0, 1), Edge::new(2, 3)]);
        assert_eq!(s.next_chunk(&mut buf, 2), 1);
        assert_eq!(buf, vec![Edge::new(4, 5)]);
        assert_eq!(s.next_chunk(&mut buf, 2), 0);
    }

    #[test]
    fn validating_open_rejects_malformed_file() {
        let path = tmp("bad_open.txt");
        std::fs::write(&path, "0 1\nnot numbers\n2 3\n").unwrap();
        let err = TextEdgeStream::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn lazy_stream_parks_parse_error_and_reset_reports_it() {
        let path = tmp("bad.txt");
        std::fs::write(&path, "0 1\nnot numbers\n2 3\n").unwrap();
        let mut s = TextEdgeStream::open_lazy(&path).unwrap();
        assert_eq!(s.next_edge(), Some(Edge::new(0, 1)));
        assert_eq!(s.next_edge(), None);
        assert!(matches!(s.error(), Some(GraphError::Parse { line: 2, .. })));
        // The next reset surfaces the parked error (a restreaming consumer
        // cannot silently loop over the truncated stream)...
        let err = s.reset().unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        // ...after which the stream is rewound and replays the good prefix.
        assert!(s.error().is_none());
        assert_eq!(s.next_edge(), Some(Edge::new(0, 1)));
    }

    #[test]
    fn raw_text_stream_parses_sparse_u64_ids() {
        let path = tmp("raw_sparse.txt");
        std::fs::write(
            &path,
            format!(
                "# hashed-url ids\n18446744073709551615 9000000000\n9000000000 {}\n",
                1u64 << 40
            ),
        )
        .unwrap();
        let mut s = RawTextEdgeStream::open(&path).unwrap();
        assert_eq!(RawEdgeStream::len_hint(&s), Some(2));
        assert_eq!(s.next_raw(), Some(RawEdge::new(u64::MAX, 9_000_000_000)));
        assert_eq!(s.next_raw(), Some(RawEdge::new(9_000_000_000, 1 << 40)));
        assert_eq!(s.next_raw(), None);
        // Resets for multi-pass consumption.
        RawEdgeStream::reset(&mut s).unwrap();
        assert_eq!(s.next_raw(), Some(RawEdge::new(u64::MAX, 9_000_000_000)));
    }

    #[test]
    fn raw_text_stream_feeds_the_remap_layer() {
        use crate::idmap::RemappedStream;
        use crate::stream::collect_stream;
        let path = tmp("raw_remap.txt");
        std::fs::write(&path, "18446744073709551615 7\n7 42\n").unwrap();
        let raw = RawTextEdgeStream::open(&path).unwrap();
        let mut s = RemappedStream::remap(raw).unwrap();
        assert_eq!(
            collect_stream(&mut s),
            vec![Edge::new(0, 1), Edge::new(1, 2)]
        );
        assert_eq!(s.id_map().external_of(0), u64::MAX);
    }

    #[test]
    fn raw_text_stream_parks_error_on_mid_stream_mutation() {
        // A file mutated *underneath* an open stream (after the validating
        // pre-pass) must not be silently truncated: the parse error is
        // parked and the next reset reports it, so a restreaming consumer
        // cannot loop over a corrupted stream. The file must exceed the
        // scanner's read block for the mutation to be observable.
        let path = tmp("raw_mutated.txt");
        let good: String = (0..4000u64).map(|i| format!("{i} {}\n", i + 1)).collect();
        assert!(good.len() > SCAN_BLOCK, "fixture fits in one read block");
        std::fs::write(&path, &good).unwrap();
        let mut s = RawTextEdgeStream::open(&path).unwrap();
        assert_eq!(s.next_raw(), Some(RawEdge::new(0, 1)));
        // Same-length garbage so reads keep succeeding but parsing fails.
        std::fs::write(&path, good.replace(' ', "x")).unwrap();
        while s.next_raw().is_some() {}
        assert!(s.error().is_some(), "mutation must park an error");
        assert!(
            RawEdgeStream::reset(&mut s).is_err(),
            "reset must report it"
        );
        // After reporting, the stream is usable again (over the new bytes).
        assert!(s.error().is_none());
    }

    #[test]
    fn raw_text_stream_rejects_malformed_lines_at_open() {
        let path = tmp("raw_bad.txt");
        std::fs::write(&path, "1 2\nnot numbers\n").unwrap();
        let err = RawTextEdgeStream::open(&path).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn empty_input() {
        assert!(parse_edge_list("".as_bytes()).unwrap().is_empty());
        assert!(parse_edge_list("# only comments\n".as_bytes())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn decimal_formatter_matches_display_at_digit_boundaries() {
        let boundaries = [
            0u64,
            9,
            10,
            99,
            100,
            999_999_999,
            1_000_000_000,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for v in boundaries {
            for w in [v.saturating_sub(1), v, v.saturating_add(1)] {
                let mut out = Vec::new();
                push_decimal(&mut out, w);
                assert_eq!(out, w.to_string().into_bytes(), "{w}");
            }
        }
    }

    #[test]
    fn text_writer_bytes_equal_writeln_across_block_spills() {
        // Enough lines to spill several full blocks, with ids of every
        // width from one digit to u64::MAX.
        let mut rows = Vec::new();
        let mut v: u64 = 1;
        for i in 0..200_000u64 {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            rows.push([i, v >> (i % 64), v % 32]);
        }
        let mut want = Vec::new();
        writeln!(want, "# header {}", rows.len()).unwrap();
        for r in &rows {
            writeln!(want, "{}\t{}\t{}", r[0], r[1], r[2]).unwrap();
        }
        let mut got = Vec::new();
        let mut w = TextWriter::new(&mut got);
        w.text(&format!("# header {}\n", rows.len())).unwrap();
        for r in &rows {
            w.line(r, b'\t').unwrap();
        }
        w.finish().unwrap();
        assert!(want.len() > 2 * WRITE_BLOCK);
        assert!(got == want, "TextWriter bytes differ from writeln!");
    }

    #[test]
    fn text_writer_propagates_write_errors() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = TextWriter::new(Broken);
        w.line(&[1, 2, 3], b'\t').unwrap(); // buffered, not yet written
        assert_eq!(w.finish().unwrap_err().to_string(), "disk full");
        let mut w = TextWriter::new(Broken);
        let spilled = (0..WRITE_BLOCK).try_for_each(|i| w.line(&[i as u64], b' '));
        assert!(spilled.is_err(), "a full block must reach the sink");
    }

    /// The edge-list parse loop as it was before the byte-level scanner,
    /// kept as the reference the scanner must match: `BufRead::read_line`,
    /// `trim`, `#`/`%`/blank skipping, `split_whitespace`, `str::parse`.
    /// Returns the edges before the first error, and that error.
    fn str_reference<T>(bytes: &[u8]) -> (Vec<(T, T)>, Option<GraphError>)
    where
        T: FromStr<Err = ParseIntError>,
    {
        fn field<T: FromStr<Err = ParseIntError>>(f: Option<&str>, line: u64) -> Result<T> {
            let s = f.ok_or_else(|| GraphError::Parse {
                line,
                message: "expected two vertex ids".into(),
            })?;
            s.parse::<T>().map_err(|e| GraphError::Parse {
                line,
                message: format!("bad vertex id {s:?}: {e}"),
            })
        }
        let mut edges = Vec::new();
        let mut line = String::new();
        let mut buf = std::io::BufReader::new(bytes);
        let mut line_no: u64 = 0;
        loop {
            line.clear();
            match buf.read_line(&mut line) {
                Ok(0) => return (edges, None),
                Ok(_) => {}
                Err(e) => return (edges, Some(e.into())),
            }
            line_no += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
                continue;
            }
            let mut it = trimmed.split_whitespace();
            let parsed = field(it.next(), line_no)
                .and_then(|src| field(it.next(), line_no).map(|dst| (src, dst)));
            match parsed {
                Ok(ids) => edges.push(ids),
                Err(e) => return (edges, Some(e)),
            }
        }
    }

    /// An error's variant and full message: what must not move.
    fn error_key(e: &GraphError) -> String {
        let variant = match e {
            GraphError::Io(io) => format!("Io({:?})", io.kind()),
            GraphError::Parse { line, .. } => format!("Parse(line {line})"),
            other => format!("other {other:?}"),
        };
        format!("{variant}: {e}")
    }

    /// Runs every text reader over `bytes` and checks each against the
    /// `str` reference: same edges, or the same edges up to the same error.
    fn check_against_reference(name: &str, bytes: &[u8]) {
        let (want32, err32) = str_reference::<u32>(bytes);
        let want32: Vec<Edge> = want32.into_iter().map(|(s, d)| Edge::new(s, d)).collect();
        let err32 = err32.as_ref().map(error_key);
        match parse_edge_list(bytes) {
            Ok(got) => {
                assert_eq!(err32, None, "{name}: scanner accepted a rejected input");
                assert_eq!(got, want32, "{name}: parse_edge_list edges");
            }
            Err(e) => assert_eq!(Some(error_key(&e)), err32, "{name}: parse_edge_list error"),
        }

        let path = tmp(&format!("differential_{name}.txt"));
        std::fs::write(&path, bytes).unwrap();
        let mut lazy = TextEdgeStream::open_lazy(&path).unwrap();
        assert_eq!(
            crate::stream::collect_stream(&mut lazy),
            want32,
            "{name}: lazy stream prefix"
        );
        assert_eq!(lazy.error().map(error_key), err32, "{name}: parked error");
        match TextEdgeStream::open(&path) {
            Ok(mut s) => {
                assert_eq!(err32, None, "{name}: validating open accepted");
                assert_eq!(crate::stream::collect_stream(&mut s), want32, "{name}");
            }
            Err(e) => assert_eq!(Some(error_key(&e)), err32, "{name}: open error"),
        }

        let (want64, err64) = str_reference::<u64>(bytes);
        match RawTextEdgeStream::open(&path) {
            Ok(mut s) => {
                assert!(err64.is_none(), "{name}: raw open accepted {err64:?}");
                let mut got = Vec::new();
                while let Some(e) = s.next_raw() {
                    got.push((e.src, e.dst));
                }
                assert_eq!(got, want64, "{name}: raw edges");
            }
            Err(e) => assert_eq!(
                Some(error_key(&e)),
                err64.as_ref().map(error_key),
                "{name}: raw open error"
            ),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scanner_matches_str_reference_on_corpus() {
        let long_field = "9".repeat(2 * SCAN_BLOCK + 7);
        let long_blanks = " \t".repeat(SCAN_BLOCK);
        let corpus: Vec<(&str, Vec<u8>)> = vec![
            ("crlf", b"0 1\r\n2 3\r\n".to_vec()),
            ("tabs", b"0\t1\n\t2\t\t3\t\n".to_vec()),
            ("leading_ws", b"   4 5\n \t 6 7\n\r8 9\n".to_vec()),
            ("cr_inside", b"0\r1\n".to_vec()),
            (
                "vt_ff",
                b"\x0b8 9\n10\x0c11\n12 13\x0b\n\x0c\n14 15\x0b7\n".to_vec(),
            ),
            ("comments", b"  # c 1 2\n\t% d\n0 1\n#\n%x y\n".to_vec()),
            ("blank_lines", b"\n\n  \n\r\n0 1\n\n".to_vec()),
            (
                "extra_columns",
                b"0 1 0.5\n2 3 7 extra cols\n4 5 -1\n6 7\t#x\n".to_vec(),
            ),
            ("plus_src", b"+5 6\n".to_vec()),
            ("plus_dst", b"5 +6\n".to_vec()),
            ("lone_plus", b"+ 1\n".to_vec()),
            ("minus", b"-0 1\n".to_vec()),
            (
                "leading_zeros",
                b"007 0000000000000000000000000000042\n".to_vec(),
            ),
            ("u32_max", b"4294967295 0\n".to_vec()),
            ("u32_max_plus_one", b"0 1\n4294967296 0\n".to_vec()),
            ("u64_max", b"18446744073709551615 1\n".to_vec()),
            ("u64_overflow", b"1 18446744073709551616\n".to_vec()),
            ("one_field", b"0 1\n42\n".to_vec()),
            ("one_field_ws", b"0 1\n42 \t\r\n".to_vec()),
            ("non_digit", b"0 1\nx y\n".to_vec()),
            ("digit_then_letter", b"1 2x\n".to_vec()),
            ("letter_in_src", b"1x 2\n".to_vec()),
            ("nul_byte", b"0\x001\n".to_vec()),
            ("utf8_comment", b"0 1\n# caf\xc3\xa9\n2 3\n".to_vec()),
            ("bad_utf8_comment", b"0 1\n# caf\xe9\n2 3\n".to_vec()),
            ("bad_utf8_third_field", b"0 1 \xff\n2 3\n".to_vec()),
            ("utf8_third_field", "0 1 café\n".as_bytes().to_vec()),
            (
                "nbsp_separator",
                "0\u{a0}1\n\u{3000}5 6\n".as_bytes().to_vec(),
            ),
            ("no_final_newline", b"0 1\n2 3".to_vec()),
            ("final_cr_no_newline", b"0 1\r".to_vec()),
            (
                "long_line",
                format!("0 1 {long_field}\n2 3\n{long_field} 1\n").into_bytes(),
            ),
            (
                "long_leading_blanks",
                format!("{long_blanks}4 5\n# {long_field}\n6 7").into_bytes(),
            ),
            ("empty", Vec::new()),
            ("only_comments", b"# a\n% b\n".to_vec()),
        ];
        for (name, bytes) in &corpus {
            check_against_reference(name, bytes);
        }
        // The accepted cases joined into one input, so lines straddle block
        // edges at other offsets and line numbers keep counting; then one
        // rejected line at its end.
        let mut joined = Vec::new();
        for (_, bytes) in &corpus {
            if str_reference::<u32>(bytes).1.is_none() {
                joined.extend_from_slice(bytes);
                joined.push(b'\n');
            }
        }
        check_against_reference("joined", &joined);
        joined.extend_from_slice(b"1 2\n3\n");
        check_against_reference("joined_then_bad", &joined);
    }
}
