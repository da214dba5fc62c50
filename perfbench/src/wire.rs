//! The generator's side of the wire.
//!
//! Each batch of requests is encoded into one buffer and handed to the
//! socket in one `write` (the loopback send buffer takes a whole batch, so
//! `write_all` loops only if the kernel accepts less). Replies are parsed
//! in place from one reusable receive buffer. The repository's
//! `camp_kvs::client::Client` is not used: it sends one request as several
//! small writes, which makes the client, not the server, the bottleneck.
//!
//! The sockets are non-blocking and the generator spins while it waits.
//! On a VM, a vCPU that halts to wait for a reply is woken through the
//! hypervisor, and those wake-ups are where most of the steal (and most of
//! the run-to-run spread) came from. The generator has a core of its own,
//! so spinning costs the daemon nothing; the time spent spinning is
//! counted ([`spin_nanos`]) and left out of the generator's CPU figure.

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use camp_kvs::resp::push_u64;

/// Random bytes that every generated value is cut from.
const PATTERN_LEN: usize = 128 << 10;
/// Largest value any workload generates (the 64 KiB item cap of the
/// `bg-cache-aside` trace).
const MAX_VALUE_LEN: usize = 64 << 10;

/// The source of every value the benchmark stores. A value is a pure
/// function of `(key, stamp, len)`, so a reply can be checked byte for
/// byte without remembering what was sent.
pub struct Values {
    pattern: Vec<u8>,
}

impl Values {
    pub fn new(seed: u64) -> Values {
        let mut rng = camp_core::rng::Rng64::seed_from_u64(seed ^ 0x5EED_BA5E);
        let mut pattern = Vec::with_capacity(PATTERN_LEN);
        while pattern.len() < PATTERN_LEN {
            pattern.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        Values { pattern }
    }

    /// Replaces `out` with the `len`-byte value of `key` at `stamp`: a
    /// readable `key.stamp|` prefix, then pattern bytes at a key-dependent
    /// offset, truncated to `len`.
    pub fn fill(&self, out: &mut Vec<u8>, key: u64, stamp: u64, len: usize) {
        assert!(
            len <= MAX_VALUE_LEN,
            "value of {len} bytes exceeds the pattern"
        );
        out.clear();
        push_u64(out, key);
        out.push(b'.');
        push_u64(out, stamp);
        out.push(b'|');
        let offset = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stamp) as usize
            % (PATTERN_LEN - MAX_VALUE_LEN);
        out.extend_from_slice(&self.pattern[offset..offset + len]);
        out.truncate(len);
    }
}

/// Appends the wire key of `key` (`k<decimal>`).
pub fn push_key(out: &mut Vec<u8>, key: u64) {
    out.push(b'k');
    push_u64(out, key);
}

/// Appends `<verb> k<key>\r\n`.
pub fn push_get(out: &mut Vec<u8>, verb: &[u8], key: u64) {
    out.extend_from_slice(verb);
    out.push(b' ');
    push_key(out, key);
    out.extend_from_slice(b"\r\n");
}

/// Appends `<verb> k<key> 0 0 <len>[ <cost>]\r\n<value>\r\n`.
pub fn push_set(out: &mut Vec<u8>, verb: &[u8], key: u64, value: &[u8], cost: Option<u64>) {
    out.extend_from_slice(verb);
    out.push(b' ');
    push_key(out, key);
    out.extend_from_slice(b" 0 0 ");
    push_u64(out, value.len() as u64);
    if let Some(cost) = cost {
        out.push(b' ');
        push_u64(out, cost);
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(value);
    out.extend_from_slice(b"\r\n");
}

/// How long the generator waits for the daemon before giving up.
const STALL_LIMIT: Duration = Duration::from_secs(30);

thread_local! {
    static SPIN_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds this thread has spent spinning on a socket so far.
pub fn spin_nanos() -> u64 {
    SPIN_NANOS.with(Cell::get)
}

/// Retries `op` while it would block, counting the time spent spinning.
fn spin<T>(mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    let mut since = None;
    loop {
        match op() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let started = *since.get_or_insert_with(Instant::now);
                if started.elapsed() > STALL_LIMIT {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no progress from the daemon",
                    ));
                }
                std::hint::spin_loop();
            }
            done => {
                if let Some(started) = since {
                    let nanos = started.elapsed().as_nanos() as u64;
                    SPIN_NANOS.with(|total| total.set(total.get() + nanos));
                }
                return done;
            }
        }
    }
}

/// One client connection with a reusable receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 20],
            start: 0,
            end: 0,
        })
    }

    /// Sends one encoded batch.
    pub fn send(&mut self, mut batch: &[u8]) -> io::Result<()> {
        while !batch.is_empty() {
            let n = spin(|| self.stream.write(batch))?;
            batch = &batch[n..];
        }
        Ok(())
    }

    /// Reads more bytes, compacting or growing the buffer when full.
    fn fill(&mut self) -> io::Result<()> {
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let (stream, spare) = (&mut self.stream, &mut self.buf[self.end..]);
        let n = spin(|| stream.read(spare))?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.end += n;
        Ok(())
    }

    /// Consumes one `\r\n`-terminated line and returns its bounds
    /// (without the terminator) as offsets into `buf`.
    fn line(&mut self) -> io::Result<(usize, usize)> {
        // Offset from `start` already searched; `fill` may move the unread
        // bytes to the front, so positions are kept relative to `start`.
        let mut scanned = 0;
        loop {
            let from = self.start + scanned;
            if let Some(pos) = self.buf[from..self.end].iter().position(|&b| b == b'\n') {
                let nl = from + pos;
                if nl == self.start || self.buf[nl - 1] != b'\r' {
                    return Err(invalid("reply line without CRLF".into()));
                }
                let bounds = (self.start, nl - 1);
                self.start = nl + 1;
                return Ok(bounds);
            }
            scanned = self.end - self.start;
            self.fill()?;
        }
    }

    /// Reads one status line (e.g. `STORED`).
    pub fn read_line(&mut self) -> io::Result<&[u8]> {
        let (a, b) = self.line()?;
        Ok(&self.buf[a..b])
    }

    /// Reads one single-key `get`/`iqget` reply: `Some(value)` on a hit,
    /// `None` on `END`.
    pub fn read_get(&mut self) -> io::Result<Option<&[u8]>> {
        let (a, b) = self.line()?;
        let header = &self.buf[a..b];
        if header == b"END" {
            return Ok(None);
        }
        if !header.starts_with(b"VALUE ") {
            return Err(invalid(format!(
                "unexpected get reply {:?}",
                String::from_utf8_lossy(header)
            )));
        }
        let len: usize = header
            .rsplit(|&c| c == b' ')
            .next()
            .and_then(|t| std::str::from_utf8(t).ok())
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| invalid("VALUE line without a length".into()))?;
        const TAIL: &[u8] = b"\r\nEND\r\n";
        while self.end - self.start < len + TAIL.len() {
            self.fill()?;
        }
        let data = self.start;
        self.start += len + TAIL.len();
        if &self.buf[data + len..self.start] != TAIL {
            return Err(invalid("VALUE block not followed by END".into()));
        }
        Ok(Some(&self.buf[data..data + len]))
    }

    /// Rewinds the buffer once every byte received has been parsed (more
    /// than one batch may be in flight).
    pub fn compact(&mut self) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// Ends a batch: every byte received must have been a reply to it.
    pub fn finish_batch(&mut self) -> io::Result<()> {
        if self.start != self.end {
            return Err(invalid(format!(
                "{} unexpected bytes after a batch",
                self.end - self.start
            )));
        }
        self.start = 0;
        self.end = 0;
        Ok(())
    }

    /// Sends `stats detail` and returns the `STAT name value` table.
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        self.send(b"stats detail\r\n")?;
        let mut table = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == b"END" {
                break;
            }
            let text = String::from_utf8_lossy(line);
            let mut parts = text.splitn(3, ' ');
            if let (Some("STAT"), Some(name), Some(value)) =
                (parts.next(), parts.next(), parts.next())
            {
                table.push((name.to_owned(), value.to_owned()));
            }
        }
        self.finish_batch()?;
        Ok(table)
    }
}

/// A `STAT` value parsed as an integer (0 when absent or not numeric).
pub fn stat(table: &[(String, String)], name: &str) -> u64 {
    table
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}
