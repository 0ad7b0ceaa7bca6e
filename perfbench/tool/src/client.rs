//! A minimal closed-loop HTTP/1.1 client: each connection sends its
//! next request only after the previous response has fully arrived.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One response as received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option failures.
    pub fn open(addr: &str) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(1 << 16, writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Sends one request frame and reads its response.
    ///
    /// # Errors
    ///
    /// Transport errors and malformed responses.
    pub fn call(&mut self, frame: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(frame)?;
        read_reply(&mut self.reader)
    }

    /// `GET target` on this connection.
    ///
    /// # Errors
    ///
    /// As [`Conn::call`].
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        self.call(format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one `Content-Length`-framed response.
fn read_reply(r: &mut impl BufRead) -> io::Result<Reply> {
    let mut line = String::new();
    let mut status = None;
    let mut len = None;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-response".to_string()));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if status.is_none() {
            status = l.split(' ').nth(1).and_then(|s| s.parse().ok());
            if status.is_none() {
                return Err(bad(format!("bad status line {l:?}")));
            }
        } else if let Some((name, value)) = l.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse::<usize>().ok();
            }
        }
    }
    let len = len.ok_or_else(|| bad("response without Content-Length".to_string()))?;
    let mut body = vec![0; len];
    r.read_exact(&mut body)?;
    Ok(Reply {
        status: status.unwrap_or(0),
        body,
    })
}

/// What one closed-loop pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per request, in request order: nanoseconds from send to the last
    /// response byte.
    pub latency_ns: Vec<u64>,
    /// Per request: whether the response passed its check.
    pub ok: Vec<bool>,
    /// Responses in request order, when kept.
    pub replies: Vec<Option<Reply>>,
    /// Nanoseconds from the common start to the last response.
    pub wall_ns: u64,
}

/// How responses are checked.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// Status 200 only; keep every reply for later checks.
    Keep,
    /// Status 200 and body equal, byte for byte, to `expected[body id]`.
    Match(&'a [Vec<u8>]),
}

/// Whether `reply` passes `check` for body `id`.
#[must_use]
pub fn passes(check: Check<'_>, id: usize, reply: &Reply) -> bool {
    reply.status == 200
        && match check {
            Check::Keep => true,
            Check::Match(expected) => expected[id] == reply.body,
        }
}

/// One finished request: its index, latency, check result and reply.
type Completed = (usize, u64, bool, Option<Reply>);

/// Sends request `k` (frame `frames[order[k]]`) for every `k`, spread
/// over `conns` connections (connection `c` takes `k % conns == c`), each
/// closed-loop. A transport error fails that connection's remaining
/// requests.
///
/// # Errors
///
/// Fails only if a connection cannot be opened.
pub fn closed_loop(
    addr: &str,
    frames: &[Vec<u8>],
    order: &[usize],
    conns: usize,
    check: Check<'_>,
) -> io::Result<Pass> {
    let mut opened = Vec::with_capacity(conns);
    for _ in 0..conns {
        opened.push(Conn::open(addr)?);
    }
    let keep = matches!(check, Check::Keep);
    let barrier = Barrier::new(conns);
    let start = Instant::now();
    let results: Vec<(Vec<Completed>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = opened
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let mut out = Vec::with_capacity(order.len() / conns + 1);
                    let mut broken = false;
                    for k in (c..order.len()).step_by(conns) {
                        let id = order[k];
                        let t0 = Instant::now();
                        let reply = if broken {
                            None
                        } else {
                            conn.call(&frames[id]).ok()
                        };
                        let ns = t0.elapsed().as_nanos() as u64;
                        broken = reply.is_none();
                        let ok = reply.as_ref().is_some_and(|r| passes(check, id, r));
                        out.push((k, ns, ok, if keep { reply } else { None }));
                    }
                    (out, start.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        latency_ns: vec![0; order.len()],
        ok: vec![false; order.len()],
        replies: vec![None; if keep { order.len() } else { 0 }],
        wall_ns: results.iter().map(|r| r.1).max().unwrap_or(0),
    };
    for (k, ns, ok, reply) in results.into_iter().flat_map(|r| r.0) {
        pass.latency_ns[k] = ns;
        pass.ok[k] = ok;
        if keep {
            pass.replies[k] = reply;
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_framed_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nabcHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        let a = read_reply(&mut r).unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"abc"[..]));
        let b = read_reply(&mut r).unwrap();
        assert_eq!((b.status, b.body.len()), (404, 0));
        assert!(read_reply(&mut r).is_err());
    }

    #[test]
    fn a_tampered_response_fails_its_check() {
        let expected = vec![b"{\"misses\": 12}\n".to_vec()];
        let good = Reply {
            status: 200,
            body: expected[0].clone(),
        };
        assert!(passes(Check::Match(&expected), 0, &good));
        let mut tampered = good.clone();
        tampered.body[12] = b'3';
        assert!(!passes(Check::Match(&expected), 0, &tampered));
        let mut wrong_status = good;
        wrong_status.status = 503;
        assert!(!passes(Check::Keep, 0, &wrong_status));
    }
}
