//! A minimal HTTP/1.1 client: `Content-Length` bodies and keep-alive.
//!
//! The load generator carries its own client so that a change to the
//! repository's client code can never move the benchmark's numbers.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Socket timeout for every read and write: far above any latency the
/// workloads produce, and a timeout counts as a failure.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server announced `Connection: close`.
    pub close: bool,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send one request and read its whole reply.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        let mut frame = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        frame.extend_from_slice(body);
        self.stream.write_all(&frame)?;
        self.read_reply()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut close = false;
        for line in head.lines().skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
                if name == "content-length" {
                    length = value.parse().map_err(|_| bad("bad content-length"))?;
                } else if name == "connection" {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(Reply {
            status,
            body,
            close,
        })
    }
}

/// One request on a fresh connection.
pub fn once(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    Conn::open(addr)?.call(method, path, body)
}

/// Sum of every sample of each named series in a Prometheus exposition.
pub fn scrape(addr: &str, names: &[&str]) -> io::Result<Vec<f64>> {
    let reply = once(addr, "GET", "/metrics", b"")?;
    if reply.status != 200 {
        return Err(io::Error::other(format!(
            "/metrics answered {}",
            reply.status
        )));
    }
    let text = String::from_utf8_lossy(&reply.body);
    Ok(names
        .iter()
        .map(|name| {
            text.lines()
                .filter(|l| {
                    l.strip_prefix(name)
                        .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
                })
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum()
        })
        .collect())
}
