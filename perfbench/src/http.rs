//! A minimal keep-alive HTTP/1.1 client for the control-plane workload.
//! It reconnects before the next request whenever a reply carries
//! `connection: close`, as the server sends after its per-connection
//! request budget.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One parsed reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    pub close: bool,
    pub body: Vec<u8>,
}

#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    buf: Vec<u8>,
    out: Vec<u8>,
    /// Connections opened, the first one included.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None, buf: Vec::with_capacity(64 * 1024), out: Vec::new(), connects: 0 }
    }

    /// Closes the open connection, if any.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    /// Sends one request and reads its reply, opening a connection first
    /// when none is open. A reply that asks to close drops the
    /// connection, so the next request reconnects.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body);
        let result = self.exchange();
        match &result {
            Ok(reply) if !reply.close => {}
            _ => self.conn = None,
        }
        result
    }

    fn exchange(&mut self) -> io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.conn = Some(stream);
            self.connects += 1;
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.write_all(&self.out)?;
        read_reply(conn, &mut self.buf)
    }
}

/// Reads one reply from `r`, using `buf` as scratch. Replies are framed
/// by `content-length`, which the server always sends.
pub fn read_reply(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Reply> {
    buf.clear();
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if fill(r, buf)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-head"));
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 reply head"))?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| bad("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("reply without content-length"))?;
    while buf.len() < head_end + length {
        if fill(r, buf)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-body"));
        }
    }
    if buf.len() > head_end + length {
        return Err(bad("bytes after the reply: the server answered unasked"));
    }
    Ok(Reply { status, close, body: buf[head_end..].to_vec() })
}

fn fill(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<usize> {
    let mut chunk = [0u8; 16 * 1024];
    let n = r.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::net::TcpListener;

    #[test]
    fn parses_framed_replies() {
        let raw = b"HTTP/1.1 201 Created\r\ncontent-type: x\r\ncontent-length: 5\r\n\r\nhello";
        let mut buf = Vec::new();
        let reply = read_reply(&mut Cursor::new(&raw[..]), &mut buf).unwrap();
        assert_eq!(reply, Reply { status: 201, close: false, body: b"hello".to_vec() });
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
        assert!(read_reply(&mut Cursor::new(&raw[..]), &mut buf).unwrap().close);
        let truncated = b"HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\nhalf";
        assert!(read_reply(&mut Cursor::new(&truncated[..]), &mut buf).is_err());
    }

    /// A server that answers two requests per connection, closing with
    /// `connection: close` on the second.
    #[test]
    fn reconnects_after_connection_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut conn, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                for served in 0..2 {
                    buf.clear();
                    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        let mut b = [0u8; 512];
                        let n = conn.read(&mut b).unwrap();
                        assert!(n > 0, "client closed early");
                        buf.extend_from_slice(&b[..n]);
                    }
                    let close = if served == 1 { "connection: close\r\n" } else { "" };
                    let reply = format!("HTTP/1.1 200 OK\r\ncontent-length: 2\r\n{close}\r\nok");
                    conn.write_all(reply.as_bytes()).unwrap();
                }
            }
        });
        let mut client = Client::new(addr);
        let closes: Vec<bool> =
            (0..4).map(|_| client.request("GET", "/healthz", b"").unwrap().close).collect();
        assert_eq!(closes, vec![false, true, false, true]);
        assert_eq!(client.connects, 2);
        server.join().unwrap();
    }
}
