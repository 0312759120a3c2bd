//! The HTTP/1.1 wire layer: reading requests off a `TcpStream` and
//! writing responses back, with nothing above `std::net`.
//!
//! Each connection has its own thread (see [`crate::server`]), which
//! blocks in [`Connection::read_request`] until a request is complete
//! or the socket's read timeout expires. The reader is **resumable**:
//! on [`ReadError::Idle`] the partial bytes stay buffered in the
//! connection, the caller checks its deadlines, and the next call picks
//! up where this one stopped.
//!
//! Only the slice of HTTP/1.1 the service needs is implemented:
//! `Content-Length` bodies (no chunked encoding), no `Expect:
//! 100-continue`, no pipelining guarantees beyond "unread bytes stay
//! buffered". Requests over the configured head/body caps are rejected
//! before the bytes are read, which is what makes the caps a defense
//! rather than a suggestion.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Upper bound on the request line + headers. Generous for hand-written
/// clients, small enough that a garbage stream cannot balloon memory.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client already; matched
    /// case-sensitively per RFC 9110).
    pub method: String,
    /// The request target, e.g. `/query`.
    pub path: String,
    /// `HTTP/1.1` or `HTTP/1.0`.
    pub version: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, `Content-Length` bytes long.
    pub body: Vec<u8>,
}

impl Request {
    /// First header with `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Does the connection end after this exchange? HTTP/1.1 keeps it
    /// unless the client sends the `close` option; HTTP/1.0 closes it
    /// unless the client sends `keep-alive` (RFC 9112 §9.3). `Connection`
    /// is a comma-separated list of case-insensitive options, possibly
    /// over several field lines (RFC 9110 §7.6.1, §5.3).
    pub fn wants_close(&self) -> bool {
        let says = |option: &str| {
            self.headers
                .iter()
                .filter(|(k, _)| k.eq_ignore_ascii_case("connection"))
                .flat_map(|(_, v)| v.split(','))
                .any(|token| token.trim().eq_ignore_ascii_case(option))
        };
        says("close") || (self.version == "HTTP/1.0" && !says("keep-alive"))
    }
}

/// Why [`Connection::read_request`] returned without a request.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF on a request boundary — the client hung up, nothing to
    /// answer.
    Closed,
    /// The read timed out. Partial bytes (if any) stay buffered for the
    /// next call. `started` is when the first byte of the pending
    /// request arrived (`None` while idle between requests).
    Idle {
        /// Arrival time of the pending partial request, if any.
        started: Option<Instant>,
    },
    /// `Content-Length` exceeds the configured cap. Answer 413 and
    /// close without reading the body.
    BodyTooLarge(usize),
    /// The head exceeded [`MAX_HEAD_BYTES`] or failed to parse. Answer
    /// 400 and close.
    Malformed(String),
    /// The socket failed mid-read.
    Io(io::Error),
}

/// One client connection: the stream plus whatever bytes arrived ahead
/// of parsing. Per-connection server state (prepared statements) lives
/// in [`crate::server`]'s connection thread, so this layer stays
/// protocol-only.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    peer: SocketAddr,
    /// Bytes received but not yet consumed by a parse.
    buf: Vec<u8>,
    /// When the first byte of the currently-pending request arrived.
    request_started: Option<Instant>,
    /// When the connection last completed a request (or was accepted).
    pub last_active: Instant,
}

impl Connection {
    /// Wrap an accepted stream. Its read timeout, if any, is how often
    /// [`Connection::read_request`] returns [`ReadError::Idle`].
    pub fn new(stream: TcpStream, peer: SocketAddr) -> Connection {
        Connection {
            stream,
            peer,
            buf: Vec::new(),
            request_started: None,
            last_active: Instant::now(),
        }
    }

    /// The client's address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Try to read one complete request. Returns [`ReadError::Idle`]
    /// when the socket's read timeout expires first — the connection
    /// stays valid and buffered bytes are kept for the next attempt.
    pub fn read_request(&mut self, max_body: usize) -> Result<Request, ReadError> {
        loop {
            if let Some(head_end) = find_head_end(&self.buf) {
                return self.finish_request(head_end, max_body);
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(ReadError::Malformed("request head too large".into()));
            }
            self.fill()?;
        }
    }

    /// One `read()` into the buffer, mapping timeouts and EOF.
    fn fill(&mut self) -> Result<(), ReadError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() {
                    Err(ReadError::Closed)
                } else {
                    Err(ReadError::Malformed("connection closed mid-request".into()))
                }
            }
            Ok(n) => {
                self.request_started.get_or_insert_with(Instant::now);
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(ReadError::Idle {
                    started: self.request_started,
                })
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(ReadError::Io(e)),
        }
    }

    /// The head is complete at `head_end`; parse it and read the body.
    fn finish_request(&mut self, head_end: usize, max_body: usize) -> Result<Request, ReadError> {
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| ReadError::Malformed("head is not UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => {
                (m.to_string(), p.to_string(), v.to_string())
            }
            _ => {
                return Err(ReadError::Malformed(format!(
                    "bad request line {request_line:?}"
                )))
            }
        };
        if version != "HTTP/1.1" && version != "HTTP/1.0" {
            return Err(ReadError::Malformed(format!("bad version {version:?}")));
        }
        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(ReadError::Malformed(format!("bad header line {line:?}")));
            };
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let content_length = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| {
                v.parse::<usize>()
                    .map_err(|_| ReadError::Malformed(format!("bad Content-Length {v:?}")))
            })
            .transpose()?
            .unwrap_or(0);
        if content_length > max_body {
            // Leave the unread body on the socket; the caller answers
            // 413 and closes, so it never needs to be drained.
            return Err(ReadError::BodyTooLarge(content_length));
        }

        let body_start = head_end + 4; // past the \r\n\r\n
        while self.buf.len() < body_start + content_length {
            self.fill()?;
        }
        let body = self.buf[body_start..body_start + content_length].to_vec();
        // Keep any pipelined bytes for the next request, whose clock
        // starts now if some of it is already here.
        self.buf.drain(..body_start + content_length);
        self.last_active = Instant::now();
        self.request_started = (!self.buf.is_empty()).then_some(self.last_active);
        Ok(Request {
            method,
            path,
            version,
            headers,
            body,
        })
    }

    /// Write `response` and flush. An error here means the client went
    /// away; the caller drops the connection.
    pub fn write_response(&mut self, response: &Response) -> io::Result<()> {
        let mut wire = Vec::with_capacity(response.body.len() + 256);
        response.encode(&mut wire);
        self.stream.write_all(&wire)?;
        self.stream.flush()
    }
}

/// Offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response, ready to encode.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`.
    pub headers: Vec<(String, String)>,
    /// The body (always JSON in this service).
    pub body: Vec<u8>,
    /// Advertise and perform `Connection: close` after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            close: false,
        }
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(
            format!("HTTP/1.1 {} {}\r\n", self.status, status_text(self.status)).as_bytes(),
        );
        out.extend_from_slice(b"Content-Type: application/json\r\n");
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        for (name, value) in &self.headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(if self.close {
            b"Connection: close\r\n"
        } else {
            b"Connection: keep-alive\r\n"
        });
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
    }
}

/// Reason phrase for the status codes this service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// A connected (client, server-side Connection) pair over loopback.
    fn pair() -> (TcpStream, Connection) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (stream, peer) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        (client, Connection::new(stream, peer))
    }

    #[test]
    fn parses_a_request_split_across_writes() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"POST /query HTTP/1.1\r\nContent-Le")
            .unwrap();
        // First attempt times out with the head incomplete.
        assert!(matches!(
            conn.read_request(1024),
            Err(ReadError::Idle { started: Some(_) })
        ));
        client
            .write_all(b"ngth: 5\r\nX-Client-Id: t1\r\n\r\nhello")
            .unwrap();
        let req = conn.read_request(1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.header("x-client-id"), Some("t1"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    fn request(version: &str, connection: &str) -> Request {
        Request {
            method: "GET".into(),
            path: "/healthz".into(),
            version: version.into(),
            headers: vec![("Connection".into(), connection.into())],
            body: Vec::new(),
        }
    }

    #[test]
    fn close_is_an_option_in_a_connection_list() {
        assert!(request("HTTP/1.1", "TE, close").wants_close());
        assert!(request("HTTP/1.1", "Close").wants_close());
        assert!(!request("HTTP/1.1", "TE, closed").wants_close());
    }

    #[test]
    fn keep_alive_is_an_option_in_a_connection_list() {
        assert!(!request("HTTP/1.0", "Keep-Alive, TE").wants_close());
        assert!(!request("HTTP/1.0", " keep-alive ").wants_close());
        assert!(request("HTTP/1.0", "TE").wants_close());
    }

    #[test]
    fn pipelined_requests_stay_buffered() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n")
            .unwrap();
        assert_eq!(conn.read_request(1024).unwrap().path, "/healthz");
        assert_eq!(conn.read_request(1024).unwrap().path, "/stats");
    }

    #[test]
    fn a_partial_pipelined_request_is_on_the_clock() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET /sta")
            .unwrap();
        assert_eq!(conn.read_request(1024).unwrap().path, "/healthz");
        assert!(matches!(
            conn.read_request(1024),
            Err(ReadError::Idle { started: Some(_) })
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_before_the_read() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
            .unwrap();
        assert!(matches!(
            conn.read_request(1024),
            Err(ReadError::BodyTooLarge(999999))
        ));
    }

    #[test]
    fn eof_is_closed_on_a_boundary_and_malformed_mid_request() {
        let (client, mut conn) = pair();
        drop(client);
        assert!(matches!(conn.read_request(1024), Err(ReadError::Closed)));

        let (mut client, mut conn) = pair();
        client.write_all(b"GET /hea").unwrap();
        drop(client);
        assert!(matches!(
            conn.read_request(1024),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn garbage_request_lines_are_malformed() {
        for garbage in [
            "NOT-HTTP\r\n\r\n",
            "GET missing-slash HTTP/1.1\r\n\r\n",
            "GET / HTTP/3\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
        ] {
            let (mut client, mut conn) = pair();
            client.write_all(garbage.as_bytes()).unwrap();
            assert!(
                matches!(conn.read_request(1024), Err(ReadError::Malformed(_))),
                "{garbage:?}"
            );
        }
    }

    #[test]
    fn responses_encode_with_length_and_connection_headers() {
        let mut resp = Response::json(429, "{}").with_header("Retry-After", "2");
        resp.close = true;
        let mut wire = Vec::new();
        resp.encode(&mut wire);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
