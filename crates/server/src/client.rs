//! A minimal blocking keep-alive HTTP/1.1 client — just enough to
//! exercise the server from the integration tests and the closed-loop
//! load generator without pulling in an HTTP dependency.
//!
//! One [`HttpClient`] is one TCP connection; requests on it are
//! serialized (which is exactly what a closed-loop load generator
//! wants). Responses are read to `Content-Length`, so the connection
//! stays usable for the next request.

use crate::json::{Json, JsonError};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs.
    pub headers: Vec<(String, String)>,
    /// The body as text (this API only speaks JSON).
    pub body: String,
}

impl HttpResponse {
    /// First header with `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Parse the body as JSON.
    pub fn json(&self) -> Result<Json, JsonError> {
        Json::parse(&self.body)
    }
}

/// A keep-alive connection to the server.
#[derive(Debug)]
pub struct HttpClient {
    stream: TcpStream,
    /// Response bytes read past the previous message.
    buf: Vec<u8>,
    /// Sent as `X-Client-Id` on every request when set (the rate
    /// limiter's identity).
    pub client_id: Option<String>,
}

impl HttpClient {
    /// Connect. No read timeout is set: callers wait for their answer
    /// (closed loop); use [`HttpClient::set_read_timeout`] otherwise.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
            client_id: None,
        })
    }

    /// Connect with a rate-limit identity.
    pub fn connect_as(addr: impl ToSocketAddrs, client_id: &str) -> io::Result<HttpClient> {
        let mut client = HttpClient::connect(addr)?;
        client.client_id = Some(client_id.to_string());
        Ok(client)
    }

    /// Bound how long [`HttpClient::request`] waits for a response.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", path, Some(body))
    }

    /// One request/response exchange.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        let mut wire = format!("{method} {path} HTTP/1.1\r\nHost: staccato\r\n");
        if let Some(id) = &self.client_id {
            wire.push_str(&format!("X-Client-Id: {id}\r\n"));
        }
        let body = body.unwrap_or("");
        wire.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        self.stream.write_all(wire.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad_data("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad_data(format!("bad status line {status_line:?}")))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|line| line.split_once(':'))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        let content_length = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .ok_or_else(|| bad_data("response has no Content-Length"))?;

        let body_start = head_end + 4;
        while self.buf.len() < body_start + content_length {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .map_err(|_| bad_data("response body is not UTF-8"))?;
        self.buf.drain(..body_start + content_length);
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}
