//! A minimal blocking HTTP/1.1 client that drives the server from tests.
//! Speaks the same dialect the server does: `Content-Length` framing,
//! keep-alive by default.
//!
//! Shared by the integration tests (`mod client;`), the server's socket
//! unit tests and the root package's CLI tests (both by `#[path]`), so
//! each user leaves some methods uncalled.
#![allow(dead_code)]

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Lower-cased header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Response body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given (lower-case) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to the server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with 10-second read and write timeouts.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads the response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        // One write per request (see the matching note in Response::write).
        let frame = format!(
            "{method} {path} HTTP/1.1\r\nHost: impact-serve\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        );
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// `GET` returning just status and body.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        let resp = self.request("GET", path, None)?;
        Ok((resp.status, resp.body))
    }

    /// `POST` with a JSON body, returning the full response.
    pub fn post_json(&mut self, path: &str, json: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(json))
    }

    /// Reads one response off the connection.
    pub fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the status line",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line: {line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}
