//! Minimal HTTP/1.0 responder for Prometheus scrapes.
//!
//! One listener thread, connections handled inline — scrapes are rare
//! and tiny, so there is nothing to pool. `shutdown` connects to the
//! listener itself to unblock `accept`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::sync::lock;

/// Callback producing the current exposition body for each scrape.
pub type RenderFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Serves `GET /metrics` (any path, actually) as
/// `text/plain; version=0.0.4` over HTTP/1.0.
pub struct MetricsServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsServer({})", self.local_addr)
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts answering scrapes
    /// with whatever `render` returns at request time.
    pub fn serve(addr: impl ToSocketAddrs, render: RenderFn) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new().name("obs-scrape".into()).spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let _ = answer(stream, &render);
                    }
                }
            })?
        };
        Ok(MetricsServer { local_addr, shutdown, thread: Mutex::new(Some(thread)) })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the listener thread. Idempotent.
    pub fn shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock accept().
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = lock(&self.thread).take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn answer(mut stream: TcpStream, render: &RenderFn) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read the request head (bounded); we only care about the verb.
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    while head.len() < 8192 && !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        match stream.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => head.push(byte[0]),
            Err(_) => break,
        }
    }
    let (status, body) = if head.starts_with(b"GET ") {
        ("200 OK", render())
    } else {
        ("405 Method Not Allowed", String::from("GET only\n"))
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

/// Client-side helper: one `GET /metrics` against `addr`, returning
/// the response body. Used by smoke tests and examples (we have no
/// HTTP client crate; curl works the same way from a shell).
pub fn scrape(addr: &str, timeout: Duration) -> std::io::Result<String> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response
        .split_once("\r\n\r\n")
        .or_else(|| response.split_once("\n\n"))
        .map(|(_, b)| b.to_string())
        .unwrap_or(response);
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_and_scrapes_prometheus_text() {
        let server = MetricsServer::serve(
            "127.0.0.1:0",
            Arc::new(|| String::from("# TYPE up gauge\nup 1\n")),
        )
        .expect("binds");
        let body = scrape(&server.local_addr().to_string(), Duration::from_secs(2))
            .expect("scrape answers");
        assert_eq!(body, "# TYPE up gauge\nup 1\n");
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn rejects_non_get() {
        let server =
            MetricsServer::serve("127.0.0.1:0", Arc::new(|| String::from("x"))).expect("binds");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
        stream.write_all(b"POST /metrics HTTP/1.0\r\n\r\n").expect("writes");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("reads");
        assert!(response.starts_with("HTTP/1.0 405"), "{response}");
        server.shutdown();
    }
}
