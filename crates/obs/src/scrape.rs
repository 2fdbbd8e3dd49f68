//! The scrape endpoint: a non-blocking TCP listener serving the
//! plain-text exposition.
//!
//! Deliberately not a general HTTP server: every connection gets one
//! `200 OK` with the current exposition and is closed, whatever it asked
//! for. The listener is polled from the node's own service loop — no
//! extra thread, no reactor registration — so a node that is busy
//! serving queries answers scrapes between poll rounds, and an idle node
//! answers them on its idle-wait cadence.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use grouting_metrics::{log_debug, log_warn};

/// How long one scrape connection may hold the service loop. Scrapers
/// that feed slower than this get a truncated response rather than a
/// stalled cluster.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_millis(100);

/// A bound, non-blocking exposition listener.
#[derive(Debug)]
pub struct ScrapeServer {
    listener: TcpListener,
}

impl ScrapeServer {
    /// Binds `addr` (`host:port`; port 0 picks an ephemeral port) and
    /// switches the listener to non-blocking accepts.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self { listener })
    }

    /// Accepts and answers every pending scrape. `render` is called once
    /// per poll that found at least one connection, so an idle endpoint
    /// costs one failed `accept` and no rendering.
    pub fn poll(&mut self, render: impl FnOnce() -> String) {
        let mut render = Some(render);
        let mut body: Option<String> = None;
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let text = body.get_or_insert_with(|| render.take().expect("rendered once")());
                    log_debug!("serving scrape to {peer}");
                    Self::serve(stream, text);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    log_warn!("scrape accept failed: {e}");
                    return;
                }
            }
        }
    }

    fn serve(mut stream: TcpStream, body: &str) {
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(SCRAPE_IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT));
        // Drain whatever request line arrived (best-effort; the response
        // is the same for every path).
        let mut req = [0u8; 1024];
        let _ = stream.read(&mut req);
        let header = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream
            .write_all(header.as_bytes())
            .and_then(|()| stream.write_all(body.as_bytes()));
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    fn scrape_once(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_the_rendered_body_per_connection() {
        let mut server = match ScrapeServer::bind("127.0.0.1:0") {
            Ok(s) => s,
            // Sandboxes without loopback sockets skip this test the same
            // way the wire tests do.
            Err(_) => return,
        };
        assert_ne!(server.listener.local_addr().unwrap().port(), 0);

        // No pending connection: render must not run.
        server.poll(|| panic!("rendered without a connection"));

        let addr = server.listener.local_addr().unwrap();
        let client = std::thread::spawn(move || scrape_once(addr, "GET /metrics HTTP/1.1\r\n\r\n"));
        // Poll until the connection lands (the client races our accept).
        let mut served = false;
        for _ in 0..200 {
            let mut rendered = false;
            server.poll(|| {
                rendered = true;
                "grouting_up 1\n".to_string()
            });
            if rendered {
                served = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(served, "scrape connection never arrived");
        let response = client.join().unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain"));
        assert!(response.ends_with("grouting_up 1\n"), "{response}");
    }
}
