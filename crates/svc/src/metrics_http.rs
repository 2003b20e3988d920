//! The live metrics endpoint: `/metrics` (Prometheus text) and
//! `/health` (JSON) over a plain std listener.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wfcommon::{Error, Result};

/// How long one connection may take to send its request, and to accept
/// the response. Connections are served one at a time, so this is also
/// the longest a client that connects and then says nothing can delay
/// the clients behind it.
pub const METRICS_IO_TIMEOUT: Duration = Duration::from_secs(1);

/// Serve `/metrics` and `/health` from the live `registry` on `addr`
/// (port 0 picks a free one); returns the address bound. Runs detached
/// until process exit; each connection is one request-response
/// (`Connection: close`). A request is read with a single `read` into a
/// 1 KiB buffer; a client that sends none within
/// [`METRICS_IO_TIMEOUT`] is dropped unanswered.
pub fn serve_metrics(addr: &str, registry: Arc<obs::Registry>) -> Result<SocketAddr> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| Error::Config(format!("--metrics-listen {addr}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| Error::Config(format!("--metrics-listen {addr}: {e}")))?;
    let t0 = Instant::now();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            if stream.set_read_timeout(Some(METRICS_IO_TIMEOUT)).is_err()
                || stream.set_write_timeout(Some(METRICS_IO_TIMEOUT)).is_err()
            {
                continue;
            }
            let mut buf = [0u8; 1024];
            let Ok(n) = stream.read(&mut buf) else { continue };
            let request = String::from_utf8_lossy(&buf[..n]);
            let path = request.split_whitespace().nth(1).unwrap_or("/");
            let elapsed = t0.elapsed().as_secs_f64();
            let (status, ctype, body) = match path {
                "/metrics" => {
                    ("200 OK", "text/plain; version=0.0.4", registry.prometheus_text(elapsed))
                }
                "/health" | "/" => {
                    ("200 OK", "application/json", format!("{}\n", registry.health_json(elapsed)))
                }
                _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
            };
            let _ = write!(
                stream,
                "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
        }
    });
    Ok(bound)
}
