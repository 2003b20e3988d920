//! The metrics endpoint serves one connection at a time; a client that
//! connects and sends nothing must cost the clients behind it a bounded
//! wait, not the endpoint.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn silent_client_does_not_stall_health() {
    let addr = svc::serve_metrics("127.0.0.1:0", Arc::new(obs::Registry::new(1))).unwrap();
    // `connect` returns once the handshake is done, so this socket is
    // ahead of the next one in the accept queue. It never sends a byte
    // and stays open until the test ends.
    let _silent = TcpStream::connect(addr).unwrap();

    let bound = 5 * svc::METRICS_IO_TIMEOUT;
    let started = Instant::now();
    let mut client = TcpStream::connect(addr).unwrap();
    client.set_read_timeout(Some(bound)).unwrap();
    client.write_all(b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    client
        .read_to_string(&mut response)
        .expect("/health must answer while another client holds its connection silent");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(started.elapsed() < bound, "answered after {:?}", started.elapsed());
}
