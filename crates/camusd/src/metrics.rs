//! Minimal HTTP/1.1 server for the Prometheus `/metrics` endpoint.
//!
//! One thread, nonblocking accepts, one request per connection
//! (`Connection: close`). A scrape asks the control loop for its
//! [`Scrape`] over the control queue, the way a bus `Stats` request
//! gets its frame, and renders it here with the existing
//! [`camus_telemetry::render_prometheus`] renderer: control-plane spans
//! and submitted-packet counts are available continuously; worker-side
//! histograms only merge in at engine `finish`, so they render as empty
//! families until then (Prometheus treats that as zero, which is honest
//! for a live scrape). Daemon-specific `camusd_*` families are appended
//! after the shared ones.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use camus_bus::StatsFrame;
use camus_telemetry::{render_prometheus, SpanSet, TelemetrySnapshot};

use crate::{Ctl, Shared};

/// What one scrape reads, built on the control thread: the bus `Stats`
/// frame, the engine's control spans and the internal feed's count.
pub(crate) struct Scrape {
    pub stats: StatsFrame,
    pub spans: SpanSet,
    pub feed_packets: u64,
}

pub(crate) fn serve(listener: TcpListener, tx: mpsc::Sender<Ctl>, shared: Arc<Shared>) {
    while shared.running.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((conn, _)) => handle(conn, &tx),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

fn handle(mut conn: std::net::TcpStream, tx: &mpsc::Sender<Ctl>) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(500)));
    // Read the request head (we only need the request line; scrapers
    // send no body).
    let mut buf = [0u8; 2048];
    let mut head = Vec::new();
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request_line = head.split(|&b| b == b'\r').next().unwrap_or(b"");
    let path = request_line
        .split(|&b| b == b' ')
        .nth(1)
        .unwrap_or(b"")
        .to_vec();

    let (status, body) = match path.as_slice() {
        b"/metrics" => match scrape(tx) {
            Some(scrape) => ("200 OK", render(scrape)),
            None => ("503 Service Unavailable", "shutting down\n".to_string()),
        },
        b"/healthz" => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = conn.write_all(response.as_bytes());
}

/// Asks the control loop for a scrape; `None` once it has stopped.
fn scrape(tx: &mpsc::Sender<Ctl>) -> Option<Scrape> {
    let (reply, got) = mpsc::channel();
    tx.send(Ctl::Metrics { reply }).ok()?;
    got.recv().ok()
}

/// Builds the full exposition text from one scrape.
fn render(scrape: Scrape) -> String {
    let f = scrape.stats;
    let mut snap = TelemetrySnapshot::new(f.workers as usize);
    snap.packets = f.packets;
    snap.spans = scrape.spans;
    let mut body = render_prometheus(&snap);

    let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
        ));
    };
    let counter = |out: &mut String, name: &str, help: &str, value: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
        ));
    };
    counter(
        &mut body,
        "camusd_bus_rpcs_total",
        "RPCs served on the control bus.",
        f.rpcs,
    );
    gauge(
        &mut body,
        "camusd_bus_clients",
        "Bus clients currently connected.",
        f.clients as f64,
    );
    counter(
        &mut body,
        "camusd_epochs_total",
        "apply_update epochs published for bus mutations.",
        f.epochs,
    );
    counter(
        &mut body,
        "camusd_mutations_applied_total",
        "Rules applied by accepted subscribe/unsubscribe RPCs.",
        f.mutations_applied,
    );
    counter(
        &mut body,
        "camusd_mutations_rejected_total",
        "Subscribe/unsubscribe RPCs rejected (parse, compile, admission, update).",
        f.mutations_rejected,
    );
    counter(
        &mut body,
        "camusd_mutations_coalesced_total",
        "Mutation RPCs that shared their epoch with at least one other request.",
        f.requests_coalesced,
    );
    counter(
        &mut body,
        "camusd_feed_packets_total",
        "Packets submitted by the internal replay feed.",
        scrape.feed_packets,
    );
    gauge(
        &mut body,
        "camusd_active_subscriptions",
        "Currently installed subscription rules.",
        f.active_rules as f64,
    );
    gauge(
        &mut body,
        "camusd_generation",
        "Published RCU pipeline generation.",
        f.generation as f64,
    );
    gauge(
        &mut body,
        "camusd_uptime_seconds",
        "Seconds since the daemon started.",
        f.uptime_ms as f64 / 1e3,
    );
    body
}
