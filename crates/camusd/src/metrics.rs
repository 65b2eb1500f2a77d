//! Minimal HTTP/1.1 server for the Prometheus `/metrics` endpoint.
//!
//! One thread, nonblocking accepts, one request per connection
//! (`Connection: close`). The exposition body is the existing
//! [`camus_telemetry::render_prometheus`] renderer over the control
//! thread's live [`OpsView`](crate::OpsView) — control-plane spans and
//! submitted-packet counts are available continuously; worker-side
//! histograms only merge in at engine `finish`, so they render as
//! empty families until then (Prometheus treats that as zero, which is
//! honest for a live scrape). Daemon-specific `camusd_*` families are
//! appended after the shared ones.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use camus_telemetry::{render_prometheus, TelemetrySnapshot};

use crate::Shared;

pub(crate) fn serve(listener: TcpListener, shared: Arc<Shared>) {
    while shared.running.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((conn, _)) => handle(conn, &shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
}

fn handle(mut conn: std::net::TcpStream, shared: &Shared) {
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
        b"/metrics" => ("200 OK", render(shared)),
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

/// Builds the full exposition text from the live ops view.
fn render(shared: &Shared) -> String {
    let ops = match shared.ops.lock() {
        Ok(guard) => guard.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    };
    let mut snap = TelemetrySnapshot::new(ops.workers as usize);
    snap.packets = ops.packets;
    snap.spans = ops.spans.clone();
    let mut body = render_prometheus(&snap);

    let uptime = shared.started.elapsed().as_secs_f64();
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
        shared.rpcs.load(Ordering::Relaxed),
    );
    gauge(
        &mut body,
        "camusd_bus_clients",
        "Bus clients currently connected.",
        shared.clients.load(Ordering::Relaxed) as f64,
    );
    counter(
        &mut body,
        "camusd_epochs_total",
        "apply_update epochs published for bus mutations.",
        ops.bus.epochs,
    );
    counter(
        &mut body,
        "camusd_mutations_applied_total",
        "Rules applied by accepted subscribe/unsubscribe RPCs.",
        ops.bus.mutations_applied,
    );
    counter(
        &mut body,
        "camusd_mutations_rejected_total",
        "Subscribe/unsubscribe RPCs rejected (parse, compile, admission, update).",
        ops.bus.mutations_rejected,
    );
    counter(
        &mut body,
        "camusd_mutations_coalesced_total",
        "Mutation RPCs that shared their epoch with at least one other request.",
        ops.bus.requests_coalesced,
    );
    counter(
        &mut body,
        "camusd_feed_packets_total",
        "Packets submitted by the internal replay feed.",
        ops.feed_packets,
    );
    gauge(
        &mut body,
        "camusd_active_subscriptions",
        "Currently installed subscription rules.",
        ops.active_rules as f64,
    );
    gauge(
        &mut body,
        "camusd_generation",
        "Published RCU pipeline generation.",
        ops.generation as f64,
    );
    gauge(
        &mut body,
        "camusd_uptime_seconds",
        "Seconds since the daemon started.",
        uptime,
    );
    body
}
