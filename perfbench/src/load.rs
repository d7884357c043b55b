//! The HTTP load generator: a closed loop over at most as many
//! connections as it is given.

use crate::gen::{Lane, Op};
use httpshim::HttpClient;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one request saw.
#[derive(Debug, Clone)]
pub struct Sample {
    /// HTTP status; 0 on a transport error.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// When it was written to the connection, from the loop's start.
    pub sent: Duration,
    /// When its response was read.
    pub done: Duration,
}

impl Sample {
    /// Latency from its send time.
    #[must_use]
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_sub(self.sent).as_secs_f64() * 1e3
    }
}

/// Send one operation and read its answer.
pub fn send(client: &mut HttpClient, op: &Op) -> (u16, String) {
    let headers: &[(&str, &str)] = match op.lane {
        Lane::Crawl => &[("x-sigma-lane", "crawl")],
        Lane::Interactive => &[],
    };
    match client.post_json(op.endpoint.path(), &op.body, headers) {
        Ok(resp) => (
            resp.status,
            String::from_utf8_lossy(&resp.body).into_owned(),
        ),
        Err(_) => (0, String::new()),
    }
}

/// Closed loop: every connection sends its next operation as soon as
/// its previous one is answered. Returns the samples in operation order
/// and the loop's wall time.
pub fn closed_loop(clients: &mut [HttpClient], ops: &[Op]) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let samples: Vec<Mutex<Option<Sample>>> = ops.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, samples) = (&next, &samples);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(op) = ops.get(i) else { break };
                let sent = start.elapsed();
                let (status, body) = send(client, op);
                let done = start.elapsed();
                *samples[i].lock().expect("no sender panics holding a slot") = Some(Sample {
                    status,
                    body,
                    sent,
                    done,
                });
            });
        }
    });
    let elapsed = start.elapsed();
    let samples = samples
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no sender panics holding a slot")
                .expect("every operation was sent")
        })
        .collect();
    (samples, elapsed)
}
