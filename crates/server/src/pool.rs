//! The serve loop: one bounded admission queue, admitted through
//! [`TrafficShaper::admit`], and one fixed set of worker threads over
//! a customer's long-lived [`AnnotationService`]. The HTTP server and
//! the load lab's in-process driver both serve through a
//! [`WorkerPool`], so the queueing, shedding, panic containment and
//! drain the load lab measures are what the server ships.

use sigmatyper::service::{AnnotationService, BoundedQueue, QueueRejection, TrafficLane};
use sigmatyper::tenant::{TenantId, TrafficShaper};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

/// What a job runs on its worker, given the read-locked service and
/// the shaper.
type Run<R> = Box<dyn FnOnce(&AnnotationService, &TrafficShaper) -> R + Send>;

/// An admitted job and the channel its submitter blocks on (`None`
/// when the run panicked).
struct Job<R> {
    run: Run<R>,
    reply: mpsc::Sender<Option<R>>,
}

struct Shared<R> {
    /// The customer's one long-lived service: jobs run under the read
    /// lock, adaptation takes the write lock.
    service: RwLock<AnnotationService>,
    /// Lane ledgers, lane/tenant counters and the tenant registry:
    /// every admission and budget decision flows through here.
    shaper: TrafficShaper,
    queue: BoundedQueue<Job<R>>,
    in_flight: AtomicUsize,
    /// Jobs whose run panicked: with the lanes' served and shed counts
    /// this accounts for every arrival.
    panics: AtomicU64,
}

impl<R> Shared<R> {
    fn service(&self) -> RwLockReadGuard<'_, AnnotationService> {
        self.service.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed pool of worker threads serving one [`AnnotationService`]
/// behind a bounded admission queue. Each job runs once, under the
/// service's read lock; one that panics costs only itself: its
/// submitter gets `None`, the pool counts the panic, and the worker
/// pops the next job. Jobs answer with an `R`.
pub struct WorkerPool<R> {
    shared: Arc<Shared<R>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    worker_count: usize,
}

impl<R: Send + 'static> WorkerPool<R> {
    /// Start `workers` threads (at least one) over `service`, admitting
    /// at most `queue_capacity` waiting jobs through `shaper`. Each job
    /// runs on the service's own thread budget
    /// ([`AnnotationService::threads`]; the machine's cores unless its
    /// owner set it), so a served single gets that whole budget for its
    /// columns whatever the worker count.
    #[must_use]
    pub fn start(
        service: AnnotationService,
        shaper: TrafficShaper,
        workers: usize,
        queue_capacity: usize,
    ) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            service: RwLock::new(service),
            shaper,
            queue: BoundedQueue::new(queue_capacity),
            in_flight: AtomicUsize::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("annotate-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(handles),
            worker_count: workers,
        }
    }

    /// Admit `run` for `tenant` on `lane` and block until a worker has
    /// run it: `Ok(Some(answer))` once it ran, `Ok(None)` when it
    /// panicked, `Err` when admission shed it (see
    /// [`TrafficShaper::admit`]).
    pub fn submit(
        &self,
        lane: TrafficLane,
        tenant: TenantId,
        run: impl FnOnce(&AnnotationService, &TrafficShaper) -> R + Send + 'static,
    ) -> Result<Option<R>, QueueRejection> {
        let (reply, answer) = mpsc::channel();
        let job = Job {
            run: Box::new(run),
            reply,
        };
        self.shared
            .shaper
            .admit(&self.shared.queue, lane, tenant, job)?;
        Ok(answer.recv().ok().flatten())
    }
}

impl<R> WorkerPool<R> {
    /// The service, read-locked.
    pub fn service(&self) -> RwLockReadGuard<'_, AnnotationService> {
        self.shared.service()
    }

    /// The service, write-locked: waits for running jobs to finish,
    /// and holds every worker off until it is dropped.
    pub fn service_mut(&self) -> RwLockWriteGuard<'_, AnnotationService> {
        self.shared
            .service
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The shaper every admission and budget decision goes through.
    #[must_use]
    pub fn shaper(&self) -> &TrafficShaper {
        &self.shared.shaper
    }

    /// Worker threads the pool started with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// Jobs admitted and not yet popped by a worker.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The admission bound.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// Jobs a worker is running right now.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Jobs whose run panicked since the pool started.
    #[must_use]
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::SeqCst)
    }

    /// Refuse new jobs, let the workers drain every admitted one, and
    /// join them. Later submissions shed with
    /// [`QueueRejection::Closed`].
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<R> Drop for WorkerPool<R> {
    /// A pool dropped without [`shutdown`](WorkerPool::shutdown) — its
    /// owner unwinding, say — still drains and joins its workers.
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker: pop until the queue closes and drains, run, reply.
fn worker_loop<R>(shared: &Shared<R>) {
    while let Some(Job { run, reply }) = shared.queue.pop() {
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let answer = catch_unwind(AssertUnwindSafe(|| run(&shared.service(), &shared.shaper))).ok();
        if answer.is_none() {
            shared.panics.fetch_add(1, Ordering::SeqCst);
        }
        // Decrement before replying: a client that scrapes `/metrics`
        // right after its response must not see its own finished
        // request as still in flight.
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        let _ = reply.send(answer);
    }
}
