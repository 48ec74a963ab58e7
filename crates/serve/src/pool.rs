//! The worker pool every serving path runs on.
//!
//! A [`WorkerPool`] is N named threads (`napmon-pool-w{i}`) draining one
//! FIFO job queue. A standalone [`MonitorEngine`](crate::MonitorEngine)
//! owns one; a registry owns one for all of its mounts; a wire server
//! runs its connection jobs on its backend's. Each worker holds one
//! [`QueryScratch`] for its whole life, so a job that submits a batch
//! serves the batch's unclaimed chunks itself on that scratch (see
//! [`with_serving_scratch`]) and only waits on chunks other workers are
//! already serving — no job ever waits on a job still queued.

use crate::engine::ServeError;
use napmon_core::QueryScratch;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// The serving scratch this thread holds: set for the life of a pool
    /// worker and for the extent of a [`with_serving_scratch`] call.
    static SCRATCH: RefCell<Option<QueryScratch>> = const { RefCell::new(None) };
}

/// A fixed set of worker threads sharing one FIFO job queue.
///
/// A panicking job is caught, so one tenant's faulty monitor cannot
/// shrink a pool other tenants share; its submitter sees the job's reply
/// channel close. Dropping the pool (or [`WorkerPool::shutdown`]) lets
/// the workers finish every queued job, then joins them.
pub struct WorkerPool {
    queue: Arc<Queue>,
    size: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

struct Queue {
    /// Pending jobs, and whether the pool is closed to new ones.
    jobs: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    /// Jobs submitted and not yet picked up by a worker.
    queued: AtomicUsize,
}

impl WorkerPool {
    /// Spawns `workers` threads (zero is treated as one).
    pub fn new(workers: usize) -> Self {
        let size = workers.max(1);
        let queue = Arc::new(Queue {
            jobs: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            queued: AtomicUsize::new(0),
        });
        let workers = (0..size)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("napmon-pool-w{i}"))
                    .spawn(move || {
                        SCRATCH.with(|slot| *slot.borrow_mut() = Some(QueryScratch::new()));
                        while let Some(job) = queue.next() {
                            let _ = catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            queue,
            size,
            workers: Mutex::new(workers),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.size
    }

    /// Jobs submitted and not yet picked up — the pool's backlog gauge.
    pub fn queued(&self) -> usize {
        self.queue.queued.load(Ordering::Relaxed)
    }

    /// Queues `job` for the next free worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShardDown`] once the pool is shut down; the job is
    /// dropped unrun.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), ServeError> {
        let mut pending = self.queue.lock();
        if pending.1 {
            return Err(ServeError::ShardDown);
        }
        pending.0.push_back(Box::new(job));
        self.queue.queued.fetch_add(1, Ordering::Relaxed);
        self.queue.ready.notify_one();
        Ok(())
    }

    /// Refuses new jobs, lets the workers finish every queued one, and
    /// joins them. Idempotent. Called from one of the pool's own workers
    /// (say, by a job dropping the last handle on its pool), it joins the
    /// others and leaves the caller to exit when its job returns.
    pub fn shutdown(&self) {
        self.queue.lock().1 = true;
        self.queue.ready.notify_all();
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        let me = std::thread::current().id();
        for worker in workers {
            if worker.thread().id() != me {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Queue {
    fn lock(&self) -> std::sync::MutexGuard<'_, (VecDeque<Job>, bool)> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next job, blocking while the queue is open and empty; `None`
    /// once it is closed and drained.
    fn next(&self) -> Option<Job> {
        let mut pending = self.lock();
        loop {
            if let Some(job) = pending.0.pop_front() {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                return Some(job);
            }
            if pending.1 {
                return None;
            }
            pending = self
                .ready
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `f` with a serving scratch installed on the calling thread, so
/// every engine submission inside `f` serves its unclaimed chunks on this
/// thread rather than waiting for a pool to reach them. For long-lived
/// threads outside any pool that serve verdicts and must not wait on one
/// (a registry's shadow mirror); pool workers hold a scratch already.
pub fn with_serving_scratch<R>(f: impl FnOnce() -> R) -> R {
    let previous = SCRATCH.with(|slot| slot.replace(Some(QueryScratch::new())));
    let out = f();
    SCRATCH.with(|slot| *slot.borrow_mut() = previous);
    out
}

/// Runs `f` on this thread's serving scratch; `None` when the thread
/// holds none (or it is already in use further up the stack).
pub(crate) fn on_serving_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> Option<R> {
    SCRATCH.with(|slot| {
        let mut slot = slot.try_borrow_mut().ok()?;
        slot.as_mut().map(f)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_shutdown_drains_the_queue() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap()).unwrap();
        }
        pool.shutdown();
        let mut got: Vec<i32> = rx.try_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert_eq!(pool.queued(), 0);
        assert!(matches!(pool.execute(|| {}), Err(ServeError::ShardDown)));
    }

    #[test]
    fn a_panicking_job_does_not_shrink_the_pool() {
        let pool = WorkerPool::new(1);
        for _ in 0..3 {
            pool.execute(|| panic!("synthetic job failure")).unwrap();
        }
        let (tx, rx) = mpsc::channel();
        pool.execute(move || tx.send(on_serving_scratch(|_| ()).is_some()).unwrap())
            .unwrap();
        assert!(rx.recv().unwrap(), "the surviving worker holds its scratch");
    }

    #[test]
    fn a_worker_may_drop_its_own_pool() {
        let pool = Arc::new(WorkerPool::new(2));
        let (tx, rx) = mpsc::channel();
        let inner = Arc::clone(&pool);
        pool.execute(move || {
            inner.shutdown();
            tx.send(()).unwrap();
        })
        .unwrap();
        rx.recv().unwrap();
        drop(pool);
    }

    #[test]
    fn serving_scratch_is_scoped() {
        assert!(on_serving_scratch(|_| ()).is_none());
        assert!(with_serving_scratch(|| on_serving_scratch(|_| ()).is_some()));
        assert!(on_serving_scratch(|_| ()).is_none());
    }
}
