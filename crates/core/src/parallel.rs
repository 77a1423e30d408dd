//! Deterministic scoped worker pool for independent simulation runs.
//!
//! The experiment sweep is embarrassingly parallel: every figure/table run
//! (and every cell of an intra-experiment parameter grid, e.g. Fig. 9's
//! batch-size limits or Table 4's app × config matrix) constructs its own
//! [`crate::UvmSystem`] from its own seed and shares no mutable state with
//! its siblings. [`map`], reached through
//! [`RunCtx::map`](crate::runctl::RunCtx::map), fans such runs out across
//! `--jobs N` OS threads while keeping every observable artifact — stdout,
//! golden files, trace exports — **byte-identical** to the serial run:
//!
//! * each item keeps its own seeded RNG streams (seeds are data, not
//!   ambient state), so a run computes the same result on any thread;
//! * results are returned in *submission order*, so completion-order
//!   nondeterminism never leaks out;
//! * rendering/printing stays with the caller, after the join.

use std::sync::Mutex;

/// Apply `f` to every item on up to `workers` scoped threads and return
/// the results **in submission order**.
///
/// Workers claim items from a shared queue (so an expensive item does not
/// stall the queue behind it) and keep each result with its submitting
/// index; the results are placed by index after the join, so observable
/// order is independent of thread scheduling. With one worker this is a
/// plain serial loop with zero threading overhead.
///
/// A panic inside `f` propagates to the caller once all workers have
/// stopped, same as a serial loop.
pub(crate) fn map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if workers.min(n) <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops at the end of this statement, so
                        // `f` never runs under the queue lock.
                        let next = queue.lock().expect("worker pool queue poisoned").next();
                        let Some((i, item)) = next else { break done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("worker pool lost a result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runctl::RunCtx;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let serial = map(1, (0..64).collect(), |i: i32| i * i);
        let par = map(4, (0..64).collect(), |i: i32| i * i);
        assert_eq!(serial, par);
        assert_eq!(par[10], 100);
    }

    #[test]
    fn order_is_submission_not_completion() {
        // Make early items slow: a completion-ordered pool would return
        // them last.
        let out = map(4, (0..16).collect::<Vec<u64>>(), |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 4 * i));
            }
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_map_runs_inline() {
        let out = RunCtx::new(4).map((0..4).collect::<Vec<usize>>(), |ctx, i| {
            // Inside a worker the nested call must not spawn.
            assert_eq!(ctx.jobs(), 1);
            ctx.map((0..3).collect::<Vec<usize>>(), move |_, j| i * 10 + j)
        });
        assert_eq!(out[2], vec![20, 21, 22]);
        // A map that runs inline passes its budget down.
        let single = RunCtx::new(4).map(vec![()], |ctx, ()| ctx.jobs());
        assert_eq!(single, vec![4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = map(4, Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }
}
