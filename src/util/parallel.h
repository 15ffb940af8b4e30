// Minimal data parallelism: a blocking parallel-for over an index range,
// executed on a persistent worker pool. Used for the M independent
// reward queries of a PoisonRec training step and for the row
// partitions of the GEMM kernels in src/nn/kernels.cc.
//
// The pool is process-global and lazily grown: the first ParallelFor
// that wants N-way execution spawns up to N-1 helper threads which then
// stay parked for later calls, so steady-state training pays no
// thread-spawn cost per step (the old implementation spawned and joined
// fresh threads on every call).
#ifndef POISONREC_UTIL_PARALLEL_H_
#define POISONREC_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace poisonrec {

/// Runs fn(0) .. fn(count-1), splitting indices across up to
/// `num_threads` workers (0 = hardware concurrency). Blocks until every
/// call returns. Falls back to the calling thread when count <= 1 or one
/// thread is requested. fn must be safe to invoke concurrently for
/// distinct indices.
///
/// The calling thread always participates in the work, so progress is
/// guaranteed even if no helper thread is available. Nested ParallelFor
/// calls issued from inside a worker run inline on that worker (no
/// re-entrant pool submission), which keeps e.g. a threaded GEMM inside
/// a parallel episode rollout deadlock-free.
///
/// If fn throws, remaining indices are abandoned and the first exception
/// is rethrown on the calling thread after all participants have
/// finished. The pool stays usable afterwards.
void ParallelFor(std::size_t count, std::size_t num_threads,
                 const std::function<void(std::size_t)>& fn);

/// True while the current thread is executing inside a ParallelFor —
/// as a pool helper or as the submitting thread participating in its
/// own job. Nested ParallelFor calls run inline in that case.
bool InParallelWorker();

namespace internal {
/// Number of helper threads currently parked in the global pool
/// (diagnostics / tests only).
std::size_t PoolThreadCount();
}  // namespace internal

}  // namespace poisonrec

#endif  // POISONREC_UTIL_PARALLEL_H_
