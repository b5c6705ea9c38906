// parallel.hpp — reusable parallel-execution layer for the whole flow.
//
// The ROADMAP north-star asks every hot path to scale with the hardware;
// this module is the shared substrate: a fixed thread pool (one per
// process, sized to the machine) plus `parallel_for`, the fork-join
// primitive the DSE sweep and the benches fan out on. Guarantees:
//
//  * deterministic results — `parallel_for(count, jobs, body)` invokes
//    `body(i)` exactly once for every i in [0, count); callers write into
//    pre-sized slot i, so the outcome is identical for any job count;
//  * exception propagation — the first failing index (lowest i) wins and
//    its exception is rethrown on the calling thread after all workers
//    drain; the DiagnosticEngine overload converts it into a structured
//    `core.parallel` diagnostic instead (the PR 1 contract);
//  * no nested deadlock — a `parallel_for` issued from inside a pool
//    worker degrades to serial execution on that worker, and the calling
//    thread always participates, so the loop makes progress even when
//    every pool thread is busy.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "diag/diag.hpp"

namespace uhcg::core {

/// Fixed pool of worker threads consuming a FIFO job queue. Workers live
/// for the pool's lifetime; jobs are type-erased `void()` tasks whose
/// completion (and exception) is observable through the returned future.
class ThreadPool {
public:
    /// 0 = one worker per hardware thread (at least one).
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t thread_count() const { return workers_.size(); }

    /// Enqueues a job; the future reports completion and rethrows anything
    /// the job threw.
    std::future<void> submit(std::function<void()> job);

    /// Enqueues a value-returning task.
    template <typename F>
    auto async(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> result = task->get_future();
        submit([task] { (*task)(); });
        return result;
    }

    /// The process-wide pool, created on first use and sized to the
    /// hardware. Shared by every `parallel_for` call site.
    static ThreadPool& shared();

    /// True on threads owned by any ThreadPool — `parallel_for` uses this
    /// to fall back to serial execution instead of deadlocking on nested
    /// fan-out.
    static bool inside_worker();

private:
    void work();

    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable ready_;
    bool stop_ = false;
};

/// Resolves a user-facing jobs knob: 0 = hardware_concurrency (at least 1).
std::size_t effective_jobs(std::size_t requested);

/// Invokes `body(i)` for every i in [0, count) across at most `jobs`
/// workers (0 = hardware). Blocks until every index completed; rethrows
/// the exception of the lowest failing index. Serial (and pool-free) when
/// jobs <= 1, count <= 1, or already inside a pool worker.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& body);

/// As above, but an escaped exception becomes an error diagnostic carrying
/// `code` in `engine` instead of propagating. Returns false when that
/// happened (some indices may not have run).
bool parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& body,
                  diag::DiagnosticEngine& engine,
                  std::string code = diag::codes::kCoreParallel);

}  // namespace uhcg::core
