#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "obs/obs.hpp"

namespace uhcg::core {
namespace {

thread_local bool t_inside_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
    threads = effective_jobs(threads);
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { work(); });
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    ready_.notify_all();
    for (std::thread& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
    std::packaged_task<void()> task(std::move(job));
    std::future<void> done = task.get_future();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    ready_.notify_one();
    return done;
}

void ThreadPool::work() {
    t_inside_worker = true;
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (stop_ && queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();  // a packaged_task captures exceptions in its future
    }
}

ThreadPool& ThreadPool::shared() {
    static ThreadPool pool;
    return pool;
}

bool ThreadPool::inside_worker() { return t_inside_worker; }

std::size_t effective_jobs(std::size_t requested) {
    if (requested > 0) return requested;
    std::size_t hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& body) {
    if (count == 0) return;
    jobs = std::min(effective_jobs(jobs), count);
    if (jobs <= 1 || ThreadPool::inside_worker()) {
        for (std::size_t i = 0; i < count; ++i) body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    std::size_t first_error_index = count;
    // Captured on the submitting thread so pool-worker spans join the
    // caller's subtree instead of appearing as detached roots.
    const obs::Context fan_out_parent =
        obs::enabled() ? obs::current_context() : obs::Context{};
    auto drain = [&] {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (i < first_error_index) {
                    first_error_index = i;
                    first_error = std::current_exception();
                }
            }
        }
    };
    auto drain_as_worker = [&] {
        obs::ScopedContext context(fan_out_parent);
        drain();
    };

    std::vector<std::future<void>> pending;
    pending.reserve(jobs - 1);
    for (std::size_t j = 1; j < jobs; ++j)
        pending.push_back(ThreadPool::shared().submit(drain_as_worker));
    // The caller participates: the loop completes even when every pool
    // thread is occupied elsewhere.
    drain();
    for (std::future<void>& f : pending) f.get();
    if (first_error) std::rethrow_exception(first_error);
}

bool parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& body,
                  diag::DiagnosticEngine& engine, std::string code) {
    try {
        parallel_for(count, jobs, body);
        return true;
    } catch (const std::exception& e) {
        engine.report(diag::Severity::Error, std::move(code),
                      std::string("parallel task failed: ") + e.what());
        return false;
    } catch (...) {
        engine.report(diag::Severity::Error, std::move(code),
                      "parallel task failed with a non-standard exception");
        return false;
    }
}

}  // namespace uhcg::core
