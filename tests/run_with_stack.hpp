// run_with_stack.hpp — runs a test body on a thread with a small stack.
#pragma once

#include <pthread.h>

#include <cstddef>
#include <functional>

namespace uhcg::test_support {

/// Runs `body` to completion on a thread whose stack is `stack_bytes`
/// long, so a test can show that a pass does not recurse once per input
/// element. Returns false when the thread could not be created.
inline bool run_with_stack(std::size_t stack_bytes, std::function<void()> body) {
    pthread_attr_t attr;
    if (pthread_attr_init(&attr) != 0) return false;
    bool started = pthread_attr_setstacksize(&attr, stack_bytes) == 0;
    pthread_t thread;
    if (started)
        started = pthread_create(
                      &thread, &attr,
                      [](void* arg) -> void* {
                          (*static_cast<std::function<void()>*>(arg))();
                          return nullptr;
                      },
                      &body) == 0;
    if (started) pthread_join(thread, nullptr);
    pthread_attr_destroy(&attr);
    return started;
}

}  // namespace uhcg::test_support
