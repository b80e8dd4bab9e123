#include "util/thread_pool.h"

#include <cassert>
#include <exception>

#include "util/logging.h"

namespace metro {

ThreadPool::ThreadPool(std::size_t num_threads) : tasks_(1 << 16) {
  assert(num_threads >= 1);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::WorkerLoop() {
  // A throwing task must never escape the jthread — an uncaught exception
  // on a worker calls std::terminate and takes the whole process down. The
  // failure is counted and logged; the worker keeps draining the queue.
  while (auto task = tasks_.Pop()) {
    try {
      (*task)();
    } catch (const std::exception& e) {
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
      METRO_LOG(kWarning) << "thread pool task threw: " << e.what();
    } catch (...) {
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
      METRO_LOG(kWarning) << "thread pool task threw a non-std exception";
    }
  }
}

Status ThreadPool::Submit(std::function<void()> task) {
  return tasks_.Push(std::move(task));
}

void ThreadPool::Shutdown() {
  tasks_.Close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

}  // namespace metro
