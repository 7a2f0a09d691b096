#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace cbs::harness {

/// A small persistent pool that runs a fixed set of indexed tasks side by
/// side: `run(n, task)` calls `task(i)` once for every i in [0, n), with
/// the calling thread taking tasks too, and returns when all have finished.
///
///  - Workers are started once, in the constructor, and block on a
///    condition variable between calls; they never spin.
///  - A task's exception never leaves its worker. `run` waits for every
///    task, then rethrows the exception of the lowest index that threw.
///  - With zero workers `run` is the plain serial loop: tasks run in index
///    order on the caller, and the first exception propagates at once.
///  - Calls to `run` on one pool are serialized, so two threads may share
///    a pool; tasks must not call `run` on their own pool.
///
/// Which thread runs which task is not fixed, so a task's result must
/// depend only on its index and on state no other task writes.
class TaskPool {
 public:
  explicit TaskPool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this] { work(); });
    }
  }

  ~TaskPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return threads_.size(); }

  template <typename Task>
  void run(std::size_t n, Task& task) {
    if (threads_.empty()) {
      for (std::size_t i = 0; i < n; ++i) task(i);
      return;
    }
    const std::lock_guard<std::mutex> serial(run_mutex_);
    errors_.assign(n, nullptr);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      task_ = &task;
      invoke_ = [](void* t, std::size_t i) { (*static_cast<Task*>(t))(i); };
      count_ = n;
      next_ = 0;
      unfinished_ = n;
    }
    wake_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    drain(lock);
    done_.wait(lock, [this] { return unfinished_ == 0; });
    task_ = nullptr;
    lock.unlock();
    for (const std::exception_ptr& error : errors_) {
      if (error) std::rethrow_exception(error);
    }
  }

 private:
  /// Claims and runs tasks of the current call until none is left. Called
  /// with `lock` held; returns with it held.
  void drain(std::unique_lock<std::mutex>& lock) {
    while (next_ < count_) {
      const std::size_t i = next_++;
      lock.unlock();
      try {
        invoke_(task_, i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
      lock.lock();
      if (--unfinished_ == 0) done_.notify_one();
    }
  }

  void work() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      wake_.wait(lock, [this] { return stop_ || next_ < count_; });
      if (stop_) return;
      drain(lock);
    }
  }

  std::vector<std::thread> threads_;
  std::mutex run_mutex_;  ///< serializes run() calls
  std::mutex mutex_;      ///< guards everything below
  std::condition_variable wake_;
  std::condition_variable done_;
  bool stop_ = false;
  void* task_ = nullptr;
  void (*invoke_)(void*, std::size_t) = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
  std::size_t unfinished_ = 0;
  /// One slot per task; each written only by the thread that ran the task,
  /// read by run() after every task has finished.
  std::vector<std::exception_ptr> errors_;
};

}  // namespace cbs::harness
