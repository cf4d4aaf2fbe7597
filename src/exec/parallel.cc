#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

namespace mood {

size_t DefaultExecThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

size_t ClampBatchSize(size_t requested) {
  return std::clamp<size_t>(requested, 1, kMaxBatchRows);
}

Status ParallelFor(size_t threads, size_t num_tasks,
                   const std::function<Status(size_t)>& task) {
  if (threads <= 1 || num_tasks <= 1) {
    for (size_t i = 0; i < num_tasks; i++) MOOD_RETURN_IF_ERROR(task(i));
    return Status::OK();
  }

  std::atomic<size_t> cursor{0};
  // Smallest failing task index so far; workers skip tasks above it.
  std::atomic<size_t> first_error{num_tasks};
  std::mutex error_mu;
  Status error_status;  // status of the task at first_error; guarded by error_mu

  auto worker = [&] {
    for (;;) {
      size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_tasks) return;
      if (i > first_error.load(std::memory_order_acquire)) continue;
      Status st = task(i);
      if (st.ok()) continue;
      size_t prev = first_error.load(std::memory_order_relaxed);
      while (i < prev &&
             !first_error.compare_exchange_weak(prev, i, std::memory_order_release)) {
      }
      if (i <= prev) {
        std::lock_guard<std::mutex> lock(error_mu);
        // Re-check under the lock: another worker may have claimed a smaller
        // index between the CAS and here.
        if (i <= first_error.load(std::memory_order_relaxed)) error_status = st;
      }
    }
  };

  size_t spawn = std::min(threads, num_tasks) - 1;  // caller thread also works
  std::vector<std::thread> pool;
  pool.reserve(spawn);
  for (size_t t = 0; t < spawn; t++) pool.emplace_back(worker);
  worker();
  for (auto& th : pool) th.join();

  if (first_error.load(std::memory_order_acquire) < num_tasks) return error_status;
  return Status::OK();
}

}  // namespace mood
