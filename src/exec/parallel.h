#pragma once

#include <cstddef>
#include <functional>

#include "common/status.h"

namespace mood {

/// Worker-thread count used when the caller asks for "as many as the hardware
/// allows" (std::thread::hardware_concurrency, never less than 1).
size_t DefaultExecThreads();

/// Rows per batch (the default behind QueryOptions::batch_size). Whole batches
/// are the morsel unit: the scheduler hands workers batches, so per-task
/// dispatch and per-operator setup amortize over this many rows instead of one.
inline constexpr size_t kDefaultBatchRows = 1024;

/// Hard cap on a single batch's capacity: bounds the columnar scratch an
/// expression kernel pins per worker, and keeps pathological batch_size
/// requests from degenerating into one morsel per query.
inline constexpr size_t kMaxBatchRows = 1u << 16;

/// Normalizes a batch_size knob into [1, kMaxBatchRows]: 0 becomes 1.
size_t ClampBatchSize(size_t requested);

/// Runs `task(i)` for every i in [0, num_tasks) on up to `threads` workers.
/// Workers pull indexes from a shared cursor (morsel-driven scheduling: work
/// distribution adapts to per-morsel cost skew instead of pre-partitioning).
/// Operators pass one task per RowBatch (extent scans: one per page).
///
/// Error semantics are deterministic: if any tasks fail, the returned status is
/// the failure with the *smallest* task index — exactly the error an in-order
/// serial run would surface first. Tasks with indexes above an already-recorded
/// failure may be skipped (their results would be discarded anyway).
///
/// With threads <= 1 or num_tasks <= 1 the tasks run inline on the calling
/// thread, in order, stopping at the first failure.
Status ParallelFor(size_t threads, size_t num_tasks,
                   const std::function<Status(size_t)>& task);

}  // namespace mood
