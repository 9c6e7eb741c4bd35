#include "rainshine/serve/service.hpp"

#include <algorithm>

#include "rainshine/util/check.hpp"

namespace rainshine::serve {

namespace {

std::uint64_t us_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return us_between(since, std::chrono::steady_clock::now());
}

}  // namespace

std::string ServiceStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%llu req (%llu rejected, %llu failed, %llu expired), "
                "%llu rows in %llu "
                "batches (%llu full, %llu deadline, %llu idle), "
                "peak queue %llu rows, "
                "latency mean %.1fus max %lluus",
                static_cast<unsigned long long>(requests_admitted),
                static_cast<unsigned long long>(requests_rejected),
                static_cast<unsigned long long>(requests_failed),
                static_cast<unsigned long long>(requests_deadline_exceeded),
                static_cast<unsigned long long>(rows_scored),
                static_cast<unsigned long long>(batches_flushed),
                static_cast<unsigned long long>(full_flushes),
                static_cast<unsigned long long>(deadline_flushes),
                static_cast<unsigned long long>(idle_flushes),
                static_cast<unsigned long long>(peak_queue_rows),
                mean_latency_us(),
                static_cast<unsigned long long>(max_latency_us));
  return buf;
}

PredictionService::PredictionService(ModelArtifact artifact, ServiceConfig config)
    : meta_(std::move(artifact.meta)),
      forest_(std::move(artifact.forest)),
      config_(config) {
  util::require(forest_ != nullptr, "PredictionService needs a forest");
  util::require(!meta_.schema.empty(), "PredictionService needs a feature schema");
  util::require(config_.max_batch_rows > 0, "max_batch_rows must be positive");
  util::require(config_.max_queue_rows >= config_.max_batch_rows,
                "max_queue_rows must be at least max_batch_rows");
  obs::Registry& reg = obs::registry();
  obs_.admitted = &reg.counter("serve.requests_admitted");
  obs_.rejected = &reg.counter("serve.requests_rejected");
  obs_.stopped = &reg.counter("serve.requests_stopped");
  obs_.completed = &reg.counter("serve.requests_completed");
  obs_.failed = &reg.counter("serve.requests_failed");
  obs_.deadline_exceeded = &reg.counter("serve.deadline_exceeded");
  obs_.rows_scored = &reg.counter("serve.rows_scored");
  obs_.batches = &reg.counter("serve.batches_flushed");
  obs_.full_flushes = &reg.counter("serve.full_flushes");
  obs_.deadline_flushes = &reg.counter("serve.deadline_flushes");
  obs_.idle_flushes = &reg.counter("serve.idle_flushes");
  obs_.oversize = &reg.counter("serve.oversize_admitted");
  obs_.queue_depth = &reg.gauge("serve.queue_depth_rows");
  obs_.latency_us = &reg.histogram("serve.latency_us");
  obs_.batch_rows =
      &reg.histogram("serve.batch_rows", obs::default_size_buckets());
  obs_.queue_wait_us = &reg.histogram("serve.queue_wait_us");
  obs_.predict_us = &reg.histogram("serve.predict_us");
  dispatcher_ = std::thread([this] { run(); });
}

PredictionService::~PredictionService() {
  {
    std::unique_lock lock(mutex_);
    stop_ = true;
    work_ready_.notify_all();
    space_free_.notify_all();
    // Producers blocked in submit() wake, fail their promise with
    // service_stopped_error, and leave. Wait them out before joining: once
    // this returns, no producer will touch our members again.
    idle_.wait(lock, [&] { return blocked_enqueues_ == 0; });
  }
  dispatcher_.join();
}

std::future<std::vector<double>> PredictionService::enqueue(
    const table::Table& rows, bool blocking, Admission& outcome,
    Deadline deadline) {
  // Schema validation and dictionary re-encode happen here, in the caller's
  // thread: a bad table throws before touching the queue, and the dispatcher
  // only ever sees scoreable Datasets.
  Request req{make_scoring_dataset(rows, meta_.schema), {}, {}, 0, deadline};
  const std::size_t n = req.rows.num_rows();
  std::future<std::vector<double>> future = req.result.get_future();

  const auto expired = [&] {
    return deadline.has_value() && std::chrono::steady_clock::now() >= *deadline;
  };
  const auto fail_expired = [&](std::unique_lock<std::mutex>& lock) {
    // An already-dead request must never consume a queue slot or a batch
    // slot: count it (under the lock, so snapshots stay consistent), fail
    // the caller-held future, and keep latency_us count == completed.
    ++stats_.requests_deadline_exceeded;
    obs_.deadline_exceeded->add();
    outcome = Admission::kDeadlineExpired;
    lock.unlock();
    req.result.set_exception(std::make_exception_ptr(deadline_exceeded_error(
        "request deadline expired before the service could admit it")));
    return std::move(future);
  };

  std::unique_lock lock(mutex_);
  if (!stop_ && expired()) return fail_expired(lock);
  const auto has_room = [&] {
    return pending_rows_ == 0 || pending_rows_ + n <= config_.max_queue_rows;
  };
  if (!blocking && !stop_ && !has_room()) {
    ++stats_.requests_rejected;
    obs_.rejected->add();
    outcome = Admission::kRejected;
    return future;
  }
  if (blocking && !stop_) {
    // Guarded wait: the destructor counts us and will not tear down the
    // mutex/cv while we are inside (or on our way out of) this block.
    ++blocked_enqueues_;
    stats_.blocked_submits = blocked_enqueues_;
    bool admitted_in_time = true;
    if (deadline.has_value()) {
      // Backpressure respects the deadline: parking a caller past the moment
      // its answer stopped mattering just converts overload into zombies.
      admitted_in_time =
          space_free_.wait_until(lock, *deadline, [&] { return stop_ || has_room(); });
    } else {
      space_free_.wait(lock, [&] { return stop_ || has_room(); });
    }
    --blocked_enqueues_;
    stats_.blocked_submits = blocked_enqueues_;
    if (blocked_enqueues_ == 0) idle_.notify_all();  // under lock: cv outlives us
    if (!stop_ && !admitted_in_time) return fail_expired(lock);
  }
  if (stop_) {
    // Shutdown raced this submission. The promise is still local to this
    // frame, so fail it with a typed error — the caller's future resolves,
    // never abandons. Stats tick under the lock we already hold.
    ++stats_.requests_stopped;
    obs_.stopped->add();
    outcome = Admission::kStopped;
    lock.unlock();
    req.result.set_exception(std::make_exception_ptr(service_stopped_error(
        "PredictionService stopped before the request was admitted")));
    return future;
  }

  req.enqueued = std::chrono::steady_clock::now();
  req.sequence = ++next_sequence_;
  pending_.push_back(std::move(req));
  pending_rows_ += n;
  ++stats_.requests_admitted;
  obs_.admitted->add();
  if (n > config_.max_queue_rows) {
    // Admitted only because the queue was empty; worth counting — one such
    // request monopolizes the queue until scored.
    ++stats_.oversize_admitted;
    obs_.oversize->add();
  }
  stats_.queue_depth_rows = pending_rows_;
  obs_.queue_depth->set(static_cast<double>(pending_rows_));
  stats_.peak_queue_rows = std::max<std::uint64_t>(stats_.peak_queue_rows,
                                                   pending_rows_);
  outcome = Admission::kAdmitted;
  // Notify BEFORE releasing the mutex: once a formerly-blocked producer has
  // decremented blocked_enqueues_, the destructor may tear the service down
  // the moment we release — a notify after unlock would poke a dead cv.
  // Holding the lock blocks the destructor (it must acquire mutex_) until
  // this thread is provably done with the members.
  work_ready_.notify_all();
  lock.unlock();
  return future;
}

std::future<std::vector<double>> PredictionService::submit(const table::Table& rows,
                                                           Deadline deadline) {
  Admission outcome = Admission::kRejected;
  return enqueue(rows, /*blocking=*/true, outcome, deadline);
}

std::optional<std::future<std::vector<double>>> PredictionService::try_submit(
    const table::Table& rows, Deadline deadline) {
  Admission outcome = Admission::kRejected;
  auto future = enqueue(rows, /*blocking=*/false, outcome, deadline);
  // Backpressure is the only nullopt: it invites a retry. A stopped service
  // or an expired deadline hands back the pre-failed future — retrying those
  // here can never succeed.
  if (outcome == Admission::kRejected) return std::nullopt;
  return future;
}

std::vector<double> PredictionService::score(const table::Table& rows) {
  return submit(rows).get();
}

void PredictionService::flush() {
  std::unique_lock lock(mutex_);
  const std::uint64_t target = next_sequence_;
  flush_requested_ = true;
  work_ready_.notify_all();
  drained_.wait(lock, [&] { return completed_sequence_ >= target; });
  if (pending_.empty()) flush_requested_ = false;
}

ServiceStats PredictionService::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void PredictionService::run() {
  // Idle flush (no hold) skips the timed wait: the batch is whatever is
  // pending once this thread is free again.
  const bool hold = config_.max_batch_delay.count() > 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stop_) return;  // drained; nothing can arrive after stop_
      continue;
    }
    if (hold) {
      // Fixed hold: sleep until the oldest request has waited max_batch_delay
      // unless the batch fills (or a flush/stop forces the issue) first.
      const auto until = pending_.front().enqueued + config_.max_batch_delay;
      work_ready_.wait_until(lock, until, [&] {
        return stop_ || flush_requested_ ||
               pending_rows_ >= config_.max_batch_rows;
      });
      if (pending_.empty()) continue;  // a racing flush drained the queue
    }

    // Full flush: peel off max_batch_rows worth of requests; the remainder
    // keeps its place in line. Otherwise (hold expired, idle, drain) take
    // everything.
    const bool full = pending_rows_ >= config_.max_batch_rows;
    std::vector<Request> batch;
    std::size_t batch_rows = 0;
    const auto taken = std::chrono::steady_clock::now();
    while (!pending_.empty()) {
      if (full && !batch.empty() && batch_rows >= config_.max_batch_rows) break;
      Request& front = pending_.front();
      batch_rows += front.rows.num_rows();
      obs_.queue_wait_us->observe(
          static_cast<double>(us_between(front.enqueued, taken)));
      batch.push_back(std::move(front));
      pending_.pop_front();
    }
    pending_rows_ -= batch_rows;
    stats_.queue_depth_rows = pending_rows_;
    obs_.queue_depth->set(static_cast<double>(pending_rows_));
    ++stats_.batches_flushed;
    obs_.batches->add();
    obs_.batch_rows->observe(static_cast<double>(batch_rows));
    if (full) {
      ++stats_.full_flushes;
      obs_.full_flushes->add();
    } else if (hold) {
      ++stats_.deadline_flushes;
      obs_.deadline_flushes->add();
    } else {
      ++stats_.idle_flushes;
      obs_.idle_flushes->add();
    }
    lock.unlock();
    space_free_.notify_all();
    score_batch(std::move(batch));
    lock.lock();
    if (pending_.empty() && flush_requested_) flush_requested_ = false;
  }
}

void PredictionService::score_batch(std::vector<Request> batch) {
  for (Request& req : batch) {
    const std::size_t n = req.rows.num_rows();
    std::vector<double> result;
    std::exception_ptr error;
    std::uint64_t predict_us = 0;
    // A request whose deadline lapsed while it waited in the queue is failed,
    // not scored: the caller's budget is spent, and under overload the batch
    // slot is better given to a request someone is still waiting for.
    const bool expired =
        req.deadline.has_value() &&
        std::chrono::steady_clock::now() >= *req.deadline;
    if (expired) {
      error = std::make_exception_ptr(deadline_exceeded_error(
          "request deadline expired while queued; not scored"));
    } else {
      try {
        // Forest::predict fans the rows across the shared pool; its output is
        // bit-identical at any thread count and does not depend on what else
        // is in the batch, so batching is pure scheduling.
        const auto start = std::chrono::steady_clock::now();
        result = forest_->predict(req.rows);
        predict_us = elapsed_us(start);
      } catch (...) {
        error = std::current_exception();
      }
    }
    const std::uint64_t latency = elapsed_us(req.enqueued);
    {
      // Counters first, fulfillment second: a caller who has seen its future
      // resolve is guaranteed to find its request in the stats() snapshot —
      // and the obs latency histogram observe shares this critical section,
      // so snapshot consistency (histogram count == completed counter) holds
      // for the registry too.
      std::lock_guard lock(mutex_);
      if (expired) {
        ++stats_.requests_deadline_exceeded;
        obs_.deadline_exceeded->add();
      } else if (error == nullptr) {
        ++stats_.requests_completed;
        stats_.rows_scored += n;
        stats_.total_latency_us += latency;
        stats_.max_latency_us = std::max(stats_.max_latency_us, latency);
        obs_.completed->add();
        obs_.rows_scored->add(n);
        obs_.latency_us->observe(static_cast<double>(latency));
        obs_.predict_us->observe(static_cast<double>(predict_us));
      } else {
        ++stats_.requests_failed;
        obs_.failed->add();
      }
    }
    // Fulfillment must not be able to kill the dispatcher: set_value can
    // throw (e.g. std::future_error if a promise was somehow satisfied, or
    // bad_alloc moving the payload). Convert to set_exception; if even that
    // fails the promise was already satisfied and the caller has a result.
    try {
      if (error != nullptr) {
        req.result.set_exception(error);
      } else {
        req.result.set_value(std::move(result));
      }
    } catch (...) {
      try {
        req.result.set_exception(std::current_exception());
      } catch (...) {
        // Promise already satisfied — nothing left to deliver.
      }
    }
    {
      // The flush() gate advances only after the future is fulfilled, so
      // flush() keeps its promise that drained futures are ready.
      std::lock_guard lock(mutex_);
      completed_sequence_ = req.sequence;
    }
    drained_.notify_all();
  }
}

}  // namespace rainshine::serve
