// PredictionService: bounded admission, idle-flush batching.
//
// Scoring traffic arrives as many small row groups (a rack's latest
// telemetry, one experiment arm's day). The service sits between those
// callers and the forest:
//
//   submit() ──► bounded admission queue ──► dispatcher thread ──► pool
//                (backpressure: blocks or      (takes what is pending as
//                 rejects when max_queue_rows   soon as it is free, up to
//                 of rows are pending)          max_batch_rows rows of
//                                               whole requests)
//
// Idle flush: each request is scored by its own Forest::predict, so a batch
// shares no work between its requests and holding a request back can only
// add latency. The dispatcher therefore never waits for company: it takes
// whatever is pending the moment it is not busy scoring, and requests that
// arrive while a batch is being scored form the next batch. Batch size
// follows the load without a timer (the adaptive batching of Clipper,
// Crankshaw et al., NSDI 2017). A nonzero max_batch_delay restores a fixed
// hold — the oldest request waits up to that long for max_batch_rows to
// fill — which tests use to keep requests sitting in the queue.
//
// Determinism: a request's rows are scored by Forest::predict over the
// request's own Dataset, which is bit-identical at any thread count (see
// util/parallel.hpp) and independent of which batch the request landed in —
// so service output is byte-identical to calling Forest::predict serially,
// no matter how requests interleave, batch, or how wide the pool is.
//
// Failure isolation: a request whose rows violate the model's schema throws
// in the submitting thread (never poisoning the queue); a scoring error
// inside the dispatcher lands in that request's future alone.
//
// Counters: per-service (= per-model) admitted/rejected/completed counts,
// rows, batches by flush cause (full / deadline / idle), queue depth
// high-water mark and end-to-end latency live in ServiceStats — the
// serving-side analogue of the λ/µ counters core::metrics keeps for
// failures — and are readable at any time via stats(). The same events also
// publish to the process-wide obs::registry() under "serve.*" (counters
// mirroring ServiceStats, a serve.queue_depth_rows gauge, and
// serve.latency_us / serve.batch_rows / serve.queue_wait_us /
// serve.predict_us histograms) so a run's metrics sidecar includes serving
// behaviour without holding a PredictionService handle. Counter ticks and histogram observes
// for a request happen in one critical section before its future fulfills,
// so obs snapshots taken after .get() are cross-metric consistent
// (latency and predict histogram counts == serve.requests_completed).
//
// Shutdown contract: a request whose submit() began before destruction is
// either scored by the drain or its future fails with service_stopped_error
// — it is never abandoned (no broken_promise). The destructor waits for
// every producer blocked inside submit() to leave before tearing down.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rainshine/obs/metrics.hpp"
#include "rainshine/serve/artifact.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/table/table.hpp"

namespace rainshine::serve {

/// A request hit the service during shutdown: the future of a submit() that
/// raced destruction carries this instead of a result. Distinct from
/// util::precondition_error (caller bug) — racing a shutdown is a normal
/// lifecycle event the caller may want to retry elsewhere.
class service_stopped_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A request's deadline expired before it was scored — on arrival (refused
/// before enqueueing, never admitted) or while it waited in the queue
/// (admitted but failed instead of scored). Either way the caller's latency
/// budget is already spent; scoring it would waste a batch slot on an answer
/// nobody is waiting for. The network front-end maps this to 504.
class deadline_exceeded_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Absolute per-request deadline; nullopt = no deadline (the default).
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

struct ServiceConfig {
  /// Largest batch the dispatcher takes at once, in rows of whole requests
  /// (the last request may overshoot it). With a hold, reaching it also
  /// ends the hold early.
  std::size_t max_batch_rows = 256;
  /// Admission bound: submit() blocks (try_submit() refuses) while this many
  /// rows are already pending. An oversized single request is admitted when
  /// the queue is empty, so it can never deadlock.
  std::size_t max_queue_rows = 4096;
  /// 0 (the default) = idle flush: the dispatcher takes whatever is pending
  /// as soon as it is free. Nonzero = a fixed hold: the batch waits until
  /// max_batch_rows rows are pending or its oldest request has waited this
  /// long. Scoring is per request, so a hold only adds latency; it exists
  /// to keep requests queued (backpressure, drain and deadline tests).
  std::chrono::microseconds max_batch_delay{0};
};

/// Monotonic counters snapshot. Latencies are measured enqueue → scored, in
/// microseconds. A request's counters are published before its future
/// fulfills, so stats() taken after a .get() always includes that request.
struct ServiceStats {
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_rejected = 0;  ///< try_submit refusals (backpressure)
  std::uint64_t requests_stopped = 0;   ///< raced shutdown; service_stopped_error
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_failed = 0;    ///< scoring threw; error in the future
  /// Deadline expired before scoring (on arrival or in the queue); future
  /// fails with deadline_exceeded_error. Never overlaps requests_completed,
  /// so `latency_us count == requests_completed` stays an invariant.
  std::uint64_t requests_deadline_exceeded = 0;
  std::uint64_t oversize_admitted = 0;  ///< single request > max_queue_rows
  std::uint64_t rows_scored = 0;
  std::uint64_t batches_flushed = 0;
  /// full + deadline + idle == batches_flushed.
  std::uint64_t full_flushes = 0;       ///< batch reached max_batch_rows
  std::uint64_t deadline_flushes = 0;   ///< below max_batch_rows, hold > 0
  std::uint64_t idle_flushes = 0;       ///< below max_batch_rows, hold == 0
  std::uint64_t queue_depth_rows = 0;   ///< pending right now
  std::uint64_t peak_queue_rows = 0;    ///< high-water mark
  std::uint64_t blocked_submits = 0;    ///< producers parked in submit() now
  std::uint64_t total_latency_us = 0;
  std::uint64_t max_latency_us = 0;

  [[nodiscard]] double mean_latency_us() const noexcept {
    return requests_completed == 0
               ? 0.0
               : static_cast<double>(total_latency_us) /
                     static_cast<double>(requests_completed);
  }

  /// One-line human summary for logs and CLI --stats output.
  [[nodiscard]] std::string summary() const;
};

class PredictionService {
 public:
  /// Serves `artifact.forest`, validating every submitted table against
  /// `artifact.meta.schema`. The service owns one dispatcher thread.
  explicit PredictionService(ModelArtifact artifact, ServiceConfig config = {});

  /// Drains every admitted request, fails any submit() still blocked on
  /// backpressure with service_stopped_error, waits for those producers to
  /// leave the lock, then stops the dispatcher. No future is ever abandoned.
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Validates `rows` against the model schema (throws
  /// util::precondition_error on mismatch — in this thread, immediately),
  /// then blocks until the queue has room and returns a future holding one
  /// prediction per row (regression values or class codes; see
  /// class_labels() to render the latter). If the service stops while this
  /// call is blocked, the returned future fails with service_stopped_error.
  ///
  /// `deadline` bounds the request end-to-end: already-expired requests are
  /// refused before enqueueing (counted, never scored), a submit blocked on
  /// backpressure gives up when the deadline passes, and a request whose
  /// deadline lapses while queued is failed instead of scored. All three
  /// fail the future with deadline_exceeded_error and tick
  /// requests_deadline_exceeded.
  [[nodiscard]] std::future<std::vector<double>> submit(
      const table::Table& rows, Deadline deadline = std::nullopt);

  /// Non-blocking admission: nullopt (and a rejected tick) when the queue
  /// is full. Schema mismatches still throw. A call racing shutdown returns
  /// a future failed with service_stopped_error, and one arriving past its
  /// deadline a future failed with deadline_exceeded_error (not nullopt —
  /// those refusals are permanent, not backpressure).
  [[nodiscard]] std::optional<std::future<std::vector<double>>> try_submit(
      const table::Table& rows, Deadline deadline = std::nullopt);

  /// submit() + wait: scores `rows` synchronously through the batch path.
  [[nodiscard]] std::vector<double> score(const table::Table& rows);

  /// Forces everything currently admitted through the scorer and returns
  /// once those futures are fulfilled.
  void flush();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const ModelMetadata& model() const noexcept { return meta_; }

 private:
  struct Request {
    cart::Dataset rows;
    std::promise<std::vector<double>> result;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t sequence = 0;
    Deadline deadline;
  };

  /// Why enqueue() returned: scored-eventually, backpressure refusal, or a
  /// future pre-failed with service_stopped_error / deadline_exceeded_error.
  enum class Admission { kAdmitted, kRejected, kStopped, kDeadlineExpired };

  /// Stable handles into obs::registry(), resolved once at construction so
  /// the hot path never takes the registry's registration lock.
  struct ObsHandles {
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* stopped = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* rows_scored = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* full_flushes = nullptr;
    obs::Counter* deadline_flushes = nullptr;
    obs::Counter* idle_flushes = nullptr;
    obs::Counter* oversize = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* latency_us = nullptr;
    obs::Histogram* batch_rows = nullptr;
    obs::Histogram* queue_wait_us = nullptr;  ///< enqueue → taken into a batch
    obs::Histogram* predict_us = nullptr;     ///< one request's Forest::predict
  };

  std::future<std::vector<double>> enqueue(const table::Table& rows, bool blocking,
                                           Admission& outcome, Deadline deadline);
  void run();
  void score_batch(std::vector<Request> batch);

  ModelMetadata meta_;
  std::shared_ptr<const cart::Forest> forest_;
  ServiceConfig config_;
  ObsHandles obs_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;   ///< dispatcher wakeups
  std::condition_variable space_free_;   ///< producer backpressure wakeups
  std::condition_variable drained_;      ///< flush() completion
  std::condition_variable idle_;         ///< destructor waits out blocked submits
  std::deque<Request> pending_;
  std::size_t pending_rows_ = 0;
  std::size_t blocked_enqueues_ = 0;     ///< producers inside space_free_.wait
  std::uint64_t next_sequence_ = 0;      ///< last sequence admitted
  std::uint64_t completed_sequence_ = 0; ///< all requests <= this are done
  bool stop_ = false;
  bool flush_requested_ = false;
  ServiceStats stats_;

  std::thread dispatcher_;  ///< last member: started after state is ready
};

}  // namespace rainshine::serve
