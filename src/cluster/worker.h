#pragma once
// Cluster worker: one process (or thread, in tests/benches) owning a
// PredictionService replica and serving the wire protocol over a listening
// socket. The THD master-worker shape: an accept loop hands each connection
// to a thread that reads frames and routes them through a dispatch table —
//   kPredictRequest  -> encode slices locally, PredictMany, latency vector
//   kHealthRequest   -> liveness + model count
//   kStatsRequest    -> service counters (cache hits, forwards, coalescing)
//   kShutdownRequest -> acknowledge, then stop serving
// Anything that fails server-side crosses back as a kError frame carrying a
// typed fault::Status — the router decides whether that is a failover (IO)
// or a definitive answer (model not found everywhere).
//
// Overload protection (PR 8):
//  - a v2 frame's absolute deadline is honored end-to-end: an
//    already-expired predict is shed with kDeadlineExceeded before any
//    decode or forward work, and the deadline rides into the
//    PredictionService so expiry mid-batch sheds the remaining forwards;
//  - admission control bounds concurrent predict work (`max_inflight`) and
//    connections (`max_connections`); over budget, predicts fast-reject
//    with typed kOverloaded — health/stats/shutdown always serve, so an
//    overloaded worker still looks alive to its supervisor;
//  - shed/expired counters surface through the Stats message.
// Finished connection threads are reaped by the accept loop as connections
// close (they used to accumulate until shutdown).
//
// Startup is fail-fast with a typed Status, never an abort: models load via
// ModelRegistry::TryRegisterFromFile, so a missing or corrupt `.ptck` path
// returns kNotFound/kCorruption from Init() (and quarantines the path)
// instead of taking the process down with an uncaught exception.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/transport.h"
#include "cluster/wire.h"
#include "core/dataset.h"
#include "core/stage_encodings.h"
#include "fault/status.h"
#include "serve/registry.h"
#include "serve/service.h"

namespace predtop::cluster {

/// One model replica the worker serves, loaded from a checkpoint.
struct WorkerModelSpec {
  serve::ModelKey key;
  std::string ptck_path;
};

struct WorkerOptions {
  Endpoint listen;
  /// Benchmark whose stage slices this worker can encode (both ends of the
  /// wire own the model; only compact slices travel).
  core::BenchmarkModel benchmark;
  /// Checkpointed models to load at Init (satellite: each loads through the
  /// registry's retry + quarantine path and failures surface as Status).
  std::vector<WorkerModelSpec> models;
  /// Preloaded registry for in-process workers (tests, benches); specs in
  /// `models` are loaded on top of it. Null = fresh registry.
  std::shared_ptr<serve::ModelRegistry> registry;
  serve::ServiceOptions service;
  serve::ModelRegistry::RetryPolicy retry;
  /// Admission control: max concurrently-served predict requests (0 = no
  /// bound). Beyond the budget a predict fast-rejects with kOverloaded
  /// instead of queueing unbounded work behind a saturated service pool.
  std::size_t max_inflight = 0;
  /// Max connections served concurrently (0 = no bound). Over-budget
  /// connections are still accepted but serve only health/stats/shutdown —
  /// predicts on them fast-reject with kOverloaded.
  std::size_t max_connections = 0;
};

class Worker {
 public:
  explicit Worker(WorkerOptions options);
  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Load models and bind the listening socket. Returns the first failure
  /// as a typed Status (kNotFound / kCorruption / kIoError / kUnavailable
  /// when quarantined) without aborting; the worker must not be Run after a
  /// failed Init.
  [[nodiscard]] fault::Status Init();

  /// Serve until Stop() (or a shutdown frame). Blocking; call Start() for a
  /// background thread instead.
  void Run();

  /// Run() on a background thread (in-process cluster for tests/benches).
  void Start();

  /// Unblock the accept loop and all connection reads, then join.
  void Stop();

  /// Endpoint actually bound (resolves tcp port 0). Valid after Init.
  [[nodiscard]] const Endpoint& BoundEndpoint() const noexcept {
    return listener_.BoundEndpoint();
  }

  [[nodiscard]] std::uint64_t RequestsServed() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Connection threads currently tracked (live + not yet reaped). The
  /// many-short-connections regression test asserts this stays bounded.
  [[nodiscard]] std::size_t ActiveConnectionThreads() const;
  [[nodiscard]] std::uint64_t ShedExpired() const noexcept {
    return shed_expired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t ShedOverload() const noexcept {
    return shed_overload_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] serve::PredictionService* Service() noexcept { return service_.get(); }
  /// Approximate percentile (0..1) of admitted predict service latency, in
  /// microseconds, from the fixed 50 us-bucket histogram. 0 when nothing
  /// has been served yet.
  [[nodiscard]] std::uint64_t ServiceLatencyPercentileUs(double p) const;

 private:
  void ServeConnection(Socket socket, std::uint64_t serial, bool over_budget);
  /// Join and forget connection threads whose ServeConnection has returned.
  void ReapFinishedConnections();
  [[nodiscard]] Frame Dispatch(const Frame& request);
  [[nodiscard]] Frame HandlePredict(const Frame& request);
  [[nodiscard]] Frame HandleHealth(const Frame& request);
  [[nodiscard]] Frame HandleStats(const Frame& request);
  /// Encoded predictor input of a slice, shared by structure across slices
  /// (mutex-serialized; the store is shared by all connection threads).
  [[nodiscard]] const graph::EncodedGraph& EncodedFor(ir::StageSlice slice);
  void RequestStop() noexcept;

  WorkerOptions options_;
  std::shared_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::PredictionService> service_;
  Listener listener_;
  bool initialized_ = false;

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::size_t> inflight_predicts_{0};
  std::atomic<std::uint64_t> shed_expired_{0};
  std::atomic<std::uint64_t> shed_overload_{0};
  // Admitted predict service latency (frame decode -> reply encode),
  // 50 us buckets, last bucket = overflow. Lock-free so the predict hot
  // path never serializes on stats readers.
  static constexpr std::size_t kSvcBuckets = 2048;
  static constexpr std::uint64_t kSvcBucketUs = 50;
  std::array<std::atomic<std::uint32_t>, kSvcBuckets> svc_histogram_{};
  std::thread accept_thread_;
  mutable std::mutex threads_mutex_;
  std::uint64_t next_connection_serial_ = 0;              // under threads_mutex_
  std::map<std::uint64_t, std::thread> connection_threads_;
  std::vector<std::uint64_t> finished_connections_;       // reaped by accept loop
  std::vector<int> live_fds_;  // shut down by RequestStop to unblock reads

  std::mutex encode_mutex_;
  core::StageEncodings encodings_;  // under encode_mutex_
};

/// Process entry point of the standalone worker binary (and of test child
/// processes re-exec'ed with --cluster-worker). Flags:
///   --listen unix:/path | tcp:host:port
///   --benchmark gpt3|moe   --platform <name>
///   --layers/--seq/--hidden/--heads/--vocab/--micro N   (model geometry;
///   defaults match ir::Gpt3Config / ir::MoeConfig)
///   --model mesh=NxM,path=/x.ptck   (repeatable; one served replica each)
///   --threads N  --cache N
///   --max-inflight N  --max-conns N  --deadline-margin-us N   (admission /
///   shed knobs; env fallbacks PREDTOP_WORKER_MAX_INFLIGHT,
///   PREDTOP_WORKER_MAX_CONNS, PREDTOP_DEADLINE_MARGIN_US)
/// Exits nonzero with the typed Status on stderr when Init fails.
[[nodiscard]] int WorkerMain(int argc, char** argv);

}  // namespace predtop::cluster
